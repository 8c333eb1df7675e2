"""Deriving a reshaping fleet description from a placed datacenter.

Bridges the placement world (instance records, power views, budgets) to the
reshaping runtime's aggregate view: how many LC and Batch servers exist,
what their per-server power models look like, and what the LC demand signal
is, all estimated from the synthetic telemetry itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.state import FleetDescription
from ..sim.demand import DemandTrace, demand_at_target_load
from ..sim.power_model import ServerPowerModel
from ..traces.instance import InstanceRecord, ServiceKind
from ..traces.series import PowerTrace


def split_by_kind(
    records: Sequence[InstanceRecord],
) -> Tuple[List[InstanceRecord], List[InstanceRecord], List[InstanceRecord]]:
    """Partition records into (LC, Batch, other)."""
    lc = [r for r in records if r.kind == ServiceKind.LATENCY_CRITICAL]
    batch = [r for r in records if r.kind == ServiceKind.BATCH]
    other = [
        r
        for r in records
        if r.kind not in (ServiceKind.LATENCY_CRITICAL, ServiceKind.BATCH)
    ]
    return lc, batch, other


def estimate_server_model(
    records: Sequence[InstanceRecord],
    *,
    gamma: float = 3.0,
    use_test: bool = True,
    full_load_stat: str = "peak",
) -> ServerPowerModel:
    """Fit a linear idle/peak server model from a group's traces.

    Idle is estimated as the mean trace valley across the group.  The
    full-load draw uses ``full_load_stat``:

    * ``"peak"`` — mean of trace peaks; right for LC servers whose peak
      corresponds to full load;
    * ``"mean"`` — mean of trace means; right for batch servers, which run
      "fully loaded" at their typical draw all the time (their trace peaks
      are noise excursions, not a different operating point).
    """
    if not records:
        raise ValueError("cannot estimate a model from zero records")
    if full_load_stat not in ("peak", "mean"):
        raise ValueError(f"unknown full_load_stat {full_load_stat!r}")
    traces = [
        (r.test_trace if use_test and r.test_trace is not None else r.training_trace)
        for r in records
    ]
    idle = float(np.mean([t.valley() for t in traces]))
    if full_load_stat == "peak":
        full = float(np.mean([t.peak() for t in traces]))
    else:
        full = float(np.mean([t.mean() for t in traces]))
    if full <= idle:
        full = idle + 1.0
    return ServerPowerModel(idle_watts=idle, peak_watts=full, gamma=gamma)


def aggregate_trace(
    records: Sequence[InstanceRecord], *, use_test: bool = True
) -> Optional[PowerTrace]:
    """Aggregate power trace of a group (None for an empty group)."""
    if not records:
        return None
    traces = [
        (r.test_trace if use_test and r.test_trace is not None else r.training_trace)
        for r in records
    ]
    return PowerTrace.aggregate(traces)


def describe_fleet(
    records: Sequence[InstanceRecord],
    budget_watts: float,
    *,
    use_test: bool = True,
) -> FleetDescription:
    """Build a :class:`FleetDescription` for the reshaping runtime."""
    lc, batch, other = split_by_kind(records)
    if not lc:
        raise ValueError("datacenter has no latency-critical instances")
    return FleetDescription(
        n_lc=len(lc),
        n_batch=len(batch),
        lc_model=estimate_server_model(lc, use_test=use_test),
        batch_model=(
            estimate_server_model(batch, use_test=use_test, full_load_stat="mean")
            if batch
            else ServerPowerModel(150.0, 240.0)
        ),
        budget_watts=budget_watts,
        other_power=aggregate_trace(other, use_test=use_test),
    )


def derive_demand(
    records: Sequence[InstanceRecord],
    *,
    peak_load: float = 0.85,
    use_test: bool = True,
) -> DemandTrace:
    """LC demand for the evaluation (or training) week.

    Shaped like the LC fleet's aggregate power and calibrated so the
    original fleet runs at ``peak_load`` per server at peak (a production
    fleet is sized to run hot but safe).
    """
    lc, _, _ = split_by_kind(records)
    if not lc:
        raise ValueError("datacenter has no latency-critical instances")
    aggregate = aggregate_trace(lc, use_test=use_test)
    assert aggregate is not None
    return demand_at_target_load(aggregate, len(lc), peak_load=peak_load)
