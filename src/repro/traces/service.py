"""Service power traces (S-traces) — Eq. 5 of the paper.

For a service *Y*, the S-trace is the mean of the averaged I-traces of all of
*Y*'s instances.  The S-traces of the top power-consumer services form the
basis against which every instance's asynchrony-score vector is computed
(Sec. 3.3-3.4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from .grid import TimeGrid
from .instance import InstanceRecord, group_by_service
from .series import PowerTrace
from .traceset import TraceSet, row_source


def service_power_trace(records: Sequence[InstanceRecord]) -> PowerTrace:
    """The S-trace of one service: mean of its instances' averaged I-traces."""
    if not records:
        raise ValueError("service has no instances")
    services = {record.service for record in records}
    if len(services) > 1:
        raise ValueError(f"records span multiple services: {sorted(services)}")
    matrix, rows = row_source([record.training_trace for record in records])
    return PowerTrace(records[0].training_trace.grid, _mean_row(matrix[rows]))


def build_service_traces(
    records: Iterable[InstanceRecord],
) -> Dict[str, PowerTrace]:
    """S-traces for every service present in ``records``."""
    return {
        service: service_power_trace(service_records)
        for service, service_records in group_by_service(records).items()
    }


def total_energy_by_service(records: Iterable[InstanceRecord]) -> Dict[str, float]:
    """Total training-trace energy per service (watt-minutes).

    This is the quantity behind Figure 5's "30-day average power consumption"
    breakdown: the share of each service in the datacenter's energy.
    """
    records = list(records)
    return _sum_by_service(
        [record.service for record in records],
        [record.training_trace.energy() for record in records],
    )


def _sum_by_service(
    services: Sequence[str], energies: Sequence[float]
) -> Dict[str, float]:
    """Per-service totals, accumulated in instance order."""
    energy: Dict[str, float] = {}
    for service, value in zip(services, energies):
        energy[service] = energy.get(service, 0.0) + value
    return energy


def top_power_consumers(
    records: Sequence[InstanceRecord], top_m: int
) -> List[str]:
    """Names of the ``top_m`` services by total power, largest first.

    These are the services whose S-traces span the asynchrony-score space
    (the set *B* of Sec. 3.5).  Ties break by service name for determinism.
    """
    return _top_services(total_energy_by_service(records), top_m)


def _top_services(energy: Dict[str, float], top_m: int) -> List[str]:
    """The ``top_m`` services by energy, largest first (ties by name)."""
    if top_m <= 0:
        raise ValueError(f"top_m must be positive, got {top_m}")
    ranked = sorted(energy.items(), key=lambda item: (-item[1], item[0]))
    return [service for service, _ in ranked[:top_m]]


def extract_basis_traces(
    records: Sequence[InstanceRecord], top_m: int
) -> "TraceSet":
    """S-traces of the top-``top_m`` power consumers as a :class:`TraceSet`.

    The returned set's ids are service names, ordered by descending power —
    the basis *{PS_1 .. PS_m}* of Figure 7.  ``top_m`` is clamped to the
    number of distinct services.
    """
    if not records:
        raise ValueError("service has no instances")
    matrix, rows = row_source([record.training_trace for record in records])
    return basis_from_matrix(
        matrix[rows],
        [record.service for record in records],
        records[0].training_trace.grid,
        top_m,
    )


def basis_from_matrix(
    matrix: np.ndarray, services: Sequence[str], grid: TimeGrid, top_m: int
) -> "TraceSet":
    """:func:`extract_basis_traces` for training traces held as matrix rows.

    Row *i* of ``matrix`` is the averaged I-trace of an instance of
    ``services[i]``.  Energies and S-traces are reduced in row order, so
    the result is bit-identical to the record-based computation.
    """
    energies = (matrix.sum(axis=1) * grid.step_minutes).tolist()
    top = _top_services(_sum_by_service(services, energies), top_m)
    rows_of: Dict[str, List[int]] = {}
    for row, service in enumerate(services):
        rows_of.setdefault(service, []).append(row)
    strace = np.stack([_mean_row(matrix[rows_of[service]]) for service in top])
    return TraceSet(grid, top, strace)


def _mean_row(matrix: np.ndarray) -> np.ndarray:
    """Eq. 5: rows added in order, then divided by their count."""
    return matrix.sum(axis=0) / matrix.shape[0]
