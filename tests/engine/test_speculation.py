"""Straggler mitigation: speculative re-dispatch, first result wins.

A straggling worker (the paper's overloaded-host analogue) must not
dictate stage latency when a twin dispatch could finish sooner.  These
tests pin the speculation contract:

* a task older than the straggler threshold (the ``soft_timeout_s``
  floor, or a quantile of the live ``pool.task_exec_s`` histogram scaled
  by ``straggler_factor``) gets exactly one speculative twin;
* the first result to land settles the shard; the loser is abandoned,
  counted as ``pool.speculative_losses``, and never re-merged — results
  stay bit-identical to a serial run;
* the twin is a *new dispatch of the same logical attempt*: it consumes
  no retry budget;
* ``speculative=False`` turns the whole mechanism off.
"""

import time

import pytest

from repro import obs
from repro.engine.chaos_infra import FAULTS_ENV
from repro.engine.deadline import TaskDeadline
from repro.engine.parallel import WorkerPool, run_many
from repro.obs import events as obs_events

#: The injected slowdown; a speculative win must beat this by a wide margin.
SLOW_S = 8.0

SLOW_SHARD_1 = (
    '{"kind": "slow", "shards": [1], "times": 1, "duration_s": %g}' % SLOW_S
)


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    obs.reset_report()
    yield
    obs.reset_metrics()
    obs.reset_report()


class ReturnValue:
    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


def run_values(pool, values, **kwargs):
    """``run_many`` over zero-argument specs; the specs' return values."""
    results = run_many(
        [ReturnValue(value) for value in values],
        workers=2,
        pool=pool,
        retry_backoff_s=0.0,
        **kwargs,
    )
    return [entry.result for entry in results]


def test_speculative_twin_beats_the_straggler(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, SLOW_SHARD_1)
    deadline = TaskDeadline(soft_timeout_s=0.3, speculative=True)
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_values(
                pool, [0, 1, 2], max_attempts=2, deadline=deadline
            )
            elapsed = time.perf_counter() - started
            pool.kill()  # don't join the worker still sleeping off the fault
    assert results == [0, 1, 2]
    assert elapsed < SLOW_S / 2  # the twin won; we never waited out the fault

    assert obs.counter_value("pool.speculative_dispatched") == 1.0
    assert obs.counter_value("pool.speculative_wins") == 1.0
    assert obs.counter_value("pool.speculative_losses") == 1.0
    # the twin consumed no retry budget
    assert obs.counter_value("pool.tasks_retried") == 0.0
    (event,) = log.by_kind(obs_events.SPECULATIVE_DISPATCH)
    assert event.fields["shard"] == 1
    assert event.fields["age_s"] >= 0.3
    assert event.fields["threshold_s"] == pytest.approx(0.3)


def test_speculation_off_waits_for_the_straggler(monkeypatch):
    """With the switch off the stage simply waits — results still correct."""
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "slow", "shards": [1], "times": 1, "duration_s": 1.0}',
    )
    deadline = TaskDeadline(soft_timeout_s=0.1, speculative=False)
    started = time.perf_counter()
    with WorkerPool(2) as pool:
        results = run_values(pool, [0, 1], max_attempts=2, deadline=deadline)
    elapsed = time.perf_counter() - started
    assert results == [0, 1]
    assert elapsed >= 1.0  # waited the slowdown out
    assert obs.counter_value("pool.speculative_dispatched") == 0.0


def test_no_threshold_no_speculation(monkeypatch):
    """Speculative=True but no floor and no histogram: nothing to act on."""
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "slow", "shards": [0], "times": 1, "duration_s": 0.5}',
    )
    deadline = TaskDeadline(speculative=True)  # no soft_timeout_s
    obs.reset_metrics()  # ensure no pool.task_exec_s history feeds a quantile
    with WorkerPool(2) as pool:
        results = run_values(pool, [0, 1], max_attempts=2, deadline=deadline)
    assert results == [0, 1]
    assert obs.counter_value("pool.speculative_dispatched") == 0.0


def test_at_most_one_twin_per_shard(monkeypatch):
    """A straggler is speculated on once, not once per poll tick."""
    monkeypatch.setenv(FAULTS_ENV, SLOW_SHARD_1)
    deadline = TaskDeadline(
        soft_timeout_s=0.2, speculative=True, poll_interval_s=0.02
    )
    with WorkerPool(2) as pool:
        results = run_values(pool, [0, 1, 2], max_attempts=2, deadline=deadline)
        pool.kill()
    assert results == [0, 1, 2]
    assert obs.counter_value("pool.speculative_dispatched") == 1.0


def test_histogram_quantile_raises_the_threshold(monkeypatch):
    """A live exec-time distribution lifts the threshold above the floor.

    With 3x-quantile well above the tiny floor, normal tasks finishing
    near the quantile are NOT speculated on merely for beating the floor.
    """
    deadline = TaskDeadline(
        soft_timeout_s=0.05,
        speculative=True,
        min_straggler_samples=4,
        straggler_factor=3.0,
    )
    with WorkerPool(2) as pool:
        # seed pool.task_exec_s with ordinary executions
        run_values(pool, range(8))
        hist = obs.global_registry().histograms.get("pool.task_exec_s")
        assert hist is not None and hist.count >= 4
        threshold = deadline.straggler_threshold_s(hist)
        # quantile-derived, floored at soft, and strictly above the floor
        assert threshold >= 0.05
        assert threshold == max(
            0.05, hist.percentile(95.0) * 3.0
        )
