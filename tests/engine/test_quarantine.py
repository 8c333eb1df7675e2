"""Poison-shard quarantine and the stage-wide degradation breaker.

A shard whose attempts keep taking workers down must stop condemning the
pool: after ``quarantine_after`` infrastructure failures it runs
in-process serial (fault-free by construction — the injectors are armed
only in workers).  When infrastructure failures sweep the whole stage,
the circuit breaker (``degrade_min_failures`` + ``degrade_failure_ratio``)
degrades everything to serial instead of thrashing rebuild after rebuild.
"""

import json

import pytest

from repro import obs
from repro.engine.chaos_infra import FAULTS_ENV
from repro.engine.deadline import TaskDeadline
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events


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
    """``run_many`` over zero-argument specs returning ``values``."""
    return run_many(
        [ReturnValue(value) for value in values],
        workers=2,
        pool=pool,
        retry_backoff_s=0.0,
        **kwargs,
    )


def results_of(entries):
    return [entry.result for entry in entries]


def _kill_spec(shards, times=99):
    return json.dumps({"kind": "kill", "shards": shards, "times": times})


# ----------------------------------------------------------------------
# per-shard quarantine
# ----------------------------------------------------------------------
def test_poison_shard_quarantined_to_inline_execution(monkeypatch):
    """A shard that kills its worker every time ends up succeeding inline."""
    monkeypatch.setenv(FAULTS_ENV, _kill_spec([1]))
    deadline = TaskDeadline(
        speculative=False, quarantine_after=2, degrade_min_failures=0
    )
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_values(
                pool, [0, 1, 2], max_attempts=4, deadline=deadline
            )
    # the quarantined attempt runs in-process, where no faults are armed
    assert results_of(results) == [0, 1, 2]
    assert obs.counter_value("pool.quarantined_shards") == 1.0
    assert obs.counter_value("pool.tasks_inline") >= 1.0
    (event,) = log.by_kind(obs_events.SHARD_QUARANTINE)
    assert event.fields["shard"] == 1
    assert event.severity in ("warning", "critical")


def test_quarantine_disabled_lets_the_shard_exhaust(monkeypatch):
    """quarantine_after=0: the poison shard burns every attempt and fails."""
    monkeypatch.setenv(FAULTS_ENV, _kill_spec([0]))
    deadline = TaskDeadline(
        speculative=False, quarantine_after=0, degrade_min_failures=0
    )
    with WorkerPool(2) as pool:
        poisoned, survivor = run_values(
            pool, [0, 1], max_attempts=2, deadline=deadline
        )
    assert isinstance(poisoned, RunFailure)
    assert poisoned.attempts == 2
    assert survivor.result == 1
    assert obs.counter_value("pool.quarantined_shards") == 0.0


def test_quarantine_through_run_many(monkeypatch):
    """The same quarantine path protects suite execution."""
    monkeypatch.setenv(FAULTS_ENV, _kill_spec([1]))
    deadline = TaskDeadline(
        speculative=False, quarantine_after=2, degrade_min_failures=0
    )
    with WorkerPool(2) as pool:
        results = run_many(
            [ReturnValue(0), ReturnValue(1), ReturnValue(2)],
            workers=2,
            pool=pool,
            max_attempts=4,
            retry_backoff_s=0.0,
            deadline=deadline,
        )
    assert [artifact.result for artifact in results] == [0, 1, 2]
    assert not any(isinstance(entry, RunFailure) for entry in results)
    assert obs.counter_value("pool.quarantined_shards") == 1.0


# ----------------------------------------------------------------------
# the stage-wide circuit breaker
# ----------------------------------------------------------------------
def test_breaker_degrades_the_whole_stage_to_serial(monkeypatch):
    """Failures across every shard trip the breaker; serial finishes the job."""
    monkeypatch.setenv(FAULTS_ENV, _kill_spec(None))  # every shard, every time
    deadline = TaskDeadline(
        speculative=False,
        quarantine_after=0,
        degrade_min_failures=4,
        degrade_failure_ratio=0.5,
    )
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_values(
                pool, range(6), max_attempts=4, deadline=deadline
            )
    assert results_of(results) == [0, 1, 2, 3, 4, 5]
    assert obs.counter_value("pool.degraded") == 1.0
    assert obs.counter_value("pool.tasks_inline") >= 1.0
    (event,) = log.by_kind(obs_events.POOL_DEGRADED)
    assert event.severity == "critical"
    assert event.fields["infra_failures"] >= 4
    assert event.fields["failure_ratio"] >= 0.5


def test_breaker_needs_both_count_and_ratio(monkeypatch):
    """One dead shard in a wide stage must NOT degrade everything."""
    monkeypatch.setenv(FAULTS_ENV, _kill_spec([3], times=1))
    deadline = TaskDeadline(
        speculative=False,
        quarantine_after=0,
        degrade_min_failures=4,
        degrade_failure_ratio=0.5,
    )
    with WorkerPool(2) as pool:
        results = run_values(pool, range(8), max_attempts=4, deadline=deadline)
    assert results_of(results) == list(range(8))
    assert obs.counter_value("pool.degraded") == 0.0


def test_breaker_disabled_when_min_failures_is_zero(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, _kill_spec(None, times=1))
    deadline = TaskDeadline(
        speculative=False, quarantine_after=0, degrade_min_failures=0
    )
    with WorkerPool(2) as pool:
        results = run_values(pool, range(6), max_attempts=4, deadline=deadline)
    assert results_of(results) == list(range(6))
    assert obs.counter_value("pool.degraded") == 0.0
