"""The hard-deadline watchdog: hung workers are killed, stages stay bounded.

A hang is the failure mode the retry layer alone cannot handle — a hung
worker never raises, never exits, and never returns, so without the
watchdog one stuck task would stall ``run_many`` forever.  These tests
pin the watchdog contract:

* a task past ``hard_timeout_s`` fails that attempt with
  :class:`TaskTimeoutError` carrying the dispatch context;
* the worker processes are killed outright (graceful shutdown would
  block on the hung worker), and the pool rebuilds for the retry;
* an exhausted hang surfaces as a structured ``RunFailure`` carrying the
  ``TaskTimeoutError`` context;
* wall time is bounded by attempts x deadline, not by the hang length.
"""

import json
import time

import pytest

from repro import obs
from repro.engine.chaos_infra import FAULTS_ENV
from repro.engine.deadline import TaskDeadline, TaskTimeoutError
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events

#: Far beyond any deadline used here; a leaked wait would blow the test
#: session's timeout long before this elapses.
HANG_S = 120.0


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


def _hang_spec(shards, times):
    return json.dumps(
        {"kind": "hang", "shards": shards, "times": times, "duration_s": HANG_S}
    )


def test_watchdog_kills_and_retry_recovers(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([1], times=1))
    deadline = TaskDeadline(hard_timeout_s=0.75, speculative=False)
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_values(
                pool, [0, 1, 2], max_attempts=2, deadline=deadline
            )
        elapsed = time.perf_counter() - started
    assert results_of(results) == [0, 1, 2]
    assert elapsed < HANG_S / 4  # bounded by the deadline, not the hang

    assert obs.counter_value("pool.task_timeouts") == 1.0
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.rebuilds") >= 1.0
    (timeout_event,) = log.by_kind(obs_events.TASK_TIMEOUT)
    assert timeout_event.severity == "critical"
    assert timeout_event.fields["shard"] == 1
    assert timeout_event.fields["timeout_s"] == 0.75


def test_exhausted_hang_raises_task_timeout_error(monkeypatch):
    """A permanent hang's last attempt fails with TaskTimeoutError, whose
    dispatch context (shard, attempt, deadline) reaches the RunFailure."""
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([0], times=99))
    deadline = TaskDeadline(
        hard_timeout_s=0.5, speculative=False, quarantine_after=0
    )
    started = time.perf_counter()
    with WorkerPool(2) as pool:
        failure, survivor = run_values(
            pool, [0, 1], max_attempts=2, deadline=deadline
        )
    elapsed = time.perf_counter() - started
    assert elapsed < HANG_S / 4
    assert survivor.result == 1
    assert isinstance(failure, RunFailure)
    assert failure.error_type == TaskTimeoutError.__name__
    assert failure.error == str(TaskTimeoutError("run.many", 0, 2, 0.5))
    assert failure.attempts == 2
    assert obs.counter_value("pool.task_timeouts") == 2.0  # both attempts


def test_exhausted_hang_is_a_run_failure(monkeypatch):
    """run_many: a permanent hang fills the slot with RunFailure."""
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([1], times=99))
    deadline = TaskDeadline(
        hard_timeout_s=0.5, speculative=False, quarantine_after=0
    )
    with WorkerPool(2) as pool:
        results = run_many(
            [ReturnValue(0), ReturnValue(1), ReturnValue(2)],
            workers=2,
            pool=pool,
            max_attempts=2,
            retry_backoff_s=0.0,
            deadline=deadline,
        )
    assert results[0].result == 0 and results[2].result == 2
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.error_type == "TaskTimeoutError"
    assert failure.attempts == 2


def test_innocent_inflight_tasks_are_retried_not_condemned(monkeypatch):
    """Tasks in flight when the watchdog fires burn an attempt but recover.

    Killing the pool takes the innocents' workers with it; their failures
    are collateral (plain RuntimeError, no infra-failure accounting) and
    the retry on the rebuilt pool completes them.
    """
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([0], times=1))
    deadline = TaskDeadline(
        hard_timeout_s=0.75, speculative=False, quarantine_after=0
    )
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_values(
                pool, range(4), max_attempts=3, deadline=deadline
            )
    assert results_of(results) == [0, 1, 2, 3]
    # exactly one shard actually timed out; the others were collateral
    assert obs.counter_value("pool.task_timeouts") == 1.0
    assert len(log.by_kind(obs_events.TASK_TIMEOUT)) == 1


def test_no_deadline_means_no_watchdog_overhead():
    """Without a deadline the dispatch loop blocks exactly as before."""
    with WorkerPool(2) as pool:
        results = run_values(pool, [0, 1], deadline=None)
    assert results_of(results) == [0, 1]
    assert obs.counter_value("pool.task_timeouts") == 0.0


def test_pool_kill_discards_executor_without_waiting():
    """kill() must return promptly and leave the pool lazily rebuildable."""
    with WorkerPool(2) as pool:
        assert results_of(run_values(pool, [0, 1])) == [0, 1]
        started = time.perf_counter()
        pool.kill()
        assert time.perf_counter() - started < 5.0
        # the next dispatch re-forks transparently
        assert results_of(run_values(pool, [7, 8])) == [7, 8]
