"""The timeout watchdog: hung workers are killed, batches stay bounded.

A hang is the failure mode the retry layer alone cannot handle — a hung
worker never raises, never exits, and never returns, so without the
watchdog one stuck task would stall ``run_many`` forever.  These tests
pin the ``run_many(..., timeout_s=...)`` contract:

* a task past ``timeout_s`` fails that attempt with
  :class:`TaskTimeoutError` carrying the dispatch context;
* the worker processes are killed outright (graceful shutdown would
  block on the hung worker), and the pool rebuilds for the retry;
* an exhausted hang surfaces as a structured ``RunFailure`` carrying the
  ``TaskTimeoutError`` context;
* wall time is bounded by attempts x timeout, not by the hang length;
* no attempt ever runs in the calling process, so a spec that kills its
  process takes down only workers.

Hangs are picklable callables; a hang that should fire once keeps its
flag on the filesystem, because the retry lands in a fresh worker.
"""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from conftest import publish_events
from repro import obs
from repro.engine import TaskTimeoutError
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events

#: Far beyond any timeout used here; a leaked wait would blow the test
#: session's timeout long before this elapses.
HANG_S = 120.0


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    obs.reset_report()
    yield
    obs.reset_metrics()
    obs.reset_report()


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
class ReturnValue:
    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


class Hang:
    """Sleeps far past any timeout, every time it runs."""

    def __call__(self):
        time.sleep(HANG_S)


class HangOnce:
    """Hangs on its first ``times`` runs (counted in a flag file), returns
    ``value`` afterwards."""

    def __init__(self, flag_path, value, times=1):
        self.flag_path = str(flag_path)
        self.value = value
        self.times = times

    def __call__(self):
        runs = 0
        if os.path.exists(self.flag_path):
            with open(self.flag_path) as handle:
                runs = len(handle.read())
        if runs < self.times:
            with open(self.flag_path, "a") as handle:
                handle.write("h")
            time.sleep(HANG_S)
        return self.value


def run_values(pool, specs, **kwargs):
    """``run_many`` over ``specs`` (plain values become ``ReturnValue``)."""
    return run_many(
        [spec if callable(spec) else ReturnValue(spec) for spec in specs],
        workers=2,
        pool=pool,
        retry_backoff_s=0.0,
        **kwargs,
    )


def results_of(entries):
    return [entry.result for entry in entries]


# ----------------------------------------------------------------------
# the watchdog
# ----------------------------------------------------------------------
def test_timeout_error_carries_dispatch_context():
    error = TaskTimeoutError("stage", 3, 2, 1.5)
    assert error.label == "stage"
    assert error.shard_id == 3
    assert error.attempt == 2
    assert error.timeout_s == 1.5
    assert "stage" in str(error) and "1.5" in str(error)
    assert isinstance(error, RuntimeError)


def test_watchdog_kills_and_retry_recovers(tmp_path):
    """A hung worker is killed at the timeout; the retry recovers."""
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_values(
                pool,
                [0, HangOnce(tmp_path / "hung.flag", 1), 2],
                max_attempts=2,
                timeout_s=0.75,
            )
        elapsed = time.perf_counter() - started
    assert results_of(results) == [0, 1, 2]
    assert elapsed < HANG_S / 4  # bounded by the timeout, not the hang

    assert obs.counter_value("pool.task_timeouts") == 1.0
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.rebuilds") >= 1.0
    (timeout_event,) = log.by_kind(obs_events.TASK_TIMEOUT)
    assert timeout_event.severity == "critical"
    assert timeout_event.fields["shard"] == 1
    assert timeout_event.fields["timeout_s"] == 0.75
    publish_events(log)


def test_scenario_hang_bounded_by_timeout(tmp_path):
    """A spec that hangs on two attempts running is killed at ``timeout_s``
    each time and recovers on the third: the batch takes about
    ``2 x timeout_s``, not the hang length, and its results are intact."""
    timeout_s = 1.0
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_values(
                pool,
                [HangOnce(tmp_path / "hung.flag", 64.0, times=2), 64.0],
                max_attempts=3,
                timeout_s=timeout_s,
            )
        elapsed = time.perf_counter() - started
    assert results_of(results) == [64.0, 64.0]
    assert elapsed < 3 * timeout_s + 5.0
    assert obs.counter_value("pool.task_timeouts") == 2.0
    assert len(log.by_kind(obs_events.TASK_TIMEOUT)) == 2
    publish_events(log)


def test_exhausted_hang_raises_task_timeout_error():
    """A permanent hang's last attempt fails with TaskTimeoutError, whose
    dispatch context (shard, attempt, timeout) reaches the RunFailure."""
    started = time.perf_counter()
    with WorkerPool(2) as pool:
        failure, survivor = run_values(
            pool, [Hang(), 1], max_attempts=2, timeout_s=0.5
        )
    elapsed = time.perf_counter() - started
    assert elapsed < HANG_S / 4
    assert survivor.result == 1
    assert isinstance(failure, RunFailure)
    assert failure.error_type == TaskTimeoutError.__name__
    assert failure.error == str(TaskTimeoutError("run.many", 0, 2, 0.5))
    assert failure.attempts == 2
    assert obs.counter_value("pool.task_timeouts") == 2.0  # both attempts


def test_exhausted_hang_is_a_run_failure():
    """Every attempt of an always-hanging spec is killed at ``timeout_s``:
    the batch returns a RunFailure in about ``max_attempts x timeout_s``,
    and the hang never runs in the calling process."""
    timeout_s, max_attempts = 0.5, 3
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_values(
                pool,
                [0, Hang(), 2],
                max_attempts=max_attempts,
                timeout_s=timeout_s,
            )
        elapsed = time.perf_counter() - started
    assert elapsed < max_attempts * timeout_s + 5.0
    assert results[0].result == 0 and results[2].result == 2
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.error_type == "TaskTimeoutError"
    assert failure.attempts == max_attempts
    assert len(log.by_kind(obs_events.TASK_TIMEOUT)) == max_attempts
    publish_events(log)


def test_a_timed_batch_of_one_still_runs_on_a_pool():
    """Only a worker can be killed, so ``timeout_s`` sends even a lone spec
    with ``workers=1`` to a pool instead of the in-process serial loop."""
    started = time.perf_counter()
    (failure,) = run_many(
        [Hang()], workers=1, max_attempts=1, retry_backoff_s=0.0, timeout_s=0.5
    )
    assert time.perf_counter() - started < HANG_S / 4
    assert isinstance(failure, RunFailure)
    assert failure.error_type == "TaskTimeoutError"


def test_innocent_inflight_tasks_are_retried_not_condemned(tmp_path):
    """Tasks in flight when the watchdog fires burn an attempt but recover.

    Killing the pool takes the innocents' workers with it; their failures
    are collateral (plain RuntimeError, no timeout event) and the retry on
    the rebuilt pool completes them.
    """
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_values(
                pool,
                [HangOnce(tmp_path / "hung.flag", 0), 1, 2, 3],
                max_attempts=3,
                timeout_s=0.75,
            )
    assert results_of(results) == [0, 1, 2, 3]
    # exactly one shard actually timed out; the others were collateral
    assert obs.counter_value("pool.task_timeouts") == 1.0
    assert len(log.by_kind(obs_events.TASK_TIMEOUT)) == 1
    publish_events(log)


def test_no_deadline_means_no_watchdog_overhead():
    """Without ``timeout_s`` the dispatch loop blocks until tasks settle."""
    with WorkerPool(2) as pool:
        results = run_values(pool, [0, 1], timeout_s=None)
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


# ----------------------------------------------------------------------
# a killer never takes the caller down
# ----------------------------------------------------------------------
KILLER_SCRIPT = textwrap.dedent(
    """
    import functools, os
    from repro.engine import RunFailure, run_many

    killer, healthy = run_many(
        [functools.partial(os._exit, 17), functools.partial(abs, -1)],
        workers=2,
        max_attempts=3,
        retry_backoff_s=0.0,
        timeout_s=30.0,
    )
    assert isinstance(killer, RunFailure), killer
    assert killer.attempts == 3, killer
    assert healthy.result == 1, healthy
    print("survived")
    """
)


def test_a_timed_killer_fails_without_killing_the_caller():
    """A spec that always ``os._exit``s, run with ``timeout_s``, comes back
    as a RunFailure and the calling process exits normally: no attempt
    runs in the coordinator, where the exit would take it down."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", KILLER_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "survived"
