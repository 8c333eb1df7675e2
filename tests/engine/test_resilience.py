"""Regression tests: ``run_many`` survives dying workers and bad specs.

A killed worker process breaks the whole ``ProcessPoolExecutor``; the
suite must come back with per-spec results anyway — retried where the
spec was an innocent bystander, a structured :class:`RunFailure` where it
kept crashing.  Faults are picklable callables; one that should fire
only once keeps its flag on the filesystem, because the retry lands in a
fresh worker.  Hangs live in ``test_watchdog.py``.
"""

import os
import random

import pytest

from conftest import make_demand, make_runtime_parts, publish_events
from repro import obs
from repro.engine import RunArtifacts, RunFailure, ScenarioSpec, run_many
from repro.engine import parallel
from repro.engine.parallel import WorkerPool, _worker_barrier
from repro.obs import events as obs_events


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
def well_behaved():
    return "ok"


def kill_worker_hard():
    """Die the way a real casualty dies: no exception, no cleanup."""
    os._exit(17)


class KillOnce:
    """Kills the first worker that runs it, succeeds afterwards.

    The flag lives on the filesystem because the retry lands in a *new*
    forked worker: process memory resets, the file survives.
    """

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def __call__(self):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("died")
            os._exit(17)
        return "recovered"


class AlwaysRaises:
    def __call__(self):
        raise ValueError("deliberate failure")


class RaiseOnce:
    """Emits a fault event and raises on its first run, then returns."""

    def __init__(self, flag_path, value):
        self.flag_path = str(flag_path)
        self.value = value

    def __call__(self):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("raised")
            obs.emit(obs_events.FAULT_INJECTION, source="raise-once")
            raise RuntimeError("first attempt raises")
        return self.value


class EmitMany:
    """Returns ``value`` after emitting ``n_events`` events, so its
    telemetry bundle is pathologically large."""

    def __init__(self, value, n_events):
        self.value = value
        self.n_events = n_events

    def __call__(self):
        for index in range(self.n_events):
            obs.emit(obs_events.FAULT_INJECTION, source="payload", index=index)
        return self.value


def _scenario_spec():
    fleet, conversion, _, _ = make_runtime_parts()
    return ScenarioSpec(
        mode="pre", fleet=fleet, demand=make_demand(), conversion=conversion
    )


# ----------------------------------------------------------------------
# worker death
# ----------------------------------------------------------------------
def test_run_many_survives_a_worker_killed_mid_suite(tmp_path):
    """One spec kills its worker once; the suite still returns everything."""
    specs = [
        _scenario_spec(),
        KillOnce(tmp_path / "died.flag"),
        well_behaved,
    ]
    results = run_many(specs, workers=2, retry_backoff_s=0.0)
    assert len(results) == 3
    assert isinstance(results[0], RunArtifacts)
    assert results[0].result.name == "pre"
    assert isinstance(results[1], RunArtifacts)
    assert results[1].result == "recovered"
    assert isinstance(results[2], RunArtifacts)
    assert results[2].result == "ok"
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0


def test_run_many_reports_a_persistent_killer_as_run_failure():
    specs = [well_behaved, kill_worker_hard, well_behaved]
    results = run_many(
        specs, workers=2, max_attempts=2, retry_backoff_s=0.0
    )
    assert len(results) == 3
    # The innocent bystanders survive (possibly via retry) …
    assert results[0].result == "ok"
    assert results[2].result == "ok"
    # … and the killer comes back as a structured failure, not a crash.
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 2
    assert failure.spec is kill_worker_hard
    assert failure.result is None
    assert failure.error_type and failure.error


def test_scenario_kill_recovers_by_retry(tmp_path):
    """Under ``timeout_s`` the dispatch loop waits on deadlines, not on
    every task; a worker killed mid-task there still costs one attempt,
    never the results."""
    specs = [well_behaved, KillOnce(tmp_path / "died.flag"), well_behaved]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                max_attempts=3,
                retry_backoff_s=0.0,
                timeout_s=30.0,
            )
    assert [entry.result for entry in results] == ["ok", "recovered", "ok"]
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    assert obs.counter_value("pool.task_timeouts") == 0.0
    publish_events(log)


def test_submit_resilient_retries_a_submit_that_found_a_broken_executor():
    """A worker death can break the executor *between* two submits of the
    same round; the racing submit then raises ``BrokenProcessPool``
    synchronously instead of returning a future.  ``submit_resilient``
    must absorb that: rebuild, resubmit, and hand back a working future.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = WorkerPool(2)
    try:
        real_submit = pool.submit
        calls = []
        rebuilds = []

        def submit_broken_once(fn, /, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 1:
                raise BrokenProcessPool("executor died before dispatch")
            return real_submit(fn, *args, **kwargs)

        pool.submit = submit_broken_once
        future = pool.submit_resilient(
            _worker_barrier, 7, on_rebuild=lambda: rebuilds.append(True)
        )
        assert future.result() == 7
        assert len(calls) == 2
        assert rebuilds == [True]
    finally:
        pool.submit = real_submit
        pool.shutdown()


def test_rebuild_if_broken_spares_a_healthy_executor():
    """``rebuild_if_broken`` must only tear down an executor that really
    broke — a fresh one swapped in mid-round keeps its running tasks."""
    pool = WorkerPool(2)
    try:
        pool.warm()
        generation = pool.generation
        assert pool.rebuild_if_broken() is False
        assert pool.generation == generation

        future = pool.submit(kill_worker_hard)
        with pytest.raises(Exception):
            future.result()
        assert pool.rebuild_if_broken() is True
        assert pool.submit(_worker_barrier, 3).result() == 3
        assert pool.generation == generation + 1
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# plain exceptions (serial and parallel)
# ----------------------------------------------------------------------
def test_scenario_exception_retried_to_success(tmp_path):
    """Worker-raised exceptions burn attempts, not results, and each failed
    attempt's telemetry still reaches the coordinator."""
    expected = [66.0, 210.0, 354.0, 498.0]
    specs = [
        RaiseOnce(tmp_path / f"raised-{index}.flag", value)
        for index, value in enumerate(expected)
    ]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                max_attempts=2,
                retry_backoff_s=0.0,
                timeout_s=30.0,
            )
    assert [entry.result for entry in results] == expected
    assert obs.counter_value("pool.tasks_failed") == 4.0  # one per shard
    assert len(log.by_kind(obs_events.FAULT_INJECTION)) == 4
    publish_events(log)


def test_scenario_oversized_bundle_survives_the_merge():
    """A pathologically large telemetry bundle still ships and merges."""
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                [EmitMany(0, 2000), EmitMany(1, 0)],
                workers=2,
                pool=pool,
                retry_backoff_s=0.0,
                timeout_s=30.0,
            )
    assert [entry.result for entry in results] == [0, 1]
    payload = [
        event
        for event in log.by_kind(obs_events.FAULT_INJECTION)
        if event.source == "payload"
    ]
    assert len(payload) == 2000
    publish_events(log)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_many_wraps_raising_specs_without_sinking_the_suite(workers):
    specs = [well_behaved, AlwaysRaises(), well_behaved]
    results = run_many(
        specs, workers=workers, max_attempts=2, retry_backoff_s=0.0
    )
    assert results[0].result == "ok"
    assert results[2].result == "ok"
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.error_type == "ValueError"
    assert "deliberate failure" in failure.error
    assert failure.attempts == 2


def test_scenario_permanent_exception_exhausts_cleanly():
    """An exception outlasting every retry under ``timeout_s`` yields a
    structured RunFailure; it is not a timeout, and the healthy specs keep
    their results."""
    specs = [well_behaved, AlwaysRaises(), well_behaved]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                max_attempts=2,
                retry_backoff_s=0.0,
                timeout_s=30.0,
            )
    assert results[0].result == "ok" and results[2].result == "ok"
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 2
    assert failure.error_type == "ValueError"
    assert obs.counter_value("pool.tasks_failed") == 2.0
    assert obs.counter_value("pool.task_timeouts") == 0.0
    publish_events(log)


def test_run_many_validates_retry_parameters():
    with pytest.raises(ValueError, match="max_attempts"):
        run_many([well_behaved], max_attempts=0)
    with pytest.raises(ValueError, match="backoff"):
        run_many([well_behaved], retry_backoff_s=-1.0)
    with pytest.raises(ValueError, match="timeout_s"):
        run_many([well_behaved], timeout_s=0.0)


def test_callable_specs_wrap_plain_return_values():
    [artifacts] = run_many([well_behaved])
    assert isinstance(artifacts, RunArtifacts)
    assert artifacts.spec is well_behaved
    assert artifacts.result == "ok"


# ----------------------------------------------------------------------
# decorrelated-jitter backoff
# ----------------------------------------------------------------------
def test_backoff_zero_base_never_sleeps():
    rng = random.Random(0)
    assert parallel._decorrelated_backoff(0.0, 0.0, rng) == 0.0
    assert parallel._decorrelated_backoff(-1.0, 5.0, rng) == 0.0


def test_backoff_stays_within_decorrelated_bounds():
    rng = random.Random(1234)
    base, previous = 0.1, 0.1
    for _ in range(200):
        delay = parallel._decorrelated_backoff(base, previous, rng)
        assert base <= delay <= max(base, previous * 3)
        assert delay <= parallel.MAX_RETRY_BACKOFF_S
        previous = max(delay, base)


def test_backoff_is_capped():
    rng = random.Random(7)
    for _ in range(50):
        delay = parallel._decorrelated_backoff(10.0, 1e9, rng)
        assert 10.0 <= delay <= parallel.MAX_RETRY_BACKOFF_S


def test_backoff_varies_across_draws():
    rng = random.Random(99)
    draws = {
        round(parallel._decorrelated_backoff(0.5, 2.0, rng), 6) for _ in range(32)
    }
    assert len(draws) > 1  # jitter, not a constant schedule
