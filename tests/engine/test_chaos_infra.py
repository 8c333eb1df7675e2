"""Deterministic infra fault injection: spec parsing plus the scenario suite.

The scenario suite is the acceptance test of the failure-domain layer:
for every fault kind the injector knows (`kill`, `hang`, `slow`,
`exception`, `oversized_bundle`), a pooled ``run_many`` batch running
under a :class:`TaskDeadline` must

* complete in bounded wall time,
* return results bit-identical to a fault-free serial run,
* leak no ``/dev/shm`` entries, and
* emit the corresponding ``pool.*`` telemetry.

Faults are configured through ``REPRO_INFRA_FAULTS`` and armed only in
pool workers, so the in-process recovery paths (retry-to-inline,
quarantine, degradation) are fault-free by construction.

When ``REPRO_INFRA_EVENTS`` names a file, every scenario appends its
recorded event log there as JSON Lines — CI uploads that file as the
chaos-run artifact.
"""

import os
import time

import pytest

from repro import obs
from repro.engine import chaos_infra
from repro.engine.chaos_infra import (
    FAULTS_ENV,
    InfraFault,
    InjectedFault,
    parse_faults,
)
from repro.engine.deadline import TaskDeadline
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events

#: Appended to by every scenario when ``REPRO_INFRA_EVENTS`` is set.
EVENTS_ENV = "REPRO_INFRA_EVENTS"


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    obs.reset_report()
    chaos_infra.deactivate()
    yield
    obs.reset_metrics()
    obs.reset_report()
    chaos_infra.deactivate()


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = set(os.listdir("/dev/shm"))
    yield
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def publish(log):
    """Append a scenario's event log to the CI artifact file, if configured."""
    path = os.environ.get(EVENTS_ENV, "").strip()
    if not path:
        return
    text = log.to_jsonl()
    if text:
        with open(path, "a") as handle:
            handle.write(text + "\n")


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
class ReturnValue:
    """A zero-arg run_many spec returning ``value`` (picklable instance)."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


# ----------------------------------------------------------------------
# spec parsing and matching
# ----------------------------------------------------------------------
def test_parse_single_object_and_list():
    (fault,) = parse_faults('{"kind": "kill", "shards": [1], "times": 2}')
    assert fault == InfraFault(kind="kill", shards=(1,), times=2)
    faults = parse_faults(
        '[{"kind": "hang", "duration_s": 9.0}, {"kind": "exception"}]'
    )
    assert [fault.kind for fault in faults] == ["hang", "exception"]
    assert parse_faults("") == ()
    assert parse_faults("   ") == ()


@pytest.mark.parametrize(
    "text",
    [
        '"kill"',  # bare string, not an object
        '[{"kind": "nope"}]',  # unknown kind
        '{"kind": "kill", "times": 0}',
        '{"kind": "slow", "duration_s": -1}',
        '{"kind": "kill", "probability": 0}',
        "[42]",
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_faults(text)


def test_configured_raises_on_typoed_spec(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "oops"}')
    with pytest.raises(ValueError):
        chaos_infra.configured()
    monkeypatch.delenv(FAULTS_ENV)
    assert not chaos_infra.configured()


def test_matches_is_a_pure_function_of_shard_and_attempt():
    fault = InfraFault(kind="exception", shards=(1, 3), times=2)
    assert fault.matches(1, 1) and fault.matches(3, 2)
    assert not fault.matches(2, 1)  # wrong shard
    assert not fault.matches(1, 3)  # past the times window
    # repeated evaluation never changes the answer
    assert all(fault.matches(1, 1) for _ in range(10))


def test_probability_draw_is_deterministic():
    fault = InfraFault(kind="exception", probability=0.5, seed=42, times=1000)
    draws = [fault.matches(shard, 1) for shard in range(200)]
    assert draws == [
        InfraFault(kind="exception", probability=0.5, seed=42, times=1000).matches(
            shard, 1
        )
        for shard in range(200)
    ]
    fired = sum(draws)
    assert 0 < fired < 200  # the coin actually flips both ways


def test_activate_and_inject_are_process_local(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "exception", "times": 1}')
    assert chaos_infra._ACTIVE == ()
    chaos_infra.inject(0, 1)  # unarmed: no-op
    chaos_infra.activate()
    with pytest.raises(InjectedFault):
        chaos_infra.inject(0, 1)
    chaos_infra.inject(0, 2)  # past the times window
    chaos_infra.deactivate()
    chaos_infra.inject(0, 1)  # disarmed again


# ----------------------------------------------------------------------
# the scenario suite
# ----------------------------------------------------------------------
def run_values(pool, values, **kwargs):
    """Pooled ``run_many`` over zero-arg specs; their return values.

    Asserts no spec ended as a :class:`RunFailure` (whose ``result`` would
    read as ``None``).
    """
    results = run_many(
        [ReturnValue(value) for value in values],
        workers=2,
        pool=pool,
        retry_backoff_s=0.0,
        **kwargs,
    )
    assert not any(isinstance(entry, RunFailure) for entry in results)
    return [entry.result for entry in results]


def test_scenario_kill_recovers_by_retry(monkeypatch):
    """A worker killed mid-task costs one attempt, never the results."""
    expected = [index * 1.5 for index in range(4)]
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "kill", "shards": [1], "times": 1}')
    deadline = TaskDeadline(hard_timeout_s=30.0, speculative=False)
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_values(
                pool, expected, max_attempts=3, deadline=deadline
            )
    assert results == expected
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    publish(log)


def test_scenario_hang_bounded_by_hard_deadline(monkeypatch):
    """A hung worker is killed at the hard deadline; the retry recovers."""
    expected = [64.0, 64.0]
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "hang", "shards": [0], "times": 1, "duration_s": 60.0}',
    )
    deadline = TaskDeadline(hard_timeout_s=1.0, speculative=False)
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_values(
                pool, expected, max_attempts=3, deadline=deadline
            )
        elapsed = time.perf_counter() - started
    assert results == expected
    assert elapsed < 30.0  # nowhere near the 60s hang
    assert obs.counter_value("pool.task_timeouts") >= 1.0
    assert log.by_kind(obs_events.TASK_TIMEOUT)
    publish(log)


def test_scenario_slow_straggler_speculated_around(monkeypatch):
    """A slow worker is raced by a speculative twin; first result wins."""
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "slow", "shards": [1], "times": 1, "duration_s": 8.0}',
    )
    deadline = TaskDeadline(soft_timeout_s=0.3, speculative=True)
    specs = [ReturnValue(index * 10) for index in range(3)]
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = run_many(
                specs, workers=2, pool=pool, retry_backoff_s=0.0, deadline=deadline
            )
            elapsed = time.perf_counter() - started
            pool.kill()  # don't join the worker still sleeping off the fault
    assert [artifact.result for artifact in results] == [0, 10, 20]
    assert elapsed < 6.0  # did not wait out the 8s slow fault
    assert obs.counter_value("pool.speculative_dispatched") >= 1.0
    assert obs.counter_value("pool.speculative_wins") >= 1.0
    assert log.by_kind(obs_events.SPECULATIVE_DISPATCH)
    publish(log)


def test_scenario_exception_retried_to_success(monkeypatch):
    """Worker-raised injected exceptions burn attempts, not results."""
    expected = [66.0, 210.0, 354.0, 498.0]
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "exception", "times": 1}')
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_values(
                pool,
                expected,
                max_attempts=2,
                deadline=TaskDeadline(speculative=False),
            )
    assert results == expected
    assert obs.counter_value("pool.tasks_failed") == 4.0  # one per shard
    assert log.by_kind(obs_events.FAULT_INJECTION)
    publish(log)


def test_scenario_oversized_bundle_survives_the_merge(monkeypatch):
    """A pathologically large telemetry bundle still ships and merges."""
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "oversized_bundle", "shards": [0], "times": 1,'
        ' "payload_events": 2000}',
    )
    specs = [ReturnValue(index) for index in range(2)]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(speculative=False),
            )
    assert [artifact.result for artifact in results] == [0, 1]
    payload = [
        event
        for event in log.by_kind(obs_events.FAULT_INJECTION)
        if event.source == "chaos_infra.payload"
    ]
    assert len(payload) == 2000
    publish(log)


def test_scenario_permanent_exception_exhausts_cleanly(monkeypatch):
    """A fault outlasting every retry yields a structured RunFailure."""
    monkeypatch.setenv(
        FAULTS_ENV, '{"kind": "exception", "shards": [1], "times": 99}'
    )
    specs = [ReturnValue(0), ReturnValue(1), ReturnValue(2)]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                max_attempts=2,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(speculative=False),
            )
    assert results[0].result == 0 and results[2].result == 2
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 2
    assert failure.error_type == "InjectedFault"
    publish(log)


def test_faults_never_fire_without_the_env(monkeypatch):
    """No spec, no injection wrapper: the fault-free path is untouched."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    with WorkerPool(2) as pool:
        results = run_values(pool, [8.0, 8.0])
    assert results == [8.0, 8.0]
