"""Parallel execution: :func:`run_many` over a persistent worker pool.

:func:`run_many` drives :class:`~repro.engine.spec.ScenarioSpec` /
:class:`~repro.engine.spec.ChaosSpec` lists (or zero-argument callables)
through worker processes.  It is the package's only pooled path: the plan
stages (scoring, placement, remapping) run in-process.

* **persistent pools** — :func:`get_pool` keeps one :class:`WorkerPool`
  alive per worker count for the life of the process, so workers are
  spawned once and reused by every subsequent ``run_many`` call (``fork``
  start method where available: workers inherit warm dataset caches
  instead of re-synthesizing them);
* **pinned worker threads** — each worker's initializer pins the BLAS /
  OpenMP thread-pool environment (``OMP_NUM_THREADS`` etc.) to
  :data:`DEFAULT_WORKER_THREADS`, so N workers do not oversubscribe the
  host with N × M library threads.

Worker death does not sink a suite.  A killed worker breaks the whole
executor (every outstanding future raises ``BrokenProcessPool``), so the
pool is rebuilt and the unfinished specs are retried — with decorrelated-
jitter backoff between rounds so resubmission storms after a rebuild do not
synchronize — up to ``max_attempts`` tries per spec; the backoff sleep only
ever runs when another attempt follows — a spec out of attempts fails
immediately as a :class:`RunFailure` in its slot of the result list.
``workers <= 1`` or a single spec short-circuits to a plain serial loop
that never touches a pool, unless ``timeout_s`` is set: only a worker can
be killed, so a timed batch always runs pooled.

A worker *hang* does not sink a suite either.  With ``timeout_s`` set, the
dispatch loop blocks only until the earliest outstanding task's deadline;
a task still pending then gets the whole pool SIGKILLed (a hung worker
never honours a graceful shutdown), fails that attempt with
:class:`TaskTimeoutError`, and retries on a rebuilt executor like any
other casualty.  Every attempt of a pooled batch runs in a worker process:
the coordinator never executes a spec itself, so no failure a spec causes
can hang or kill the calling process.

The pool is not an observability boundary: unless ``REPRO_OBS_CAPTURE=0``
disables it, every pooled task runs under worker-side telemetry capture
(:mod:`repro.obs.remote`) and ships its spans, metric deltas, and events
back with its result; the coordinator merges them into its live tracer,
registry, and event log, records pool health metrics (dispatch/completion
counters, roundtrip/execution/queue latency histograms, worker deaths and
rebuilds, timeouts), and feeds each batch into the unified run report
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from .spec import ChaosSpec, ScenarioSpec
from .state import RunArtifacts

#: Tries per spec before it is written off as a :class:`RunFailure`.
DEFAULT_MAX_ATTEMPTS = 3

#: Base delay between retry rounds (the floor of the jittered sleep).
DEFAULT_RETRY_BACKOFF_S = 0.25

#: Ceiling on a single decorrelated-jitter backoff sleep.
MAX_RETRY_BACKOFF_S = 30.0

#: Thread-pool size pinned into every worker (override with the
#: ``REPRO_WORKER_THREADS`` environment variable).  One thread per worker
#: is the right default: the pool already owns the cores, and letting each
#: worker's BLAS spin up ``os.cpu_count()`` threads of its own
#: oversubscribes the host N×M.
DEFAULT_WORKER_THREADS = 1

#: Environment knobs the worker initializer pins.  Covers OpenMP, the
#: common BLAS builds numpy links against, and numexpr — the libraries
#: that auto-size their pools to the whole machine.
WORKER_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class TaskTimeoutError(RuntimeError):
    """A pooled task exceeded its hard deadline and was killed.

    Raised coordinator-side by the watchdog (the hung worker never raises
    anything — it is SIGKILLed), so it carries the dispatch context the
    worker could not report: the stage label, the shard id, which attempt
    timed out, and the deadline that was missed.
    """

    def __init__(
        self, label: str, shard_id: int, attempt: int, timeout_s: float
    ) -> None:
        super().__init__(
            f"task {label!r} shard {shard_id} attempt {attempt} exceeded "
            f"its hard deadline of {timeout_s:g}s"
        )
        self.label = label
        self.shard_id = shard_id
        self.attempt = attempt
        self.timeout_s = timeout_s


@dataclass
class RunFailure:
    """One spec's structured failure after every retry was exhausted.

    Occupies the spec's slot in :func:`run_many`'s result list, so callers
    always get one entry per spec, in spec order — filter with
    ``isinstance(entry, RunFailure)`` (or check :attr:`RunArtifacts.result`)
    to separate the casualties from the survivors.
    """

    spec: Any
    error_type: str
    error: str
    attempts: int

    @property
    def result(self) -> None:
        """Mirror of :attr:`RunArtifacts.result`, always ``None``."""
        return None


def execute(spec: Any) -> RunArtifacts:
    """Run one spec (scenario, chaos-harness, or callable) and wrap it.

    Module-level so it pickles for worker processes.  Zero-argument
    callables are the escape hatch for custom workloads (and for the
    pool's fault tests): the callable runs as-is, and its return value
    is wrapped in :class:`RunArtifacts` unless it already is one.
    """
    if isinstance(spec, ScenarioSpec):
        from .core import Engine

        return Engine.from_spec(spec).run(spec)
    if isinstance(spec, ChaosSpec):
        # Lazy: the chaos harness imports the engine, not vice versa.
        from ..faults.harness import run_chaos_scenario
        from ..obs import events as obs_events

        outcome = run_chaos_scenario(spec.resolved_scenario(), **spec.run_kwargs())
        return RunArtifacts(
            spec=spec,
            result=outcome,
            events=obs_events.get_event_log(),
        )
    if callable(spec):
        outcome = spec()
        if isinstance(outcome, RunArtifacts):
            return outcome
        return RunArtifacts(spec=spec, result=outcome)
    raise TypeError(f"cannot execute spec of type {type(spec).__name__}")


# ----------------------------------------------------------------------
# worker-side plumbing
# ----------------------------------------------------------------------
def worker_thread_count() -> int:
    """The thread-pool size workers pin (env override, floor 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_WORKER_THREADS", "")))
    except ValueError:
        return DEFAULT_WORKER_THREADS


def _init_worker(n_threads: int) -> None:
    """Pool initializer: pin library thread pools inside the worker.

    Runs once per worker process, before any task.  Sets the standard
    thread-count environment variables so any library initialised after
    this point sizes itself to ``n_threads``, and asks already-loaded
    pools to shrink via ``threadpoolctl`` when that package is available
    (forked workers inherit the parent's BLAS state, which env vars alone
    cannot retroactively change).
    """
    for name in WORKER_THREAD_ENV_VARS:
        os.environ[name] = str(n_threads)
    try:  # best-effort: not a baked-in dependency
        import threadpoolctl

        threadpoolctl.threadpool_limits(n_threads)
    except Exception:
        pass


def _execute_logged(spec: Any) -> RunArtifacts:
    """:func:`execute` under a fresh event log when recording is active.

    Persistent workers outlive many tasks, so an event log inherited at
    fork time must not accumulate every task's events for the life of the
    worker: each task's artifacts carry only its own events.
    """
    from ..obs import events as obs_events

    if obs_events.get_event_log() is None:
        return execute(spec)
    with obs_events.recording():
        return execute(spec)


def _pool_task(spec: Any, index: int, attempt: int, capture: bool):
    """The worker-side task: run one spec, optionally captured.

    With ``capture`` the call runs under
    :func:`repro.obs.remote.run_captured` and the worker ships
    ``(artifacts, bundle)``.  The capture installs a fresh per-task event
    log itself, so a captured spec calls :func:`execute` directly —
    nesting another recording inside it would swallow the spec's events
    before the bundle shipped.
    """
    if not capture:
        return _execute_logged(spec)
    from ..obs import remote as obs_remote

    return obs_remote.run_captured(execute, index, "run.spec", attempt, (spec,))


def _bundle_stats(bundle: Any, roundtrip_s: float, *, ok: bool = True):
    """Coordinator-side: a run-report row for one shipped bundle."""
    from ..obs.report import TaskStats

    return TaskStats(
        shard_id=bundle.shard_id,
        worker_pid=bundle.worker_pid,
        attempt=bundle.attempt,
        exec_s=bundle.wall_s,
        cpu_s=bundle.cpu_s,
        roundtrip_s=roundtrip_s,
        queue_s=max(0.0, roundtrip_s - bundle.wall_s),
        ok=ok,
    )


def _decorrelated_backoff(
    base: float,
    previous: float,
    rng: random.Random,
    cap: float = MAX_RETRY_BACKOFF_S,
) -> float:
    """One decorrelated-jitter retry delay: uniform in ``[base, 3·prev]``.

    The classic "decorrelated jitter" schedule: each sleep is drawn from
    ``[base, previous * 3]`` and capped, so concurrent retriers that broke
    at the same instant (every task in flight when an executor dies breaks
    at once) spread out instead of resubmitting in lockstep, while the
    expected delay still grows geometrically with consecutive failures.
    ``base <= 0`` disables the backoff entirely (returns ``0.0``).
    """
    if base <= 0:
        return 0.0
    return min(cap, rng.uniform(base, max(base, previous * 3)))


class _Backoff:
    """The retry schedule every :func:`run_many` path sleeps by.

    Successive :meth:`next` calls draw :func:`_decorrelated_backoff`
    delays, each seeded by the one before it (the first by ``base``).
    """

    def __init__(self, base: float) -> None:
        self.base = base
        self.previous = base
        self._rng = random.Random()

    def next(self) -> float:
        delay = _decorrelated_backoff(self.base, self.previous, self._rng)
        self.previous = max(delay, self.base)
        return delay


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A process pool spawned once and reused across calls.

    Wraps a ``ProcessPoolExecutor`` whose workers pin their thread pools at
    startup (:func:`_init_worker`).  The executor is created lazily on
    first submit and rebuilt on demand after a ``BrokenProcessPool`` —
    :attr:`generation` counts executor builds, so callers (and tests) can
    observe that back-to-back batches reused one set of workers.
    """

    def __init__(
        self,
        workers: int,
        *,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        worker_threads: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        if mp_context is None:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - fork unavailable (non-POSIX)
                mp_context = multiprocessing.get_context()
        self._mp_context = mp_context
        self._worker_threads = (
            worker_threads if worker_threads is not None else worker_thread_count()
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Number of executors built over this pool's lifetime.
        self.generation = 0

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._executor is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context,
                initializer=_init_worker,
                initargs=(self._worker_threads,),
            )
            self.generation += 1
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any):
        """Submit one task, building the executor on first use."""
        return self._ensure_executor().submit(fn, *args, **kwargs)

    def submit_resilient(
        self,
        fn: Callable[..., Any],
        /,
        *args: Any,
        on_rebuild: Optional[Callable[[], None]] = None,
    ):
        """Submit, rebuilding first when a prior task's death broke the pool.

        A worker death breaks the whole executor *asynchronously*, so a
        submit racing that death raises ``BrokenProcessPool`` synchronously
        instead of returning a future.  The task never reached a worker —
        nothing ran, nothing can run twice — so the right response is to
        rebuild and resubmit on the fresh executor rather than let the
        exception escape and strand a broken executor in the persistent
        pool.  Still bounded: every break burns an attempt for each task
        that was in flight on the dead executor, so a persistent killer
        exhausts ``max_attempts`` like any other failure.
        """
        from concurrent.futures.process import BrokenProcessPool

        while True:
            try:
                return self.submit(fn, *args)
            except BrokenProcessPool:
                if on_rebuild is not None:
                    on_rebuild()
                self.rebuild()

    def warm(self) -> None:
        """Spawn the workers now and wait for every initializer to finish.

        One no-op barrier task per worker forces the executor to actually
        fork/spawn, so the first real batch is not charged the startup
        cost.  Forking *after* the parent has warmed its dataset caches
        also hands every worker those caches for free.
        """
        futures = [self.submit(_worker_barrier, index) for index in range(self.workers)]
        wait(futures)

    def rebuild(self) -> None:
        """Discard a (possibly broken) executor; the next submit re-forks."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def rebuild_if_broken(self) -> bool:
        """Rebuild only when the live executor really is broken.

        A resilient submit may already have swapped in a fresh executor
        this round; tearing that one down again would cancel the healthy
        tasks it is running.  Returns whether a rebuild happened.
        """
        executor = self._executor
        if executor is None or not getattr(executor, "_broken", False):
            return False
        self.rebuild()
        return True

    def kill(self) -> None:
        """SIGKILL the workers and discard the executor without waiting.

        :meth:`rebuild`'s graceful ``shutdown(wait=True)`` joins the
        workers — which never returns when one of them is *hung* rather
        than dead.  The timeout watchdog therefore uses this path: kill
        every worker process outright, then tear the executor down without
        waiting on anything.  The next submit re-forks as usual.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-reaped worker
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the workers.  The pool object stays reusable (lazy respawn)."""
        self.rebuild()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# the dispatch/retry driver
# ----------------------------------------------------------------------
class _StageDriver:
    """The dispatch loop behind a pooled :func:`run_many` batch.

    One instance drives one batch: it owns the per-spec attempt counts,
    the retry rounds (with decorrelated-jitter backoff and one-at-a-time
    isolation after an executor break), the telemetry bookkeeping, and —
    when ``timeout_s`` is set — the watchdog.  The wait blocks until the
    earliest outstanding task's deadline (unbounded without a timeout); a
    task still pending then gets the whole pool SIGKILLed, fails with
    :class:`TaskTimeoutError`, and retries on a rebuilt executor.  Tasks
    that were merely in flight on the killed pool fail too and burn an
    attempt, as they would in any executor break.

    A spec that exhausts its attempts holds a :class:`RunFailure` in its
    result slot.  Every attempt runs in a worker: the coordinator never
    executes a spec itself.
    """

    label = "run.many"

    def __init__(
        self,
        pool: WorkerPool,
        specs: List[Any],
        *,
        do_capture: bool,
        max_attempts: int,
        retry_backoff_s: float,
        timeout_s: Optional[float],
    ) -> None:
        self.pool = pool
        self.specs = specs
        self.do_capture = do_capture
        self.max_attempts = max_attempts
        self.timeout_s = timeout_s

        n_tasks = len(specs)
        self.results: List[Any] = [None] * n_tasks
        self.attempts = [0] * n_tasks
        self.failed: List[int] = []
        self.bundles: List[Any] = []
        self.stats: List[Any] = []
        self.started_at = time.perf_counter()
        self._backoff = _Backoff(retry_backoff_s)

    # ------------------------------------------------------------------
    def run(self) -> List[Any]:
        pending = list(range(len(self.specs)))
        round_index = 0
        isolate = False
        while pending:
            self.failed = []
            # After a round in which the executor died, retry the survivors
            # one at a time: a repeat killer then only breaks its own
            # attempt, so an innocent task can lose at most one attempt as
            # collateral however persistent the killer is.
            groups = [[index] for index in pending] if isolate else [pending]
            round_broken = False
            for group in groups:
                round_broken = self._run_group(group, round_index) or round_broken
            isolate = round_broken
            pending = [
                index
                for index in sorted(set(self.failed))
                if self.attempts[index] < self.max_attempts
            ]
            if pending:
                # Only sleep when a retry round actually follows: a task out
                # of attempts has already been settled and waiting would
                # delay the caller for nothing.
                time.sleep(self._backoff.next())
                round_index += 1
        if self.do_capture:
            self._finish()
        return self.results

    def _finish(self) -> None:
        """Merge shipped telemetry and record the batch in the run report."""
        from ..obs import metrics as obs_metrics
        from ..obs import remote as obs_remote
        from ..obs import report as obs_report

        obs_remote.merge_bundles(self.bundles)
        obs_metrics.set_gauge("pool.workers", self.pool.workers)
        obs_metrics.set_gauge("pool.generation", self.pool.generation)
        obs_report.record_stage(
            self.label,
            workers=self.pool.workers,
            wall_s=time.perf_counter() - self.started_at,
            tasks=self.stats,
            generation=self.pool.generation,
        )

    # ------------------------------------------------------------------
    def _run_group(self, group: List[int], round_index: int) -> bool:
        """Dispatch one group of pooled tasks and settle every one of them.

        Returns whether the executor broke (worker death or watchdog kill)
        while the group ran, so the next round can isolate.
        """
        from ..obs import metrics as obs_metrics

        def on_submit_rebuild() -> None:
            if self.do_capture:
                obs_metrics.count("pool.worker_deaths")
                obs_metrics.count("pool.rebuilds")

        future_of: Dict[Any, int] = {}
        dispatched_at: Dict[Any, float] = {}
        for index in group:
            self.attempts[index] += 1
            future = self.pool.submit_resilient(
                _pool_task,
                self.specs[index],
                index,
                self.attempts[index],
                self.do_capture,
                on_rebuild=on_submit_rebuild,
            )
            future_of[future] = index
            dispatched_at[future] = time.perf_counter()
        if self.do_capture:
            obs_metrics.count("pool.tasks_dispatched", len(group))
            if round_index > 0:
                obs_metrics.count("pool.tasks_retried", len(group))

        broken = False
        outstanding = set(future_of)
        while outstanding:
            timeout = None
            if self.timeout_s is not None:
                earliest = min(dispatched_at[future] for future in outstanding)
                timeout = max(0.0, earliest + self.timeout_s - time.perf_counter())
            done, outstanding = wait(
                outstanding, timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                index = future_of[future]
                try:
                    outcome = future.result()
                except BaseException as error:  # noqa: BLE001
                    # BrokenProcessPool lands here for *every* future that
                    # shared the dead executor; record the attempt and let
                    # the retry rounds sort survivors out.  A captured
                    # failure still ships its telemetry, attached to the
                    # exception itself.
                    broken = broken or _pool_is_broken(error)
                    self._record_failure(index, error, dispatched_at[future])
                    continue
                self._record_success(index, outcome, dispatched_at[future])
            if outstanding and self._kill_overdue(
                outstanding, future_of, dispatched_at
            ):
                # The pool is dead and every outstanding task has been
                # failed; nothing left can ever be collected.
                outstanding = set()
                broken = True
            # No early exit on ``broken``: a dead executor resolves every
            # future it still holds (with BrokenProcessPool), and futures
            # resubmitted on a fresh executor mid-round finish normally —
            # condemning them here would burn attempts on tasks that are
            # still running fine.
        if broken and self.pool.rebuild_if_broken() and self.do_capture:
            obs_metrics.count("pool.worker_deaths")
            obs_metrics.count("pool.rebuilds")
        return broken

    # ------------------------------------------------------------------
    def _record_success(
        self, index: int, outcome: Any, dispatched_time: float
    ) -> None:
        from ..obs import metrics as obs_metrics

        if not self.do_capture:
            self.results[index] = outcome
            return
        result, bundle = outcome
        self.results[index] = result
        roundtrip_s = time.perf_counter() - dispatched_time
        self.bundles.append(bundle)
        self.stats.append(_bundle_stats(bundle, roundtrip_s))
        obs_metrics.count("pool.tasks_completed")
        obs_metrics.observe("pool.task_roundtrip_s", roundtrip_s)
        obs_metrics.observe("pool.task_exec_s", bundle.wall_s)
        obs_metrics.observe(
            "pool.task_queue_s", max(0.0, roundtrip_s - bundle.wall_s)
        )

    def _record_failure(
        self, index: int, error: BaseException, dispatched_time: float
    ) -> None:
        """Mark ``index`` for retry and hold its failure in the result slot."""
        from ..obs import metrics as obs_metrics
        from ..obs import remote as obs_remote

        self.failed.append(index)
        self.results[index] = _failure(
            self.specs[index], error, self.attempts[index]
        )
        if not self.do_capture:
            return
        obs_metrics.count("pool.tasks_failed")
        bundle = obs_remote.bundle_from_error(error)
        if bundle is not None:
            self.bundles.append(bundle)
            self.stats.append(
                _bundle_stats(
                    bundle, time.perf_counter() - dispatched_time, ok=False
                )
            )

    def _kill_overdue(
        self,
        outstanding: Set[Any],
        future_of: Dict[Any, int],
        dispatched_at: Dict[Any, float],
    ) -> bool:
        """Kill the pool when any outstanding task has blown ``timeout_s``.

        ``ProcessPoolExecutor`` offers no per-task cancellation once a task
        is on a worker, and a *hung* worker never honours a graceful
        shutdown — so enforcement is pool-wide: SIGKILL every worker, fail
        the overdue tasks with :class:`TaskTimeoutError`, and fail the
        innocents that were merely in flight with a collateral error.  All
        of them retry on the rebuilt executor, subject to their remaining
        attempts.  Returns whether the pool was killed.
        """
        from ..obs import events as obs_events
        from ..obs import metrics as obs_metrics

        if self.timeout_s is None:
            return False
        now = time.perf_counter()
        in_order = sorted(outstanding, key=future_of.__getitem__)
        overdue = {
            future
            for future in in_order
            if now - dispatched_at[future] >= self.timeout_s
        }
        if not overdue:
            return False
        for future in in_order:
            index = future_of[future]
            if future in overdue:
                error: BaseException = TaskTimeoutError(
                    self.label, index, self.attempts[index], self.timeout_s
                )
                if self.do_capture:
                    obs_metrics.count("pool.task_timeouts")
                obs_events.emit(
                    obs_events.TASK_TIMEOUT,
                    severity="critical",
                    source=self.label,
                    shard=index,
                    attempt=self.attempts[index],
                    timeout_s=self.timeout_s,
                )
            else:
                error = RuntimeError(
                    f"task {self.label!r} shard {index} was in flight when "
                    f"the timeout watchdog killed the worker pool"
                )
            self._record_failure(index, error, dispatched_at[future])
        self.pool.kill()
        if self.do_capture:
            obs_metrics.count("pool.worker_deaths")
            obs_metrics.count("pool.rebuilds")
        return True


# ----------------------------------------------------------------------
# the process-wide persistent pools
# ----------------------------------------------------------------------
_POOLS: Dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The process-wide persistent pool for ``workers`` worker processes.

    Created on first request and kept for the life of the process (one
    pool per distinct worker count), so repeated ``run_many`` calls reuse
    warm workers instead of re-spawning.
    """
    if workers < 1:
        raise ValueError("a pool needs at least one worker")
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def warm_pool(workers: int) -> WorkerPool:
    """Spawn (or re-spawn) the persistent pool's workers right now."""
    pool = get_pool(workers)
    pool.warm()
    return pool


@atexit.register
def shutdown_pools() -> None:
    """Stop every persistent pool (atexit hook; callable from tests)."""
    for pool in _POOLS.values():
        pool.shutdown()


def _worker_barrier(index: int) -> int:
    """No-op task used by :meth:`WorkerPool.warm` to force spawning."""
    return index


# ----------------------------------------------------------------------
# run_many
# ----------------------------------------------------------------------
def run_many(
    specs: Sequence[Any],
    *,
    workers: int = 1,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    pool: Optional[WorkerPool] = None,
    timeout_s: Optional[float] = None,
) -> List[Any]:
    """Execute many specs, optionally across persistent worker processes.

    Results come back in spec order, one entry per spec: a
    :class:`RunArtifacts` on success, a :class:`RunFailure` once a spec has
    failed ``max_attempts`` times.  ``workers <= 1`` — or a batch of one —
    short-circuits (when no ``timeout_s`` is set) to a serial loop in this
    process that creates no pool at all (cheapest for small batches and the
    only option on single-CPU hosts); otherwise the batch runs on the process-wide persistent pool
    for ``workers`` (or the explicit ``pool``), spawning workers only on
    first use.

    A dead worker breaks the whole executor, so every spec still in flight
    counts one failed attempt, the executor is rebuilt, and the survivors
    are resubmitted after a decorrelated-jitter backoff — an innocent spec
    sharing a pool with a crashing one is retried, not condemned.  The
    retry round after a break runs its survivors one at a time, so a repeat
    killer burns only its own remaining attempts, never an innocent's.  A
    break that races the submission loop itself costs nothing: the submit
    raises instead of returning a future, and the spec — which never
    reached a worker — is resubmitted on a rebuilt executor without burning
    an attempt.  The backoff never runs after a final failure: once no spec
    has attempts left there is nothing to wait for.

    ``timeout_s`` bounds each attempt, counted from its submission to the
    executor (so it includes any wait behind other tasks of the batch):
    past it the pool is SIGKILLed and the attempt fails with
    :class:`TaskTimeoutError`, so a hung spec costs at most
    ``max_attempts × timeout_s`` plus backoff and re-forks.  Only a worker can be
    killed, so with ``timeout_s`` set even a batch of one, or
    ``workers <= 1``, runs on a pool (of at least one worker).  With
    ``timeout_s=None`` the loop blocks until every task settles.

    Pooled batches run under worker-side telemetry capture unless the
    ``REPRO_OBS_CAPTURE`` kill switch disables it: each spec's span
    subtree, metric deltas, and capture-level events ship back with its
    artifacts and merge into this process's live observability surfaces,
    the pool records its health metrics, and the batch lands in the run
    report (:mod:`repro.obs.report`) as a ``run.many`` stage.  The serial
    short-circuit records nothing — in-process runs are already fully
    observable.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if retry_backoff_s < 0:
        raise ValueError("retry_backoff_s cannot be negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    specs = list(specs)
    if not specs or (timeout_s is None and (workers <= 1 or len(specs) == 1)):
        return [_run_serial(spec, max_attempts, retry_backoff_s) for spec in specs]

    from ..obs import remote as obs_remote

    driver = _StageDriver(
        pool if pool is not None else get_pool(max(1, workers)),
        specs,
        do_capture=obs_remote.capture_enabled(),
        max_attempts=max_attempts,
        retry_backoff_s=retry_backoff_s,
        timeout_s=timeout_s,
    )
    return driver.run()


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _run_serial(spec: Any, max_attempts: int, retry_backoff_s: float) -> Any:
    """One spec in-process, with the same bounded retry + backoff.

    The backoff runs between attempts, never after the last one — the
    final failure returns immediately.
    """
    backoff = _Backoff(retry_backoff_s)
    for attempt in range(1, max_attempts + 1):
        try:
            return execute(spec)
        except Exception as error:  # noqa: BLE001
            failure = _failure(spec, error, attempt)
            if attempt < max_attempts:
                time.sleep(backoff.next())
    return failure


def _failure(spec: Any, error: BaseException, attempts: int) -> RunFailure:
    return RunFailure(
        spec=spec,
        error_type=type(error).__name__,
        error=str(error) or repr(error),
        attempts=attempts,
    )


def _pool_is_broken(error: BaseException) -> bool:
    """Did this exception take the whole executor down with it?"""
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(error, BrokenProcessPool)
