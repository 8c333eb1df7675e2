"""Per-task deadlines and failure-domain policy for the worker pool.

The worker pool behind :func:`~repro.engine.parallel.run_many` survives
worker *death* — a killed worker breaks the executor, the pool rebuilds,
tasks retry.  Worker *hangs* need more: an unbounded ``wait()`` lets one
stuck worker stall a batch forever.  For a
continuous control loop (the paper's system ran 24/7 against a production
fleet) bounded reaction time is a correctness property, not a tuning knob.

:class:`TaskDeadline` is the policy object that bounds completion under
partial failure.  It configures four independent failure domains, all
enforced by the dispatch driver in :mod:`repro.engine.parallel`:

* **hard deadline** — a task older than ``hard_timeout_s`` is declared
  dead: the watchdog kills the worker processes outright (a hung worker
  never honours a graceful shutdown), fails the attempt with
  :class:`TaskTimeoutError`, and retries on a rebuilt pool;
* **straggler speculation** — a task older than the straggler threshold
  (``soft_timeout_s``, or a quantile of the live ``pool.task_exec_s``
  histogram scaled by ``straggler_factor``, whichever is larger) gets a
  speculative duplicate dispatched; the first result wins and only the
  winner's telemetry merges, so results stay bit-identical;
* **poison-shard quarantine** — a shard whose attempts have killed or hung
  workers ``quarantine_after`` times is quarantined to in-process serial
  execution instead of condemning the pool again;
* **circuit breaker** — when infrastructure failures trip the stage-wide
  breaker (``degrade_min_failures`` failures *and* a
  ``degrade_failure_ratio`` failure rate), the whole stage degrades to
  serial in-process execution and a ``pool_degraded`` event is emitted.

A deadline reaches the pool three ways, most specific first: the
``deadline=`` parameter on :func:`~repro.engine.parallel.run_many`, the
process default installed by :func:`set_default_deadline` /
:class:`deadline_scope` (this is what the CLI ``--task-timeout`` flag
uses), and the ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_SOFT_TIMEOUT``
environment variables.  With none of them set the pool runs no
watchdog, no speculation and no quarantine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "HARD_TIMEOUT_ENV",
    "SOFT_TIMEOUT_ENV",
    "TaskDeadline",
    "TaskTimeoutError",
    "clear_default_deadline",
    "deadline_from_env",
    "deadline_scope",
    "get_default_deadline",
    "set_default_deadline",
]

#: Environment variable naming the hard per-task timeout in seconds.
HARD_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Environment variable naming the soft (straggler) timeout in seconds.
SOFT_TIMEOUT_ENV = "REPRO_TASK_SOFT_TIMEOUT"


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


@dataclass(frozen=True)
class TaskDeadline:
    """Failure-domain policy for one pooled stage (or a whole process).

    All fields have safe defaults; the two timeouts default to ``None``
    (disabled) so a bare ``TaskDeadline()`` enables only the structural
    protections (quarantine and the circuit breaker) that need no timing
    assumptions.
    """

    #: Straggler threshold floor in seconds: a task older than this is a
    #: speculation candidate.  ``None`` leaves speculation to the
    #: quantile-based threshold alone (which needs live histogram data).
    soft_timeout_s: Optional[float] = None

    #: Hard per-task deadline in seconds: past this the watchdog kills the
    #: worker processes and fails the attempt with :class:`TaskTimeoutError`.
    #: ``None`` disables the watchdog.
    hard_timeout_s: Optional[float] = None

    #: Percentile of the live ``pool.task_exec_s`` histogram the straggler
    #: threshold is derived from.
    straggler_quantile: float = 95.0

    #: Multiple of that percentile a task must exceed to count as a
    #: straggler.
    straggler_factor: float = 3.0

    #: Minimum histogram observations before the quantile estimate is
    #: trusted; below this only ``soft_timeout_s`` triggers speculation.
    min_straggler_samples: int = 16

    #: Master switch for speculative re-dispatch of stragglers.
    speculative: bool = True

    #: Infrastructure failures (worker deaths, hard timeouts) a single
    #: shard may cause before it is quarantined to in-process serial
    #: execution.  ``0`` disables quarantine.
    quarantine_after: int = 2

    #: Fraction of dispatched tasks that must have failed on infrastructure
    #: for the stage-wide circuit breaker to trip.
    degrade_failure_ratio: float = 0.5

    #: Minimum infrastructure failures before the breaker may trip
    #: (prevents a two-task stage degrading on one death).  ``0`` disables
    #: the breaker.
    degrade_min_failures: int = 4

    #: Watchdog poll interval in seconds — the granularity at which
    #: deadlines and straggler ages are checked.
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("soft_timeout_s", "hard_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if (
            self.soft_timeout_s is not None
            and self.hard_timeout_s is not None
            and self.soft_timeout_s > self.hard_timeout_s
        ):
            raise ValueError("soft_timeout_s cannot exceed hard_timeout_s")
        if not 0 < self.straggler_quantile <= 100:
            raise ValueError("straggler_quantile must be in (0, 100]")
        if self.straggler_factor <= 0:
            raise ValueError("straggler_factor must be positive")
        if self.min_straggler_samples < 1:
            raise ValueError("min_straggler_samples must be at least 1")
        if self.quarantine_after < 0:
            raise ValueError("quarantine_after cannot be negative")
        if not 0 < self.degrade_failure_ratio <= 1:
            raise ValueError("degrade_failure_ratio must be in (0, 1]")
        if self.degrade_min_failures < 0:
            raise ValueError("degrade_min_failures cannot be negative")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    # ------------------------------------------------------------------
    @property
    def watches(self) -> bool:
        """Does the dispatch loop need to poll (vs. block indefinitely)?"""
        return self.hard_timeout_s is not None or self.speculative

    def straggler_threshold_s(self, histogram=None) -> Optional[float]:
        """The age in seconds past which a task is a speculation candidate.

        Derived from the quantile of ``histogram`` (the live
        ``pool.task_exec_s`` distribution) scaled by
        :attr:`straggler_factor`, floored at :attr:`soft_timeout_s` and
        capped at :attr:`hard_timeout_s` (speculating on a task the
        watchdog is about to kill is wasted work).  ``None`` — no
        speculation — when the switch is off or neither source can supply
        a threshold.
        """
        if not self.speculative:
            return None
        estimate: Optional[float] = None
        if histogram is not None and histogram.count >= self.min_straggler_samples:
            quantile = histogram.percentile(self.straggler_quantile)
            if quantile == quantile:  # not NaN
                estimate = quantile * self.straggler_factor
        if estimate is None:
            estimate = self.soft_timeout_s
        elif self.soft_timeout_s is not None:
            estimate = max(estimate, self.soft_timeout_s)
        if estimate is not None and self.hard_timeout_s is not None:
            estimate = min(estimate, self.hard_timeout_s)
        return estimate


# ----------------------------------------------------------------------
# the process default
# ----------------------------------------------------------------------
def _env_seconds(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def deadline_from_env() -> Optional[TaskDeadline]:
    """The deadline configured by environment, if any.

    ``REPRO_TASK_TIMEOUT`` sets the hard timeout and
    ``REPRO_TASK_SOFT_TIMEOUT`` the straggler floor (both in seconds;
    non-positive or unparsable values are ignored).  With neither set there
    is no environment deadline.
    """
    hard = _env_seconds(HARD_TIMEOUT_ENV)
    soft = _env_seconds(SOFT_TIMEOUT_ENV)
    if hard is None and soft is None:
        return None
    if soft is not None and hard is not None and soft > hard:
        soft = hard
    return TaskDeadline(soft_timeout_s=soft, hard_timeout_s=hard)


#: The explicitly installed process default (``_SET`` distinguishes "set to
#: None" — deadlines forced off — from "never set" — fall back to env).
_DEFAULT: Optional[TaskDeadline] = None
_SET = False


def get_default_deadline() -> Optional[TaskDeadline]:
    """The deadline pooled stages use when no ``deadline=`` is passed.

    An explicitly installed default (:func:`set_default_deadline`,
    :class:`deadline_scope`) wins; otherwise the environment variables are
    consulted at call time, so tests and operators can flip them without
    touching code.
    """
    if _SET:
        return _DEFAULT
    return deadline_from_env()


def set_default_deadline(deadline: Optional[TaskDeadline]) -> None:
    """Install the process-default deadline (``None`` forces deadlines off,
    overriding the environment)."""
    global _DEFAULT, _SET
    _DEFAULT = deadline
    _SET = True


def clear_default_deadline() -> None:
    """Drop any installed default; the environment variables apply again."""
    global _DEFAULT, _SET
    _DEFAULT = None
    _SET = False


class deadline_scope:
    """Install a default deadline for the duration of a ``with`` block.

    ``deadline_scope(None)`` is a transparent no-op (the surrounding
    default, if any, keeps applying) so callers can thread an optional
    config field through without branching::

        with deadline_scope(config.deadline):
            operator.optimize(...)
    """

    __slots__ = ("deadline", "_saved")

    def __init__(self, deadline: Optional[TaskDeadline]) -> None:
        self.deadline = deadline
        self._saved: Optional[Tuple[bool, Optional[TaskDeadline]]] = None

    def __enter__(self) -> Optional[TaskDeadline]:
        if self.deadline is not None:
            self._saved = (_SET, _DEFAULT)
            set_default_deadline(self.deadline)
        return self.deadline

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _DEFAULT, _SET
        if self._saved is not None:
            _SET, _DEFAULT = self._saved
            self._saved = None
        return False
