"""The unified simulation core.

One :class:`Engine` replaces the three scenario stacks that grew up in
parallel — ``repro.reshaping.runtime`` (clean Sec. 4 scenarios),
``repro.faults.runtime`` (the same scenarios under injected faults) and
``repro.infra.capping`` (the emergency fallback).  Scenarios are described
declaratively by :class:`ScenarioSpec` / :class:`ChaosSpec`, executed by
:meth:`Engine.run` through a pipeline of :class:`Policy` / :class:`Actuator`
plugins, and fanned out across processes by :func:`run_many`.

The legacy entry points remain importable as thin shims and produce
bit-identical results (pinned by the golden parity suite in
``tests/engine/``).
"""

from .delta import (  # noqa: F401  (import order: leaf modules first)
    FleetDelta,
    Move,
    PlacementState,
    dirty_nodes,
)
from .state import (  # noqa: F401
    FleetDescription,
    FleetState,
    RunArtifacts,
    ScenarioResult,
)
from .capping import (  # noqa: F401
    DEFAULT_PRIORITY,
    CappingPolicy,
    CappingReport,
    CappingSimulator,
    NodeCappingStats,
    compare_capping,
)
from .faults import (  # noqa: F401
    BATCH_POOL,
    LC_POOL,
    ChaosRunResult,
    ConversionFaultModel,
    ConversionLog,
    FailureEvent,
    PowerSpikeSchedule,
    RecoveryReport,
    ServerFailureSchedule,
    SpikeEvent,
)
from .policy import (  # noqa: F401
    Actuator,
    ConversionFaultPolicy,
    ConversionPlanPolicy,
    EmergencyCapping,
    Policy,
    PowerSpikePolicy,
    RunContext,
    ServerFailurePolicy,
    StaticFleetPolicy,
    ThrottleBoostPlan,
)
from .spec import (  # noqa: F401
    MODES,
    ChaosSpec,
    ScenarioSpec,
    build_pipeline,
    chaos_spec,
)
from .chaos_infra import (  # noqa: F401
    InfraFault,
    InjectedFault,
)
from .deadline import (  # noqa: F401
    TaskDeadline,
    TaskTimeoutError,
    clear_default_deadline,
    deadline_scope,
    get_default_deadline,
    set_default_deadline,
)
from .core import Engine  # noqa: F401
from .parallel import (  # noqa: F401
    RunFailure,
    WorkerPool,
    execute,
    get_pool,
    run_many,
    shutdown_pools,
    warm_pool,
)

__all__ = [
    "Actuator",
    "BATCH_POOL",
    "CappingPolicy",
    "CappingReport",
    "CappingSimulator",
    "ChaosRunResult",
    "ChaosSpec",
    "ConversionFaultModel",
    "ConversionFaultPolicy",
    "ConversionLog",
    "ConversionPlanPolicy",
    "DEFAULT_PRIORITY",
    "EmergencyCapping",
    "Engine",
    "FailureEvent",
    "FleetDelta",
    "FleetDescription",
    "FleetState",
    "InfraFault",
    "InjectedFault",
    "LC_POOL",
    "MODES",
    "Move",
    "NodeCappingStats",
    "PlacementState",
    "Policy",
    "PowerSpikePolicy",
    "PowerSpikeSchedule",
    "RecoveryReport",
    "RunArtifacts",
    "RunContext",
    "RunFailure",
    "ScenarioResult",
    "ScenarioSpec",
    "ServerFailurePolicy",
    "ServerFailureSchedule",
    "SpikeEvent",
    "StaticFleetPolicy",
    "TaskDeadline",
    "TaskTimeoutError",
    "ThrottleBoostPlan",
    "WorkerPool",
    "build_pipeline",
    "chaos_spec",
    "clear_default_deadline",
    "compare_capping",
    "deadline_scope",
    "dirty_nodes",
    "execute",
    "get_default_deadline",
    "get_pool",
    "run_many",
    "set_default_deadline",
    "shutdown_pools",
    "warm_pool",
]
