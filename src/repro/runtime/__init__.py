"""The staged execution spine shared by every entry point.

This package decomposes end-to-end matching into explicit stages
(:mod:`repro.runtime.stages`), threads them through a single
:class:`~repro.runtime.context.RunContext` carrying configuration,
per-stage metrics, and the CST/partition cache
(:mod:`repro.runtime.context`), and exposes every executor through the
:class:`~repro.runtime.registry.BackendRegistry`
(:mod:`repro.runtime.registry`).

Registry symbols are re-exported lazily: ``repro.runtime.registry``
imports the concrete runners (``repro.host.runtime`` etc.), which in
turn import this package's context module, so eagerly importing the
registry here would create a cycle when ``repro.host`` loads first.
"""

from repro.runtime.context import (
    STAGES,
    CacheStats,
    CancellationToken,
    RunContext,
    RunMetrics,
    StageCache,
    StageMetrics,
)
from repro.runtime.executor import (
    ExecutorConfig,
    PartitionOutcome,
    dispatch_partitions,
    overlap_timeline,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    HealthReport,
    RetryPolicy,
)
from repro.runtime.stages import (
    ExecuteOutcome,
    MergedRun,
    ScheduledWork,
    StagePlan,
    build_cst_stage,
    execute_stage,
    merge_stage,
    partition_stage,
    passthrough_partition_stage,
    plan_stage,
    schedule_stage,
)

_REGISTRY_EXPORTS = (
    "BackendRegistry",
    "BackendSpec",
    "FAILURE_VERDICTS",
    "REGISTRY",
    "RunOutcome",
)

__all__ = [
    "FAULT_KINDS",
    "STAGES",
    "CacheStats",
    "CancellationToken",
    "ExecuteOutcome",
    "ExecutorConfig",
    "FaultEvent",
    "FaultPlan",
    "HealthReport",
    "MergedRun",
    "PartitionOutcome",
    "RetryPolicy",
    "RunContext",
    "RunMetrics",
    "ScheduledWork",
    "StageCache",
    "StageMetrics",
    "StagePlan",
    "build_cst_stage",
    "dispatch_partitions",
    "execute_stage",
    "merge_stage",
    "overlap_timeline",
    "partition_stage",
    "passthrough_partition_stage",
    "plan_stage",
    "schedule_stage",
    *_REGISTRY_EXPORTS,
]


def __getattr__(name: str):
    if name in _REGISTRY_EXPORTS:
        from repro.runtime import registry

        return getattr(registry, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
