"""Overlapped, double-buffered partition execution.

Section V-C of the paper overlaps a device's transfers with its
kernels: while partition *i* computes on the card, the host already
streams partition *i + 1* over PCIe into a second on-card buffer. This
module provides both halves of that design for
:func:`repro.runtime.stages.execute_stage`, which is the one execute
path for a single device and for a multi-FPGA pool alike:

:func:`overlap_timeline`
    The *modeled* double-buffered pipeline of one device's queue
    (a pool computes one timeline per device). Each partition is a
    ``(write_seconds, kernel_seconds)`` segment; with ``buffers``
    on-card staging buffers the timeline obeys

    .. code-block:: text

        T_i = max(T_{i-1}, C_{i-buffers}) + w_i     (transfer done)
        C_i = max(T_i,     C_{i-1})       + k_i     (kernel done)

    i.e. transfers serialize on the PCIe link, kernels serialize on
    the device, and transfer *i* additionally waits until the buffer
    it targets is free (the kernel of partition ``i - buffers`` has
    drained it). At ``buffers = 1`` this collapses to
    ``sum(w_i + k_i)`` — exactly the flat serial sum of the original
    overlap rule — and it is monotonically non-increasing in
    ``buffers`` (more staging never hurts).

:func:`dispatch_partitions`
    Real wall-clock concurrency for independent partition tasks: FPGA
    kernel simulation over a window of one device queue's partitions,
    and CPU-share host matching over a window of the CPU share. With
    one worker (or one task) tasks run inline; otherwise they run on
    the context's warm supervised
    :class:`~repro.runtime.pool.WorkerPool`, one task per dispatch,
    with every partition set shipped once over the shared-memory
    arena. Results are delivered per task index, so merging is
    deterministic regardless of scheduling.

Modeled seconds never depend on ``workers`` — the worker pool changes
only wall-clock time. ``buffers`` changes only modeled seconds. The
two knobs are deliberately orthogonal.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import DeviceError
from repro.cst.partition import PartitionSet
from repro.runtime.pool import Task
from repro.runtime.tracing import WALL

if TYPE_CHECKING:  # pragma: no cover - import cycle (context -> executor)
    from repro.runtime.context import RunContext

__all__ = [
    "ExecutorConfig",
    "PartitionOutcome",
    "PartitionRef",
    "Task",
    "dispatch_partitions",
    "overlap_schedule",
    "overlap_timeline",
    "resolve_partition",
    "uses_pool",
]

#: Warm-pool supervision counters noted per execute stage as
#: ``pool_<name>`` deltas (the pool's own counters are cumulative).
POOL_STAT_KEYS = (
    "spawned", "respawns", "redispatches", "hedges", "quarantines",
    "shm_fallbacks", "stall_kills", "chunks",
)


@dataclass(frozen=True)
class ExecutorConfig:
    """Concurrency and overlap knobs of the execute stage.

    ``workers`` sizes the warm worker pool that runs independent
    partition tasks concurrently (1 = inline serial execution, the
    default). ``buffers`` is the number of on-card partition staging
    buffers in the modeled timeline (1 = no transfer/compute overlap,
    the original flat ``pcie + kernel`` sum). ``watchdog_s`` is the
    wall-clock silence budget (seconds) before an in-flight pool
    dispatch is hedged; a worker silent past twice this is killed and
    respawned. 0 disables the watchdog.
    """

    workers: int = 1
    buffers: int = 1
    watchdog_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DeviceError("executor workers must be >= 1")
        if self.buffers < 1:
            raise DeviceError("executor buffers must be >= 1")
        if self.watchdog_s < 0.0:
            raise DeviceError("executor watchdog_s must be >= 0")


def overlap_schedule(
    segments: Sequence[tuple[float, float]], buffers: int = 2
) -> list[tuple[float, float, float, float]]:
    """Per-launch schedule of the double-buffered partition pipeline.

    Returns one ``(transfer_start, transfer_end, kernel_start,
    kernel_end)`` tuple per segment, in launch order, computed with the
    exact recurrence :func:`overlap_timeline` describes — the timeline
    is simply the last tuple's ``kernel_end``. The tracer draws these
    tuples as the ``pcie`` and ``kernel`` lanes of the modeled clock,
    so the trace and the reported modeled seconds cannot disagree.
    """
    if buffers < 1:
        raise DeviceError("buffers must be >= 1")
    transfer_done = 0.0
    kernel_done: list[float] = []
    schedule: list[tuple[float, float, float, float]] = []
    for i, (write_s, kernel_s) in enumerate(segments):
        gate = kernel_done[i - buffers] if i >= buffers else 0.0
        t_start = max(transfer_done, gate)
        transfer_done = t_start + write_s
        prev = kernel_done[i - 1] if i else 0.0
        k_start = max(transfer_done, prev)
        kernel_done.append(k_start + kernel_s)
        schedule.append((t_start, transfer_done, k_start, kernel_done[-1]))
    return schedule


def overlap_timeline(
    segments: Sequence[tuple[float, float]], buffers: int = 2
) -> float:
    """Completion time of the double-buffered partition pipeline.

    ``segments`` holds one ``(write_seconds, kernel_seconds)`` pair per
    FPGA launch, in launch order. Transfers serialize on the single
    PCIe link, kernels serialize on the single device, and a transfer
    may only start once one of the ``buffers`` staging buffers is free,
    i.e. the kernel ``buffers`` launches back has completed. With
    ``buffers = 1`` the transfer of launch *i* therefore waits for
    kernel *i - 1*, which reproduces the serial flat sum
    ``sum(w + k)`` of the original overlap rule exactly.
    """
    schedule = overlap_schedule(segments, buffers)
    return schedule[-1][3] if schedule else 0.0


@dataclass(slots=True)
class PartitionOutcome:
    """Everything one supervised FPGA partition produced.

    Collected privately per task so the worker pool shares no mutable
    state; the execute stage merges outcomes in partition-index order,
    which keeps counts, results, modeled seconds, and the health
    record bit-identical between serial and concurrent execution.
    """

    #: Kernel reports of every successful launch, in launch order
    #: (one for a clean partition, several after a re-partition).
    reports: list = field(default_factory=list)
    #: ``(write_seconds, kernel_seconds)`` per launch for the modeled
    #: overlap timeline. Failed launches appear with their wasted
    #: transfer/kernel time so recovery cost stays on the FPGA side.
    segments: list[tuple[float, float]] = field(default_factory=list)
    #: Total modeled PCIe seconds (successful and wasted attempts).
    pcie_seconds: float = 0.0
    #: Modeled recovery overhead: wasted kernel work plus backoff.
    overhead_seconds: float = 0.0
    #: Host-side re-partitioning cost (charged serially, not in the
    #: overlapped timeline — it runs on the host, not the card).
    host_overhead_seconds: float = 0.0
    #: Wall-clock backoff to charge to the stage (mirrors overhead).
    backoff_wall_seconds: float = 0.0
    #: Fault events in deterministic depth-first order.
    events: list = field(default_factory=list)
    #: CPU-fallback results of partitions that exhausted the ladder:
    #: ``(found_embeddings, counters)`` per fallback, in ladder order.
    #: Running the fallback inside the supervisor keeps each
    #: :class:`PartitionOutcome` self-contained, which is what lets
    #: the run journal persist a partition as one complete record.
    fallbacks: list = field(default_factory=list)
    #: Write-ahead ladder rung records accumulated by a supervisor
    #: running in a *worker process* (which cannot reach the journal
    #: file); the parent appends them — before the partition record,
    #: preserving replay order — on the result-merge path. Empty when
    #: the supervisor journals directly (inline execution).
    ladder_records: list = field(default_factory=list)


@dataclass(frozen=True)
class PartitionRef:
    """The partitions one task reads: ``members`` of a partition set.

    ``parts`` is the :class:`~repro.cst.partition.PartitionSet` as the
    caller built the task; :func:`dispatch_partitions` swaps it for
    the set's shared-memory :class:`~repro.runtime.shm.SetRef` when it
    ships the task to the warm pool.
    """

    parts: Any
    members: tuple[int, ...]


def resolve_partition(ref: PartitionRef) -> PartitionSet:
    """The partition set behind a task's ref: the set itself inline,
    rebuilt as read-only zero-copy views on the pool."""
    parts = ref.parts
    return parts if isinstance(parts, PartitionSet) else parts.load()


def uses_pool(config: ExecutorConfig, num_tasks: int) -> bool:
    """Whether :func:`dispatch_partitions` sends ``num_tasks`` tasks to
    the warm pool (``workers > 1`` and more than one task) rather than
    running them inline."""
    return config.workers > 1 and num_tasks > 1


def _shared_arg(arena: Any, arg: Any) -> Any:
    """A :class:`PartitionRef` ``arg`` over its set's arena placement."""
    if isinstance(arg, PartitionRef):
        return PartitionRef(arena.place_set(arg.parts), arg.members)
    return arg


def _pickled_arg(arg: Any) -> Any:
    """A :class:`PartitionRef` ``arg`` over a set of just its members:
    what a task pickles when it cannot use the arena."""
    if isinstance(arg, PartitionRef):
        return PartitionRef(arg.parts.take(arg.members),
                            tuple(range(len(arg.members))))
    return arg


def dispatch_partitions(
    ctx: "RunContext",
    tasks: Sequence[Task],
    on_result: Callable[[int, Any], None],
) -> dict[str, Any]:
    """Run independent partition tasks; return the stage's dispatch facts.

    ``tasks`` are ``(fn, args)`` pairs, one per window of partitions
    (of a device queue or of the CPU share), whose partitions are
    :class:`PartitionRef` args; each is one pool dispatch.
    ``on_result(index, result)`` fires in this process as each task
    completes — in index order inline, in completion order on the
    pool — which is what the run journal hooks to persist outcomes
    the moment they exist.

    When :func:`uses_pool` says no, tasks run inline in task order.
    Otherwise the context's shared-memory arena is created *before*
    its warm pool (so freshly forked workers inherit its attachments),
    each ref's set is placed once and shipped as its
    :class:`~repro.runtime.shm.SetRef`, and a worker that loses the
    segment falls back to the task pickled with only its refs' members
    (as every task is shipped when no arena can be created).
    The pool is told whether to time its tasks
    (the context's tracing flag, set on every dispatch), and its
    supervision events and worker spans are drained onto the
    context's tracer even when a task or ``on_result`` raises, so they
    never spill into the next job that shares the pool.

    The returned facts are noted on the calling stage: ``pool``
    (``inline`` or ``process``), ``cst_plane`` (``local``, ``shm`` or
    ``pickle``) and, for pooled runs, per-stage ``pool_<counter>``
    deltas of the pool's cumulative supervision counters
    (``pool_chunks`` is the number of tasks dispatched).
    """
    if not uses_pool(ctx.executor, len(tasks)):
        for i, (fn, args) in enumerate(tasks):
            on_result(i, fn(*args))
        return {"pool": "inline", "cst_plane": "local"}

    arena = ctx.ensure_arena()
    if arena is None:
        warnings.warn(
            "shared-memory CST plane unavailable; pool tasks fall back "
            "to pickled partitions",
            RuntimeWarning,
            stacklevel=3,
        )
        if ctx.log is not None:
            ctx.log.warning(
                "shm_downgrade",
                request_id=ctx.tracer.request_id,
                plane="pickle",
            )
    pool = ctx.ensure_pool()

    def pickled(i: int) -> Task:
        fn, args = tasks[i]
        return fn, tuple(_pickled_arg(arg) for arg in args)

    if arena is None:
        shipped = [pickled(i) for i in range(len(tasks))]
        uses_shm = None
    else:
        shipped = [
            (fn, tuple(_shared_arg(arena, arg) for arg in args))
            for fn, args in tasks
        ]
        uses_shm = [
            any(new is not old for new, old in zip(shared, args))
            for (_, shared), (_, args) in zip(shipped, tasks)
        ]
    before = pool.stats.to_dict()
    pool.set_trace(ctx.tracer.enabled)
    try:
        pool.run(
            shipped,
            on_result,
            uses_shm=uses_shm,
            fallback=pickled if arena is not None else None,
        )
    finally:
        _trace_pool_activity(ctx, pool)
    after = pool.stats.to_dict()
    return {
        "pool": "process",
        "cst_plane": "shm" if arena is not None else "pickle",
        **{f"pool_{key}": after[key] - before[key] for key in POOL_STAT_KEYS},
    }


def _trace_pool_activity(ctx: "RunContext", pool: Any) -> None:
    """Drain the pool's supervision events and worker spans: events go
    to the context's JSONL log (when set) and, with worker spans, onto
    the tracer's wall-clock ``pool`` lanes (when tracing).

    Strictly wall-domain: modeled seconds and counts cannot see it.
    ``perf_counter`` is CLOCK_MONOTONIC and system-wide, so one epoch
    rebases both parent-side events and worker-side spans. Slot -1 is
    parent-inline quarantine work.
    """
    events = pool.drain_events()
    worker_spans = pool.drain_worker_spans()
    tracer = ctx.tracer
    if ctx.log is not None:
        for _ts, kind, detail in events:
            ctx.log.info(
                f"pool_{kind}", request_id=tracer.request_id, **detail,
            )
    if not tracer.enabled or not (events or worker_spans):
        return
    epoch = time.perf_counter() - tracer.now_wall()
    for ts, kind, detail in events:
        tracer.instant(
            "pool", kind, max(0.0, ts - epoch), clock=WALL, **detail,
        )
    for slot, name, start, seconds, args in worker_spans:
        lane = "pool/parent" if slot < 0 else f"pool/worker{slot}"
        tracer.span(
            lane, name, max(0.0, start - epoch), seconds, clock=WALL,
            **args,
        )
