"""First-class pipeline stages of the FAST execution spine.

End-to-end matching decomposes into six explicit stages, each timed
and annotated through the shared :class:`~repro.runtime.context.RunContext`:

``plan``
    Validate the query, choose the spanning tree ``t_q`` and the
    matching order, and compile the static :class:`MatchPlan`.
``build_cst``
    Algorithm 1 over the data graph. Memoized per ``(data, query)``
    in the context's :class:`~repro.runtime.context.StageCache`.
``partition``
    Algorithm 2 down to the device's ``delta_S`` / ``delta_D`` limits,
    each emitted partition routed to the CPU or the FPGA by Algorithm 3
    under the workload threshold ``delta``. Memoized per ``(data,
    query, order, delta_S, delta_D, policies, delta)``.
``schedule``
    Record the CPU/FPGA split Algorithm 3 arrived at and place the
    FPGA partitions on devices: one queue on the context's device, or
    a caller's placement across a device pool (Section VII-E).
``execute``
    FAST kernel over each device's queue (over its modeled PCIe link)
    plus the basic backtracking matcher over the CPU partitions.
``merge``
    Combine counts/result sets; end-to-end modeled time follows the
    paper's overlap rule (the CPU share hides behind PCIe + kernel).

Modeled times are charged identically whether or not a cached value
was reused: the cache saves wall-clock time only, so every reported
modeled number is independent of cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import (
    PartitionError,
    TransientDeviceError,
)
from repro.costs.cpu import OpCounters
from repro.cst.builder import build_cst
from repro.cst.partition import (
    PartitionLimits,
    PartitionSet,
    PartitionStats,
    SplitNode,
    partition_cst,
    partition_to_list,
)
from repro.cst.structure import CST, ENTRY_BYTES
from repro.cst.workload import estimate_workload
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import FastEngine
from repro.fpga.kernel import MatchPlan, build_plan
from repro.fpga.report import KernelReport
from repro.graph.graph import Graph
from repro.host.cpu_matcher import CpuMatchCounters, cst_embeddings
from repro.host.pcie import PcieLink
from repro.host.scheduler import WorkloadScheduler
from repro.query.ordering import path_based_order
from repro.query.query_graph import QueryGraph, as_query
from repro.query.spanning_tree import SpanningTree, build_bfs_tree, choose_root
from repro.runtime.context import RunContext, StageMetrics
from repro.runtime.executor import (
    PartitionOutcome,
    PartitionRef,
    Task,
    dispatch_partitions,
    overlap_schedule,
    resolve_partition,
    uses_pool,
)
from repro.runtime.faults import FAULT_ERRORS, FaultEvent, SupervisorCore
from repro.runtime.journal import (
    counters_from_dict,
    counters_to_dict,
    event_from_dict,
    outcome_from_record,
    outcome_to_record,
    run_fingerprint,
)
from repro.runtime.tracing import (
    MODELED,
    device_lane_prefix,
    trace_device_lanes,
)


@dataclass(frozen=True)
class StagePlan:
    """Output of the ``plan`` stage: everything static about one run."""

    query: QueryGraph
    tree: SpanningTree
    order: tuple[int, ...]
    match_plan: MatchPlan


@dataclass(frozen=True)
class ScheduledWork:
    """Output of the ``partition`` + ``schedule`` stages.

    Immutable: one value is served from the stage cache to every run
    with the same key, so no run may change what the next one sees.
    Each route's partitions are one packed set, in emission order.
    """

    fpga_parts: PartitionSet
    cpu_parts: PartitionSet
    stats: PartitionStats | None
    delta: float = 0.0
    #: Achieved CPU share of the total estimated workload.
    cpu_fraction: float = 0.0

    @property
    def num_partitions(self) -> int:
        if self.stats is not None:
            return self.stats.num_partitions
        return len(self.fpga_parts) + len(self.cpu_parts)


@dataclass(frozen=True)
class DeviceQueue:
    """One device's share of the FPGA partitions: the output of the
    ``schedule`` stage, one queue per device of the run."""

    index: int
    fpga: FpgaConfig
    #: Indices into ``ScheduledWork.fpga_parts``, in launch order.
    partitions: tuple[int, ...]
    #: Catalog part name, labelling the device's trace lanes.
    part: str | None = None


@dataclass
class DeviceRun:
    """What one device's queue produced in the ``execute`` stage."""

    index: int
    kernel: KernelReport
    #: Transfers of every launch (wasted attempts too) plus the fetch.
    pcie_seconds: float
    #: The device's FPGA-side modeled seconds (see ``execute_stage``).
    seconds: float
    #: Completion of the device's double-buffered card schedule.
    timeline: float


@dataclass
class ExecuteOutcome:
    """Output of the ``execute`` stage.

    ``fault_overhead_seconds`` is the modeled cost of recovery (wasted
    transfers/kernel work plus backoff) on the FPGA side of the
    overlap rule; ``fallback_seconds`` is the host time of partitions
    re-routed to the CPU matcher after exhausting retries. Both are
    exactly zero when no fault plan is active.
    """

    #: Every device's kernel reports merged (the one device's own
    #: report on a single-device run).
    kernel: KernelReport
    cpu_embeddings: int = 0
    cpu_results: list[tuple[int, ...]] = field(default_factory=list)
    pcie_seconds: float = 0.0
    cpu_share_seconds: float = 0.0
    fault_overhead_seconds: float = 0.0
    fallback_seconds: float = 0.0
    #: FPGA-side modeled seconds of the slowest device after its
    #: overlap timeline (equals ``pcie + kernel + fault_overhead`` on
    #: one device at ``buffers = 1``).
    fpga_seconds: float = 0.0
    #: How many partitions were replayed from a resume journal instead
    #: of executed (0 for fresh runs).
    resumed_partitions: int = 0
    #: One entry per device that ran a queue, in placement order.
    devices: list[DeviceRun] = field(default_factory=list)


@dataclass
class MergedRun:
    """Output of the ``merge`` stage: the run's bottom line."""

    embeddings: int
    total_seconds: float
    results: list[tuple[int, ...]] | None = None


# ----------------------------------------------------------------------


def plan_stage(
    ctx: RunContext,
    query: Graph | QueryGraph,
    data: Graph,
    order: tuple[int, ...] | None = None,
) -> StagePlan:
    """Choose tree + order and compile the match plan."""
    with ctx.stage("plan") as st:
        q = as_query(query)
        tree = build_bfs_tree(q, choose_root(q, data))
        if order is None:
            order = path_based_order(tree, data)
        order = tuple(order)
        match_plan = build_plan(q, order)
        st.note(
            order=order,
            root=tree.root,
            num_query_vertices=q.num_vertices,
        )
    return StagePlan(query=q, tree=tree, order=order, match_plan=match_plan)


def build_cst_stage(ctx: RunContext, plan: StagePlan, data: Graph) -> CST:
    """Algorithm 1, memoized per ``(data, query)``.

    The spanning tree is a pure function of ``(query, data)`` (via
    :func:`choose_root`), so it does not appear in the cache key.
    """
    with ctx.stage("build_cst") as st:
        cst, cached = ctx.cache.get_or_build(
            "cst",
            (data, plan.query.graph),
            lambda: build_cst(plan.query, data, tree=plan.tree),
        )
        candidates = cst.total_candidates()
        adjacency = cst.total_adjacency_entries()
        st.modeled_seconds += ctx.host_seconds(candidates + adjacency, data)
        st.note(
            cached=cached,
            cst_bytes=cst.size_bytes(),
            candidates=candidates,
            adjacency_entries=adjacency,
        )
    return cst


def passthrough_partition_stage(
    ctx: RunContext, cst: CST
) -> ScheduledWork:
    """FAST-DRAM's degenerate partition stage: the whole CST is one
    FPGA-resident piece (card DRAM has no ``delta_S`` limit)."""
    with ctx.stage("partition") as st:
        whole = PartitionSet.of(cst, estimate_workload(cst))
        st.note(num_partitions=1, num_splits=0, cached=False)
    return ScheduledWork(
        fpga_parts=whole, cpu_parts=PartitionSet(cst).pack(), stats=None,
    )


def _route_partitions(
    cst: CST,
    order: tuple[int, ...],
    limits: PartitionLimits,
    k_policy: int | str,
    split_policy: str,
    delta: float,
) -> ScheduledWork:
    """Algorithm 2 with Algorithm 3 routing each emitted partition.

    At ``delta > 0`` the scheduler may also claim a whole oversized
    CST for the CPU before it is split (FAST-SHARE, Section VII-B).
    A fresh scheduler per call makes the result a pure function of
    the arguments, which is what lets the stage memoize it.
    """
    scheduler = WorkloadScheduler(delta=delta)
    fpga_parts = PartitionSet(cst)
    cpu_parts = PartitionSet(cst)

    def sink(node: SplitNode, workload: float) -> None:
        route = scheduler.assign(node, workload)
        (cpu_parts if route == "cpu" else fpga_parts).add(node)

    stats = partition_cst(
        cst, order, limits, sink,
        k_policy=k_policy,
        intercept=scheduler.would_accept_cpu if delta > 0 else None,
        split_policy=split_policy,
    )
    return ScheduledWork(
        fpga_parts=fpga_parts.pack(),
        cpu_parts=cpu_parts.pack(),
        stats=stats,
        delta=delta,
        cpu_fraction=scheduler.cpu_fraction,
    )


def partition_stage(
    ctx: RunContext,
    data: Graph,
    cst: CST,
    plan: StagePlan,
    limits: PartitionLimits,
    k_policy: int | str = "greedy",
    split_policy: str = "order",
    delta: float = 0.0,
) -> ScheduledWork:
    """Algorithm 2 (+ Algorithm 3 routing of each emitted partition),
    memoized per ``(data, query, order, delta_S, delta_D, policies,
    delta)``.

    The key assumes ``cst`` is the full Algorithm 1 output for
    ``(data, query)``. The host cost is charged from the partitioned
    bytes on a hit and a miss alike, so modeled seconds do not depend
    on cache state.
    """
    with ctx.stage("partition") as st:
        key = (
            data, plan.query.graph, plan.order,
            limits.max_bytes, limits.max_degree,
            str(k_policy), split_policy, delta,
        )
        work, cached = ctx.cache.get_or_build(
            "partition", key,
            lambda: _route_partitions(
                cst, plan.order, limits, k_policy, split_policy, delta
            ),
        )
        stats = work.stats
        st.modeled_seconds += ctx.host_seconds(
            stats.total_bytes // ENTRY_BYTES, data
        )
        st.note(
            num_partitions=stats.num_partitions,
            num_splits=stats.num_splits,
            cached=cached,
        )
    return work


def ledger_scaled_limits(
    ctx: RunContext, limits: PartitionLimits, device: int
) -> PartitionLimits:
    """Pre-shrink ``delta_S`` for a device the health ledger flags.

    A device with a history of residency faults (kernel timeouts, BRAM
    soft errors) gets smaller partitions up front — shorter kernel
    residency per launch — instead of rediscovering the problem through
    the degradation ladder every run. Counts are unaffected: partitions
    stay complete search spaces at any ``delta_S``.
    """
    ledger = ctx.health_ledger
    if ledger is None:
        return limits
    scale = ledger.delta_s_scale(device)
    if scale >= 1.0:
        return limits
    return PartitionLimits(
        max_bytes=max(int(limits.max_bytes * scale), ENTRY_BYTES),
        max_degree=limits.max_degree,
    )


def schedule_stage(
    ctx: RunContext,
    work: ScheduledWork,
    place: Callable[[StageMetrics], tuple[DeviceQueue, ...]] | None = None,
) -> tuple[DeviceQueue, ...]:
    """Record the CPU/FPGA workload split Algorithm 3 arrived at and
    place the FPGA partitions on devices.

    Without ``place`` every FPGA partition queues on the context's one
    device, in partition order. A device pool passes its placement
    rule as ``place``: it is called with the stage's metrics bucket
    (to note its own facts) and returns one :class:`DeviceQueue` per
    device of the pool.
    """
    with ctx.stage("schedule") as st:
        st.note(
            cpu_csts=len(work.cpu_parts),
            fpga_csts=len(work.fpga_parts),
            cpu_workload_fraction=work.cpu_fraction,
            delta=work.delta,
        )
        if place is not None:
            return place(st)
        ledger = ctx.health_ledger
        if ledger is not None:
            # Single-device runs place all FPGA work on device 0; the
            # ledger's influence here is the pre-shrunk delta_S the
            # runner applied before partitioning (multi-FPGA placement
            # additionally steers whole partitions between devices).
            st.note(
                device_penalty=ledger.penalty(0),
                delta_s_scale=ledger.delta_s_scale(0),
            )
    return _one_device(ctx, work)


def _one_device(ctx: RunContext, work: ScheduledWork) -> tuple[DeviceQueue]:
    """Every FPGA partition, in order, on the context's device."""
    return (DeviceQueue(
        index=0, fpga=ctx.fpga,
        partitions=tuple(range(len(work.fpga_parts))),
        part=ctx.device_part,
    ),)


def _attempt_partition(
    core: SupervisorCore,
    engine: FastEngine,
    link: PcieLink,
    parts: PartitionSet,
    member: int,
    scope: tuple,
    match_plan: MatchPlan,
    collect_results: bool,
) -> tuple[KernelReport | None, float, float, float, list[FaultEvent],
           str | None]:
    """Partition ``member`` of ``parts`` under the retry policy.

    Each attempt replays the full launch sequence (device check, PCIe
    transfer, kernel) against the fault plan; transient errors back
    off and retry, with the backoff charged to both wall and modeled
    time. Returns ``(report, pcie_seconds, overhead_seconds,
    backoff_seconds, events, last_fault_kind)`` where ``report`` is
    ``None`` once the retry budget is exhausted (the caller walks the
    degradation ladder). Events are returned, not recorded, so the
    call is free of shared mutable state and runs in a pool worker
    as well as inline, since ``core`` is the picklable supervision
    bundle; the caller records them in partition order.
    """
    policy = core.retry_policy
    fplan = core.fault_plan
    fires = {
        kind: fplan.fires(kind, *scope) if fplan is not None else 0
        for kind in FAULT_ERRORS
    }
    events: list[FaultEvent] = []
    pcie = 0.0
    overhead = 0.0
    backoff_total = 0.0
    attempt = 0
    while True:
        try:
            if attempt < fires["device_unavailable"]:
                raise FAULT_ERRORS["device_unavailable"](
                    f"device unavailable at {scope}"
                )
            cost = link.send_to_card(parts.size_bytes[member])
            pcie += cost
            if attempt < fires["pcie_error"]:
                raise FAULT_ERRORS["pcie_error"](
                    f"DMA transfer failed at {scope}"
                )
            report = engine.run_many(
                parts, [member], match_plan, collect_results
            )[0]
            if attempt < fires["kernel_timeout"]:
                overhead += report.seconds
                raise FAULT_ERRORS["kernel_timeout"](
                    f"kernel watchdog expired at {scope}"
                )
            if attempt < fires["bram_soft_error"]:
                overhead += report.seconds
                raise FAULT_ERRORS["bram_soft_error"](
                    f"BRAM soft error at {scope}"
                )
            return report, pcie, overhead, backoff_total, events, None
        except TransientDeviceError as exc:
            if attempt >= policy.max_retries:
                return (None, pcie, overhead, backoff_total, events,
                        exc.kind)
            backoff = policy.backoff_seconds(
                core.backoff_seed, attempt, *scope,
            )
            events.append(FaultEvent(
                kind=exc.kind, scope=scope, attempt=attempt,
                action="retry", backoff_seconds=backoff,
                device=core.device,
            ))
            # Backoff is charged, not slept: it delays the modeled
            # FPGA-side critical path and is booked as stage wall time.
            overhead += backoff
            backoff_total += backoff
            attempt += 1


def _tightened_subpartitions(
    part: CST,
    order: tuple[int, ...],
    limits: PartitionLimits,
) -> tuple[PartitionSet, PartitionStats] | None:
    """Re-split a failed partition under a halved ``delta_S``.

    Smaller pieces shorten kernel residency, so a partition that keeps
    hitting watchdog-style faults gets another chance as several
    quicker launches. Returns ``None`` when the partition cannot be
    re-split (already minimal, or the tightened limits are infeasible).

    Algorithm 2 is deterministic, so this runs uncached and free of
    context state — which is what lets the whole ladder execute inside
    a worker process. Ladder re-splits are rare (faults only), so the
    lost memoization costs wall time on no happy path.
    """
    tightened = PartitionLimits(
        max_bytes=max(limits.max_bytes // 2, ENTRY_BYTES),
        max_degree=limits.max_degree,
    )
    try:
        parts, stats = partition_to_list(part, order, tightened)
    except PartitionError:
        return None
    if len(parts) <= 1:
        return None
    return parts, stats


def _is_clean(core: SupervisorCore, scope: tuple, ladder_replay: dict) -> bool:
    """Whether a partition's launch is one clean attempt: no fault of
    any kind fires at ``scope`` and the journal holds no ladder rung
    for it."""
    fplan = core.fault_plan
    return scope not in ladder_replay and (
        fplan is None
        or not any(fplan.fires(kind, *scope) for kind in FAULT_ERRORS)
    )


def _run_cpu_window(
    ref: PartitionRef, order: tuple[int, ...]
) -> list[tuple[list[tuple[int, ...]], CpuMatchCounters]]:
    """Host matcher over each member of ``ref``, a window of CPU-share
    (or one fallback) partitions — the CPU task of the execute stage.

    Returns one ``(found, counters)`` per member, in member order.
    Counters are private to each partition and merged by the caller in
    partition order; integer sums are order-independent, so the
    modeled CPU-share seconds are identical to a serial loop.
    """
    parts = resolve_partition(ref)
    out = []
    for m in ref.members:
        counters = CpuMatchCounters()
        found = cst_embeddings(parts[m], order, counters=counters)
        out.append((found, counters))
    return out


def _supervise_partition(
    core: SupervisorCore,
    order: tuple[int, ...],
    match_plan: MatchPlan,
    limits: PartitionLimits | None,
    collect_results: bool,
    ladder_replay: dict,
    parts: PartitionSet,
    member: int,
    idx: int,
    journal_append: Callable[[dict], Any] | None = None,
) -> PartitionOutcome:
    """Degradation ladder for FPGA partition ``idx``, member ``member``
    of ``parts``, in a window (:func:`_run_window`), inline or in a
    pool worker.

    ``core`` is the extracted, picklable
    :class:`~repro.runtime.faults.SupervisorCore`. Fault decisions and
    backoff are pure in the seed and scope, so a worker process
    reproduces the parent's schedule bit-identically.

    An explicit worklist replaces the old recursive ``supervise``
    closure, so arbitrarily deep re-partition ladders cannot hit
    Python's recursion limit. Sub-partitions are pushed in reverse so
    the LIFO pop order equals the old depth-first traversal, which
    keeps fault-event order — and therefore the health record —
    bit-identical to serial execution. Everything the ladder produces
    is accumulated privately in a :class:`PartitionOutcome` — including
    CPU-fallback matching, which runs inside the task so the outcome
    is a self-contained, journalable unit; the stage merges outcomes
    in partition-index order.

    With a run journal active, each rung decision (retries exhausted →
    re-partition or CPU fallback) becomes a write-ahead ``ladder``
    record: through ``journal_append`` the moment it is decided when
    the task runs inline, or accumulated on
    ``out.ladder_records`` and journaled by the parent just before the
    partition record when the task runs in a worker process (the
    journal's fd does not cross that boundary). Either way the record
    precedes its partition record in the file, so a resumed run finds
    the rungs of any partition that never completed and *continues*
    the ladder: already-exhausted retry attempts are replayed from the
    journal (same charged backoff and wasted work, same fault events)
    instead of being re-attempted. ``ladder_replay`` carries those
    records in (the parent reads the journal; workers must not).
    """
    policy = core.retry_policy
    engine = FastEngine(core.fpga, core.engine_variant,
                        trace_modules=core.trace_modules)
    link = PcieLink(core.fpga)
    out = PartitionOutcome()
    stack = [(parts, member, ("partition", idx), True)]
    while stack:
        cur, m, scope, may_repartition = stack.pop()
        replayed = ladder_replay.get(scope)
        if replayed is not None:
            # The journal already saw this scope exhaust its retries:
            # continue the ladder from the recorded rung instead of
            # re-running the attempts.
            report = None
            pcie = replayed["pcie_seconds"]
            overhead = replayed["overhead_seconds"]
            backoff = replayed["backoff_wall_seconds"]
            events = [event_from_dict(e) for e in replayed["events"]]
            last_kind = replayed["kind"]
        else:
            report, pcie, overhead, backoff, events, last_kind = (
                _attempt_partition(
                    core, engine, link, cur, m, scope,
                    match_plan, collect_results,
                )
            )
        out.pcie_seconds += pcie
        out.overhead_seconds += overhead
        out.backoff_wall_seconds += backoff
        out.events.extend(events)
        if report is not None:
            out.reports.append(report)
            # One timeline segment per successful launch: the transfer
            # (including wasted attempts) and the card-side residency
            # (kernel plus wasted kernel work and backoff).
            out.segments.append((pcie, report.seconds + overhead))
            continue
        split = None
        if may_repartition and limits is not None:
            split = _tightened_subpartitions(cur[m], order, limits)
        if replayed is None:
            # Write-ahead: the rung decision is durable (or queued for
            # the parent's result-merge append) before the
            # re-partition/fallback work starts.
            record = {
                "type": "ladder",
                "index": idx,
                "scope": list(scope),
                "kind": last_kind,
                "action": (
                    "repartition" if split is not None else "cpu_fallback"
                ),
                "pcie_seconds": pcie,
                "overhead_seconds": overhead,
                "backoff_wall_seconds": backoff,
                "events": [e.to_dict() for e in events],
            }
            if journal_append is not None:
                journal_append(record)
            else:
                out.ladder_records.append(record)
        if split is not None:
            subparts, stats = split
            out.events.append(FaultEvent(
                kind=last_kind, scope=scope,
                attempt=policy.max_retries, action="repartition",
                device=core.device,
            ))
            host_cost = core.host_seconds(stats.total_bytes // ENTRY_BYTES)
            # Re-partitioning runs on the host, not the card: it is
            # part of the flat fault overhead but stays out of the
            # overlapped card timeline (tracked separately).
            out.overhead_seconds += host_cost
            out.host_overhead_seconds += host_cost
            out.segments.append((pcie, overhead))
            for j in reversed(range(len(subparts))):
                stack.append((subparts, j, (*scope, j), False))
            continue
        out.events.append(FaultEvent(
            kind=last_kind, scope=scope,
            attempt=policy.max_retries, action="cpu_fallback",
            device=core.device,
        ))
        out.segments.append((pcie, overhead))
        out.fallbacks += _run_cpu_window(PartitionRef(cur, (m,)), order)
    return out


def _run_window(
    core: SupervisorCore,
    order: tuple[int, ...],
    match_plan: MatchPlan,
    limits: PartitionLimits | None,
    collect_results: bool,
    ladder_replay: dict,
    ref: PartitionRef,
    idxs: tuple[int, ...],
    journal_append: Callable[[dict], Any] | None = None,
) -> list[PartitionOutcome]:
    """One window of a device queue: the FPGA task of the execute stage.

    ``ref``'s members are consecutive pending partitions of one queue,
    read in place from the run's FPGA set, with their partition indices
    in ``idxs``. The clean ones (:func:`_is_clean`) launch together in
    one :meth:`FastEngine.run_many` call; each gets
    the outcome the ladder gives one clean attempt: one transfer, one
    ``(pcie, kernel)`` segment and no fault events. Reports equal
    single launches field for field, so the outcomes do too. Every
    other member walks the ladder (:func:`_supervise_partition`).
    Outcomes come back in window order. Every input but
    ``journal_append`` is picklable, so the task runs inline and in
    pool workers alike.
    """
    parts = resolve_partition(ref)
    clean = [
        k for k, i in enumerate(idxs)
        if _is_clean(core, ("partition", i), ladder_replay)
    ]
    engine = FastEngine(core.fpga, core.engine_variant,
                        trace_modules=core.trace_modules)
    link = PcieLink(core.fpga)
    reports = engine.run_many(parts, [ref.members[k] for k in clean],
                              match_plan, collect_results)
    outcomes: dict[int, PartitionOutcome] = {}
    for k, report in zip(clean, reports):
        pcie = link.send_to_card(parts.size_bytes[ref.members[k]])
        outcomes[k] = PartitionOutcome(
            reports=[report],
            segments=[(pcie, report.seconds + 0.0)],
            pcie_seconds=pcie,
        )
    return [
        outcomes[k] if k in outcomes else _supervise_partition(
            core, order, match_plan, limits, collect_results,
            ladder_replay, parts, ref.members[k], i, journal_append,
        )
        for k, i in enumerate(idxs)
    ]


def _cpu_seconds(
    ctx: RunContext,
    counters: CpuMatchCounters,
    data: Graph,
    threads: int,
    efficiency: float,
) -> float:
    """Modeled host seconds of basic-matcher work spread over
    ``threads`` cores at ``efficiency`` (CPU share and fallback)."""
    serial = ctx.cpu_cost.seconds(
        OpCounters(
            recursive_calls=counters.recursive_calls,
            extensions=counters.extensions_generated,
            edge_checks=counters.edge_checks,
            embeddings=counters.embeddings,
        ),
        data.average_degree(),
        data.num_vertices,
    )
    return serial / max(1.0, threads * efficiency)


def execute_stage(
    ctx: RunContext,
    plan: StagePlan,
    work: ScheduledWork,
    data: Graph,
    engine_variant: str,
    collect_results: bool = False,
    cpu_share_threads: int = 8,
    cpu_thread_efficiency: float = 0.45,
    limits: PartitionLimits | None = None,
    placement: Sequence[DeviceQueue] | None = None,
) -> ExecuteOutcome:
    """Kernel over each device's queue + basic matcher over CPU partitions.

    ``placement`` is the ``schedule`` stage's output: one
    :class:`DeviceQueue` per device (``None`` queues every FPGA
    partition on the context's one device). Every device runs its own
    queue over its own PCIe link, so transfers, kernels, the result
    fetch and the overlap timeline below are all per device.

    The stage's modeled time follows the Section V-C overlap rule:
    ``max(cpu_share, fpga_side) + fallback``, where the FPGA side is
    the slowest device (Section VII-E's makespan). With ``buffers = 1``
    (the default) a device's time is the flat serial sum
    ``pcie + kernel + fault_overhead``; with ``buffers >= 2`` it is the
    double-buffered pipeline of :func:`overlap_timeline`, where the
    transfer of partition *i* overlaps the kernels of the previous
    ``buffers - 1`` launches (host-side re-partition cost and the
    result fetch stay serial). Independent partitions — FPGA and
    CPU-share alike — are dispatched through
    :func:`~repro.runtime.executor.dispatch_partitions`; results merge
    in partition-index order, so counts, results, modeled seconds, and
    the health record do not depend on ``workers``.

    Every FPGA partition runs under a supervisor implementing the
    degradation ladder (see docs/robustness.md) with its device's
    config; without a fault plan on the context that is a single clean
    launch:

    1. transient faults retry under ``ctx.retry_policy`` (backoff
       charged to wall and modeled time);
    2. a partition that exhausts retries is re-partitioned under a
       tightened ``delta_S`` (when ``limits`` is given and the piece is
       splittable) and each sub-partition retried;
    3. anything still failing is re-routed to the CPU matcher, which
       is exact on any CST partition (Theorem 1), so embedding counts
       are identical under every recoverable fault schedule.

    Recovery costs are charged as ``fault_overhead_seconds`` on the
    FPGA side of the overlap and ``fallback_seconds`` after it; both
    are exactly zero — and the arithmetic unchanged — without faults.
    On a pool of several devices each fault event carries its device
    index, so the health ledger books it on the card that ran it.

    With ``ctx.journal`` set, the stage is crash-safe: the journal
    header pins the run fingerprint and every completed partition is
    appended as one durable record the moment it finishes. In resume
    mode, journaled partitions are replayed (bit-identical counts,
    modeled seconds, and fault events) and only the remaining worklist
    is dispatched; a fingerprint mismatch raises
    :class:`~repro.common.errors.JournalMismatchError` before any work
    runs.
    """
    n_fpga = len(work.fpga_parts)
    n_cpu = len(work.cpu_parts)
    queues = (
        tuple(placement) if placement is not None
        else _one_device(ctx, work)
    )
    pooled = len(queues) > 1
    q = plan.query
    exec_cfg = ctx.executor
    journal = ctx.journal
    ladder_replay = (
        journal.ladder_records()
        if journal is not None and journal.resume else {}
    )
    # A pooled device idles when its queue is empty; the one device of
    # a single-device run always fetches results.
    active = [dq for dq in queues if dq.partitions or not pooled]
    with ctx.stage("execute") as st:
        health = ctx.health
        health.device_status.setdefault(0, "ok")

        # -- journal open / replay -------------------------------------
        outcomes: dict[int, PartitionOutcome] = {}
        cpu_done: dict[int, tuple[list, CpuMatchCounters]] = {}
        if journal is not None:
            total_bytes = sum(work.fpga_parts.size_bytes) + sum(
                work.cpu_parts.size_bytes
            )
            # The placement joins the fingerprint wherever it is not
            # simply everything on the context's device.
            layout = ()
            if pooled or queues[0].fpga != ctx.fpga:
                layout = tuple(
                    (dq.index, dq.part, repr(dq.fpga), dq.partitions)
                    for dq in queues
                )
            fingerprint = run_fingerprint(
                ctx, plan, data, engine_variant,
                (n_fpga, n_cpu, total_bytes),
                exec_cfg.buffers, collect_results, extra=layout,
            )
            journal.ensure_header(
                fingerprint,
                backend=ctx.current_metrics.backend,
                fpga_partitions=n_fpga,
                cpu_partitions=n_cpu,
            )
            if journal.resume:
                for i, rec in journal.partition_records().items():
                    if 0 <= i < n_fpga:
                        outcomes[i] = outcome_from_record(rec)
                for j, rec in journal.cpu_records().items():
                    if not 0 <= j < n_cpu:
                        continue
                    stored = rec.get("results")
                    found = (
                        [tuple(r) for r in stored]
                        if stored is not None
                        else [()] * rec["embeddings"]
                    )
                    cpu_done[j] = (found, counters_from_dict(rec["counters"]))
        resumed = len(outcomes) + len(cpu_done)

        # -- deadline cancellation points ------------------------------
        # The budget is checked against the modeled cost of each
        # device's *contiguous prefix* of completed queue entries
        # (flat pcie + kernel + fault overhead, on top of the modeled
        # time of the earlier stages); the slowest device's prefix
        # counts, as the makespan does. Prefix costs are fixed by the
        # queues, not by completion order, and the budget is checked
        # after each single advance, so whether a run is cancelled,
        # and on one device at which prefix — though not which extra
        # partitions the pool happened to finish — is identical at
        # any worker count. Every checked outcome is already journaled, so a cancelled
        # run's journal resumes bit-identically.
        token = ctx.cancellation
        base_modeled = ctx.current_metrics.modeled_seconds
        # Per active device: [queue position, base + prefix cost].
        deadline_prefix = [[0, base_modeled] for _ in active]

        def check_deadline() -> None:
            # Checked after every single advance: on one device, the
            # budget runs out at the same prefix whatever order windows
            # land in. (A prefix of 0 is the stage-entry check.)
            if token is None:
                return
            for dq, prefix in zip(active, deadline_prefix):
                while (
                    prefix[0] < len(dq.partitions)
                    and dq.partitions[prefix[0]] in outcomes
                ):
                    out = outcomes[dq.partitions[prefix[0]]]
                    prefix[1] += (
                        out.pcie_seconds
                        + sum(r.seconds for r in out.reports)
                        + out.overhead_seconds
                    )
                    prefix[0] += 1
                    token.check(
                        max(cost for _, cost in deadline_prefix),
                        "execute partition prefix "
                        f"{sum(done for done, _ in deadline_prefix)}",
                    )

        check_deadline()  # a replayed prefix may already exceed it

        # FPGA and CPU-share partitions are all independent, so one
        # dispatch covers both; only work the journal has not already
        # completed is dispatched. Each device queue's pending FPGA
        # partitions split, in queue order, into windows of at most
        # FastEngine.lockstep_window partitions and of at most
        # ``ceil(pending / workers)``, so the pool gets a share per
        # worker; the pending CPU share splits by the second rule
        # alone, so it is one window inline. Each FPGA window carries
        # its device's supervision core. Completion callbacks run in
        # this process and persist each outcome as it lands.
        windows: list[tuple[SupervisorCore, tuple[int, ...]]] = []
        for dq in queues:
            queued = [i for i in dq.partitions if i not in outcomes]
            if not queued:
                continue
            core = SupervisorCore(
                fpga=dq.fpga,
                engine_variant=engine_variant,
                retry_policy=ctx.retry_policy,
                fault_plan=ctx.fault_plan,
                seed=ctx.seed,
                trace_modules=ctx.tracer.enabled,
                cpu_cost=ctx.cpu_cost,
                avg_degree=data.average_degree(),
                num_vertices=data.num_vertices,
                device=dq.index if pooled else None,
            )
            size = min(
                FastEngine(dq.fpga).lockstep_window(plan.match_plan),
                -(-len(queued) // exec_cfg.workers),
            )
            windows += [
                (core, tuple(queued[start:start + size]))
                for start in range(0, len(queued), size)
            ]
        pending_cpu = [j for j in range(n_cpu) if j not in cpu_done]
        size = max(1, -(-len(pending_cpu) // exec_cfg.workers))
        cpu_windows = [
            tuple(pending_cpu[start:start + size])
            for start in range(0, len(pending_cpu), size)
        ]

        # Inline supervisors journal each ladder rung write-ahead; pool
        # workers cannot reach the journal fd, so their rung records
        # ride back on the outcome and on_done appends them before the
        # partition record, preserving replay order.
        pooled_tasks = uses_pool(exec_cfg, len(windows) + len(cpu_windows))
        journal_append = (
            journal.append
            if journal is not None and journal.active and not pooled_tasks
            else None
        )
        tasks: list[Task] = [
            (_run_window,
             (core, plan.order, plan.match_plan, limits, collect_results,
              ladder_replay, PartitionRef(work.fpga_parts, window),
              window, journal_append))
            for core, window in windows
        ]
        tasks += [
            (_run_cpu_window, (PartitionRef(work.cpu_parts, window),
                               plan.order))
            for window in cpu_windows
        ]

        def on_done(pos: int, result: Any) -> None:
            if pos < len(windows):
                # One cancellation point per partition, in queue order.
                for i, out in zip(windows[pos][1], result):
                    outcomes[i] = out
                    if journal is not None:
                        for rec in out.ladder_records:
                            journal.append(rec)
                        journal.append(
                            outcome_to_record(i, out, collect_results)
                        )
                    check_deadline()
                return
            for j, (found, counters) in zip(
                cpu_windows[pos - len(windows)], result
            ):
                cpu_done[j] = (found, counters)
                if journal is not None:
                    journal.append({
                        "type": "cpu",
                        "index": j,
                        "embeddings": len(found),
                        "counters": counters_to_dict(counters),
                        "results": (
                            [list(r) for r in found]
                            if collect_results else None
                        ),
                    })

        dispatch_facts = dispatch_partitions(ctx, tasks, on_done)

        # -- merge in partition-index order ----------------------------
        backoff_wall = 0.0
        for i in range(n_fpga):
            out = outcomes[i]
            backoff_wall += out.backoff_wall_seconds
            for event in out.events:
                health.record(event)
        # Backoff is charged, not slept: it is booked as stage wall
        # time on top of the real elapsed time (zero without faults).
        st.wall_seconds += backoff_wall

        cpu_counters = CpuMatchCounters()
        cpu_embeddings = 0
        cpu_results: list[tuple[int, ...]] = []
        for j in range(n_cpu):
            found, counters = cpu_done[j]
            cpu_counters.merge(counters)
            cpu_embeddings += len(found)
            if collect_results:
                cpu_results.extend(found)
        cpu_share_seconds = _cpu_seconds(
            ctx, cpu_counters, data, cpu_share_threads, cpu_thread_efficiency
        )

        # Fallback partitions run on the host *after* their FPGA
        # attempts failed, so their time cannot hide in the overlap
        # window; it is charged on top of the stage total. The matching
        # itself happened inside each supervisor task (which is what
        # makes an outcome journalable as one record); here the
        # counters merge in partition-index, then ladder, order.
        fallback_counters = CpuMatchCounters()
        for i in range(n_fpga):
            for found, counters in outcomes[i].fallbacks:
                fallback_counters.merge(counters)
                cpu_embeddings += len(found)
                if collect_results:
                    cpu_results.extend(found)
        fallback_seconds = _cpu_seconds(
            ctx, fallback_counters, data,
            cpu_share_threads, cpu_thread_efficiency,
        )

        # -- per device, in queue order --------------------------------
        tracer = ctx.tracer
        runs: list[DeviceRun] = []
        card_schedules = []
        fault_overhead = 0.0
        for dq in active:
            kernel = KernelReport(
                variant=engine_variant, clock_mhz=dq.fpga.clock_mhz
            )
            if collect_results:
                kernel.results = []
            pcie = overhead = host_overhead = 0.0
            segments: list[tuple[float, float]] = []
            first_segment: dict[int, int] = {}
            for i in dq.partitions:
                out = outcomes[i]
                for report in out.reports:
                    kernel.merge(report)
                pcie += out.pcie_seconds
                overhead += out.overhead_seconds
                host_overhead += out.host_overhead_seconds
                first_segment[i] = len(segments)
                segments.extend(out.segments)
            fetch = PcieLink(dq.fpga).fetch_from_card(
                kernel.embeddings * q.num_vertices * ENTRY_BYTES
            )
            pcie += fetch
            schedule = overlap_schedule(segments, exec_cfg.buffers)
            timeline = schedule[-1][3] if schedule else 0.0
            if exec_cfg.buffers <= 1:
                # The exact pre-pipeline arithmetic: a flat serial sum.
                seconds = pcie + kernel.seconds + overhead
            else:
                # Double-buffered card timeline; host-side re-partition
                # cost and the single result fetch cannot overlap kernels.
                seconds = timeline + host_overhead + fetch
            fault_overhead += overhead
            runs.append(DeviceRun(dq.index, kernel, pcie, seconds, timeline))
            card_schedules.append(
                (dq, schedule, first_segment, host_overhead, timeline)
            )
            if tracer.enabled:
                # All modeled lanes are emitted here, after the
                # index-ordered merge, never from pool workers — the
                # modeled half of a trace is deterministic at any
                # ``workers`` (wall lanes are real time and are not).
                trace_device_lanes(
                    tracer, dq.index, schedule, kernel, dq.fpga,
                    part=dq.part,
                )
                if fetch:
                    tracer.span(
                        f"{device_lane_prefix(dq.index, dq.part)}/pcie",
                        "fetch results", timeline, fetch, clock=MODELED,
                    )
        if pooled:
            kernel_total = KernelReport(
                variant=engine_variant, clock_mhz=ctx.fpga.clock_mhz
            )
            if collect_results:
                kernel_total.results = []
            for run in runs:
                kernel_total.merge(run.kernel)
        else:
            kernel_total = runs[0].kernel
        pcie_seconds = sum((run.pcie_seconds for run in runs), 0.0)
        fpga_seconds = max((run.seconds for run in runs), default=0.0)

        if tracer.enabled:
            if cpu_share_seconds:
                tracer.span("host", "cpu share", 0.0,
                            cpu_share_seconds, clock=MODELED)
            for _, _, _, host_overhead, timeline in card_schedules:
                if host_overhead:
                    tracer.span("host", "repartition", timeline,
                                host_overhead, clock=MODELED)
            if fallback_seconds:
                tracer.span(
                    "host", "cpu fallback",
                    max(cpu_share_seconds, fpga_seconds),
                    fallback_seconds, clock=MODELED,
                )
            for dq, schedule, first_segment, _, timeline in card_schedules:
                for i in dq.partitions:
                    seg = first_segment[i]
                    at = schedule[seg][0] if seg < len(schedule) else timeline
                    for event in outcomes[i].events:
                        tracer.instant(
                            "faults", f"{event.kind}:{event.action}", at,
                            clock=MODELED, partition=i,
                            attempt=event.attempt,
                        )
            if resumed:
                tracer.count("journal_replays", resumed)

        st.modeled_seconds += (
            max(cpu_share_seconds, fpga_seconds) + fallback_seconds
        )
        st.note(
            overlap_timeline=(
                {str(run.index): run.timeline for run in runs}
                if pooled else runs[0].timeline
            ),
            kernel_seconds=sum((run.kernel.seconds for run in runs), 0.0),
            pcie_seconds=pcie_seconds,
            cpu_share_seconds=cpu_share_seconds,
            fpga_seconds=fpga_seconds,
            cycles=kernel_total.total_cycles,
            slr_crossing_cycles=kernel_total.slr_crossing_cycles,
            rounds=kernel_total.rounds,
            N=kernel_total.total_partials,
            M=kernel_total.total_edge_tasks,
            buffer_peak=max(kernel_total.buffer_peaks.values(), default=0),
            num_csts=kernel_total.num_csts,
            fault_overhead_seconds=fault_overhead,
            fallback_seconds=fallback_seconds,
            workers=exec_cfg.workers,
            buffers=exec_cfg.buffers,
            **dispatch_facts,
        )
        if pooled:
            st.note(
                device_seconds={str(run.index): run.seconds for run in runs},
                device_launches={
                    str(run.index): run.kernel.num_csts for run in runs
                },
            )
        if journal is not None:
            st.note(
                journaled=True,
                journal_path=str(journal.path),
                resumed_partitions=resumed,
            )
    return ExecuteOutcome(
        kernel=kernel_total,
        cpu_embeddings=cpu_embeddings,
        cpu_results=cpu_results,
        pcie_seconds=pcie_seconds,
        cpu_share_seconds=cpu_share_seconds,
        fault_overhead_seconds=fault_overhead,
        fallback_seconds=fallback_seconds,
        fpga_seconds=fpga_seconds,
        resumed_partitions=resumed,
        devices=runs,
    )


def merge_stage(
    ctx: RunContext,
    executed: ExecuteOutcome,
    collect_results: bool = False,
) -> MergedRun:
    """Combine FPGA and CPU outcomes into the run's bottom line.

    Total modeled seconds is the sum of the pipeline's per-stage
    modeled times (the execute stage already applied the CPU/FPGA
    overlap rule internally).
    """
    with ctx.stage("merge") as st:
        embeddings = executed.kernel.embeddings + executed.cpu_embeddings
        results = None
        if collect_results:
            results = list(executed.kernel.results or [])
            results.extend(executed.cpu_results)
        total_seconds = ctx.current_metrics.modeled_seconds
        st.note(embeddings=embeddings, total_seconds=total_seconds)
        if executed.resumed_partitions:
            st.note(resumed_partitions=executed.resumed_partitions)
    return MergedRun(
        embeddings=embeddings,
        total_seconds=total_seconds,
        results=results,
    )
