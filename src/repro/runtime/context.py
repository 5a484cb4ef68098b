"""Execution context shared by every backend run.

:class:`RunContext` is the single object threaded through the staged
pipeline (``plan -> build_cst -> partition -> schedule -> execute ->
merge``). It carries the device and cost-model configuration, a
:class:`StageCache` memoizing expensive stage outputs across runs, and
a :class:`RunMetrics` accumulator with one :class:`StageMetrics` entry
per stage of the current run.

Sharing one context across a sweep (the harness and every figure
driver do this) is what makes the CST cache effective: a delta or
engine-variant sweep re-runs the pipeline many times over the same
``(graph, query)`` pair, and every run after the first reuses the
cached CST instead of rebuilding it.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.common.errors import DeadlineExceededError
from repro.costs.cpu import CpuCostModel, OpCounters
from repro.costs.resources import ResourceLimits
from repro.fpga.catalog import DeviceSpec
from repro.fpga.config import FpgaConfig
from repro.graph.graph import Graph
from repro.runtime.executor import ExecutorConfig
from repro.runtime.faults import (
    FaultPlan,
    HealthReport,
    HostFaultPlan,
    RetryPolicy,
)
from repro.runtime.journal import DeviceHealthLedger, RunJournal
from repro.runtime.pool import PoolConfig, WorkerPool
from repro.runtime.shm import CstArena
from repro.runtime.tracing import MODELED, WALL, Tracer

#: Canonical stage order of the pipeline (documented in docs/runtime.md).
STAGES = ("plan", "build_cst", "partition", "schedule", "execute", "merge")


def build_worker_pool(
    executor: ExecutorConfig, host_faults: HostFaultPlan | None = None
) -> WorkerPool | None:
    """The warm worker pool ``executor`` calls for (``None`` when
    ``workers == 1``), injecting ``host_faults`` into its workers.

    The one constructor of both a run context's own pool and the
    serving layer's long-lived shared pool. Workers fork lazily on the
    pool's first run.
    """
    if executor.workers <= 1:
        return None
    return WorkerPool(PoolConfig(
        workers=executor.workers,
        watchdog_s=executor.watchdog_s,
        host_faults=host_faults,
    ))


@dataclass
class CancellationToken:
    """A modeled-time budget checked at the pipeline's safe points.

    ``budget_s`` is the job's deadline expressed in *modeled* seconds
    (``None`` disables cancellation). The pipeline consults the token
    at stage entry (:meth:`RunContext.stage`) and between partition
    completions inside the execute stage — points where all completed
    work is already journaled, so a cancelled run's journal resumes
    bit-identically. Because modeled seconds never depend on worker
    count or wall clock, whether a given run is cancelled is
    deterministic (docs/serving.md).
    """

    budget_s: float | None = None

    def exceeded(self, modeled_seconds: float) -> bool:
        return self.budget_s is not None and modeled_seconds >= self.budget_s

    def check(self, modeled_seconds: float, where: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget ran out."""
        if self.exceeded(modeled_seconds):
            raise DeadlineExceededError(
                f"deadline exceeded at {where}: modeled "
                f"{modeled_seconds:.9f}s >= budget {self.budget_s:.9f}s"
            )


@dataclass
class StageMetrics:
    """Measurements of one pipeline stage within one run.

    ``wall_seconds`` is real elapsed host time; ``modeled_seconds`` is
    the stage's contribution in the repo's modeled-time domain (zero
    for stages the paper does not charge, e.g. planning). ``extra``
    holds stage-specific structured facts (cycles, N, M, partition
    counts, buffer peaks, ...).
    """

    name: str
    wall_seconds: float = 0.0
    modeled_seconds: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def note(self, **facts: Any) -> None:
        """Record stage-specific facts into ``extra``."""
        self.extra.update(facts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "modeled_seconds": self.modeled_seconds,
            **self.extra,
        }


@dataclass
class RunMetrics:
    """Structured per-stage metrics of one backend run."""

    backend: str
    stages: dict[str, StageMetrics] = field(default_factory=dict)
    cache: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Robustness record: faults seen, retries, fallbacks, device
    #: status (see :class:`repro.runtime.faults.HealthReport`).
    health: HealthReport = field(default_factory=HealthReport)

    def stage(self, name: str) -> StageMetrics:
        """The metrics bucket for ``name``, created on first use."""
        if name not in self.stages:
            self.stages[name] = StageMetrics(name=name)
        return self.stages[name]

    @property
    def wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.stages.values())

    @property
    def modeled_seconds(self) -> float:
        return sum(s.modeled_seconds for s in self.stages.values())

    def to_dict(self) -> dict[str, Any]:
        """The metrics payload (see docs/runtime.md for the schema)."""
        return {
            "backend": self.backend,
            "stages": {n: s.to_dict() for n, s in self.stages.items()},
            "cache": self.cache,
            "health": self.health.to_dict(),
            "totals": {
                "wall_seconds": self.wall_seconds,
                "modeled_seconds": self.modeled_seconds,
            },
        }

    def to_payload(self) -> dict[str, Any]:
        """The exporter-facing metrics payload.

        Identical to :meth:`to_dict`; the name marks the schema the
        trace invariants (:func:`repro.runtime.tracing.
        check_trace_invariants`) and the Prometheus exposition are
        written against. The execute stage notes its ``overlap_*``
        facts into the stage buckets, so a plain ``match`` run and a
        ``--trace`` run read the same numbers from the same payload.
        """
        return self.to_dict()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache namespace."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class StageCache:
    """Memoization of expensive stage outputs across runs.

    Two namespaces are in use: ``"cst"`` (Algorithm 1 output, keyed by
    the data and query graphs) and ``"partition"`` (Algorithm 2 output
    routed by Algorithm 3, keyed additionally by the matching order,
    the delta_S / delta_D limits, the split policies, and delta). Keys
    rely on :class:`~repro.graph.graph.Graph` equality, which compares
    CSR content, so two structurally identical graphs share entries.

    The store is bounded: at most ``max_entries`` values live at once,
    evicted least-recently-used (a hit refreshes recency), so long
    harness sweeps cannot grow the cache without limit. Hits, misses,
    and evictions are counted per namespace and stamped into every
    run's metrics payload by :meth:`RunContext.finish_run`.

    Entries can be *pinned* (:meth:`pin`/:meth:`unpin`): the serving
    layer pins the CST of the batch it is currently coalescing so LRU
    pressure from other hot datasets cannot evict it mid-batch. A key
    may be pinned before its value exists. When every resident entry
    is pinned the bound is allowed to overflow temporarily rather
    than evicting pinned state.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 256) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._store: dict[tuple, Any] = {}
        self._pinned: set[tuple] = set()
        self._stats: dict[str, CacheStats] = {}
        # The serving thread inserts and evicts while the /metrics
        # scrape thread reads stats(); the lock keeps check-then-insert,
        # eviction and the stats snapshot atomic. Builds serialize.
        self._lock = threading.RLock()

    def namespace_stats(self, namespace: str) -> CacheStats:
        if namespace not in self._stats:
            self._stats[namespace] = CacheStats()
        return self._stats[namespace]

    def get_or_build(
        self, namespace: str, key: tuple, build: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(value, was_cached)`` for ``key`` in ``namespace``."""
        with self._lock:
            stats = self.namespace_stats(namespace)
            if not self.enabled:
                stats.misses += 1
                return build(), False
            full_key = (namespace, *key)
            if full_key in self._store:
                stats.hits += 1
                # LRU refresh: move the hit to the most-recent end.
                value = self._store.pop(full_key)
                self._store[full_key] = value
                return value, True
            stats.misses += 1
            value = build()
            while len(self._store) >= self.max_entries:
                # Evict the least-recently-used unpinned entry
                # (insertion order doubles as recency order under the
                # refresh above). If everything is pinned, overflow
                # the bound instead of dropping pinned state.
                evicted_key = next(
                    (k for k in self._store if k not in self._pinned), None
                )
                if evicted_key is None:
                    break
                self._store.pop(evicted_key)
                self.namespace_stats(evicted_key[0]).evictions += 1
            self._store[full_key] = value
            return value, False

    def pin(self, namespace: str, key: tuple) -> None:
        """Exempt ``key`` in ``namespace`` from LRU eviction."""
        with self._lock:
            self._pinned.add((namespace, *key))

    def unpin(self, namespace: str, key: tuple) -> None:
        """Make ``key`` in ``namespace`` evictable again."""
        with self._lock:
            self._pinned.discard((namespace, *key))

    def clear(self) -> None:
        self._store.clear()
        self._pinned.clear()

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict[str, dict[str, float]]:
        """Cumulative hit/miss counters per namespace."""
        with self._lock:
            return {n: s.to_dict() for n, s in sorted(self._stats.items())}


@dataclass
class RunContext:
    """Configuration + metrics + cache for pipeline execution.

    One context per experiment campaign; ``begin_run`` resets the
    per-run metrics while the cache (and its cumulative statistics)
    persists across runs.
    """

    fpga: FpgaConfig = field(default_factory=FpgaConfig)
    cpu_cost: CpuCostModel = field(default_factory=CpuCostModel)
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    delta: float = 0.1
    seed: int = 7
    #: Catalog identity of the (single) device; when set, ``fpga`` is
    #: replaced by the part's config at construction, and trace device
    #: lanes are labeled with the part name.
    device: DeviceSpec | None = None
    #: Heterogeneous multi-FPGA fleet (one spec per device, in device-
    #: index order); consumed by the ``multi-fpga`` backend. ``None``
    #: keeps the legacy "N copies of ``fpga``" pool.
    fleet: tuple[DeviceSpec, ...] | None = None
    #: Algorithm 2 split policy threaded to the partition stage
    #: (``"order"`` or ``"degree"``; see docs/cst.md).
    split_policy: str = "order"
    #: Injected-fault schedule; ``None`` (the default) runs fault-free
    #: with zero overhead on the happy path.
    fault_plan: FaultPlan | None = None
    #: Retry/backoff budget the execute-stage supervisor applies to
    #: transient device errors.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Concurrency (``workers``) and modeled overlap (``buffers``)
    #: knobs of the execute stage; the default is serial execution
    #: with no transfer/compute overlap (the original behavior).
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    #: Crash-safe run journal; when set, the execute stage records
    #: every completed partition outcome and (in resume mode) replays
    #: completed work instead of re-executing it. See
    #: :mod:`repro.runtime.journal` and docs/robustness.md.
    journal: RunJournal | None = None
    #: Accumulated device-health history; when set, the scheduler
    #: steers partitions away from flaky devices and pre-shrinks the
    #: effective delta_S for degraded ones, and ``finish_run`` folds
    #: each run's health report back in (persisting if path-backed).
    health_ledger: DeviceHealthLedger | None = None
    #: Per-job modeled-time deadline; checked at stage entry and
    #: between partition completions. ``None`` (the default) never
    #: cancels, preserving the standalone ``match`` behavior.
    cancellation: CancellationToken | None = None
    #: Per-device circuit breaker consulted by the multi-FPGA runner
    #: (duck-typed: ``open_devices(num_devices) -> set[int]``). Open
    #: devices are excluded from placement and failover as if dead;
    #: the serving layer owns the state machine
    #: (:class:`repro.serve.breaker.CircuitBreaker`).
    breaker: Any | None = None
    #: Span tracer (disabled by default); when enabled, every stage,
    #: partition, device queue, kernel module, fault, and journal
    #: append lands on a trace lane. See docs/observability.md.
    tracer: Tracer = field(default_factory=Tracer)
    cache: StageCache = field(default_factory=StageCache)
    metrics: RunMetrics | None = None
    history: list[RunMetrics] = field(default_factory=list)
    #: Cap on ``history`` so long sweeps do not grow without bound.
    max_history: int = 512
    #: Shared-memory CST plane for worker-pool dispatch
    #: (:mod:`repro.runtime.shm`). Created lazily by
    #: :meth:`ensure_arena` on the first pooled execute; a
    #: caller may also inject a longer-lived arena (the serving layer
    #: shares one across coalesced batches), in which case this
    #: context never closes it.
    arena: CstArena | None = None
    #: Whether :meth:`close` owns ``arena`` (set by ``ensure_arena``;
    #: injected arenas stay owned by their creator).
    arena_owned: bool = field(default=False, repr=False)
    #: Warm supervised worker pool for ``workers > 1`` dispatch
    #: (:mod:`repro.runtime.pool`). Created lazily by
    #: :meth:`ensure_pool`; the serving layer injects one shared pool
    #: into every job context so workers survive across batches, in
    #: which case this context never closes it. Wall-clock only.
    worker_pool: WorkerPool | None = None
    #: Whether :meth:`close` owns ``worker_pool`` (mirrors
    #: ``arena_owned``).
    worker_pool_owned: bool = field(default=False, repr=False)
    #: Injected *host* fault schedule (worker kills/stalls/shm loss)
    #: applied by the warm pool's workers; ``None`` runs host-fault
    #: free. Strictly wall-clock: never part of fingerprints.
    host_fault_plan: HostFaultPlan | None = None
    #: Structured JSONL event logger
    #: (:class:`repro.obs.logs.JsonLogger`), injected by the serving
    #: layer when ``--log-json`` is set; ``None`` disables. Borrowed:
    #: the context never closes it.
    log: Any | None = None

    def __post_init__(self) -> None:
        if self.device is not None:
            # The catalog identity wins over any directly-supplied
            # config: one source of truth for the device parameters.
            self.fpga = self.device.config
        if self.fleet is not None:
            self.fleet = tuple(self.fleet)

    @property
    def device_part(self) -> str | None:
        """The catalog part name of the single device, if known."""
        return self.device.part if self.device is not None else None

    def begin_run(self, backend: str) -> RunMetrics:
        """Start a fresh metrics record for one backend run."""
        self.metrics = RunMetrics(backend=backend)
        if len(self.history) >= self.max_history:
            del self.history[0]
        self.history.append(self.metrics)
        return self.metrics

    def finish_run(self) -> RunMetrics:
        """Stamp cache statistics and fold health into the ledger."""
        metrics = self.current_metrics
        metrics.cache = self.cache.stats()
        if self.health_ledger is not None:
            if self.health_ledger.path is not None:
                # Locked read-modify-write: concurrent runs sharing a
                # ledger file each fold their run in without losing
                # the other's update (docs/robustness.md).
                self.health_ledger.record_and_save(metrics)
            else:
                self.health_ledger.record_metrics(metrics)
        return metrics

    @property
    def current_metrics(self) -> RunMetrics:
        if self.metrics is None:
            self.metrics = RunMetrics(backend="ad-hoc")
        return self.metrics

    @property
    def health(self) -> HealthReport:
        """The current run's robustness record."""
        return self.current_metrics.health

    @contextmanager
    def stage(self, name: str) -> Iterator[StageMetrics]:
        """Time a stage; wall time accumulates into its bucket.

        With tracing enabled, each entry also lands one span per clock
        on the ``stages`` lane. Span starts are the run's cumulative
        seconds at entry and durations are the *bucket deltas* across
        the block, so per-stage span sums telescope exactly to the
        bucket totals — the invariant
        :func:`repro.runtime.tracing.check_trace_invariants` enforces.

        Stage entry is also a cancellation point: when the context
        carries a :class:`CancellationToken` whose modeled budget is
        already spent, the stage never starts and
        :class:`~repro.common.errors.DeadlineExceededError` propagates.
        """
        if self.cancellation is not None:
            self.cancellation.check(
                self.current_metrics.modeled_seconds, f"stage {name!r}"
            )
        st = self.current_metrics.stage(name)
        tracing = self.tracer.enabled
        if tracing:
            metrics = self.current_metrics
            wall_total0 = metrics.wall_seconds
            modeled_total0 = metrics.modeled_seconds
            wall_bucket0 = st.wall_seconds
            modeled_bucket0 = st.modeled_seconds
        t0 = time.perf_counter()
        try:
            yield st
        finally:
            # max() guards against timers too coarse to see tiny stages;
            # every recorded stage reports a nonzero wall time.
            st.wall_seconds += max(time.perf_counter() - t0, 1e-9)
            if tracing:
                self.tracer.span(
                    "stages", name, wall_total0,
                    st.wall_seconds - wall_bucket0, clock=WALL,
                )
                self.tracer.span(
                    "stages", name, modeled_total0,
                    st.modeled_seconds - modeled_bucket0, clock=MODELED,
                )

    def ensure_arena(self) -> CstArena | None:
        """The shared-memory CST plane, created on first use.

        Returns ``None`` when shared memory is unavailable on the
        platform (pool tasks then carry pickled partitions — same results,
        more wall clock).
        """
        if self.arena is not None and not self.arena.closed:
            return self.arena
        try:
            self.arena = CstArena()
        except OSError:
            self.arena = None
            return None
        self.arena_owned = True
        return self.arena

    def ensure_pool(self) -> WorkerPool | None:
        """The warm supervised worker pool, created on first use.

        Returns ``None`` for serial runs (``workers == 1``). Created
        after :meth:`ensure_arena` on the execute path, so freshly
        forked workers inherit the arena's attachments; segments placed
        later are attached on demand inside the workers. An owned pool
        is also closed when the context is garbage-collected, so a
        context nobody closes leaves no idle workers behind.
        """
        if self.worker_pool is None:
            self.worker_pool = build_worker_pool(
                self.executor, self.host_fault_plan
            )
            if self.worker_pool is not None:
                self.worker_pool_owned = True
                weakref.finalize(self, self.worker_pool.close)
        return self.worker_pool

    def close(self) -> None:
        """Release owned resources (idempotent).

        Closes the journal, stops an owned worker pool, and unlinks
        an owned arena's shared-memory segments — but only resources
        this context created itself; injected (serving-layer) pools
        and arenas outlive the job context that borrowed them.
        """
        if self.journal is not None:
            self.journal.close()
        if self.worker_pool is not None and self.worker_pool_owned:
            self.worker_pool.close()
            self.worker_pool = None
        if self.arena is not None and self.arena_owned:
            self.arena.close()
            self.arena = None

    def host_seconds(self, ops: int, data: Graph) -> float:
        """Modeled host time for ``ops`` index operations on ``data``."""
        return self.cpu_cost.seconds(
            OpCounters(index_build_ops=ops),
            data.average_degree(),
            data.num_vertices,
        )
