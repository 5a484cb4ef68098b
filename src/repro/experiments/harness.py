"""Experiment harness.

Provides the shared machinery the per-figure drivers build on: name
resolution over the backend registry (every system evaluated in
Section VII), a grid runner over datasets x queries x algorithms, and
a uniform row format feeding the text reports in EXPERIMENTS.md.

All algorithm dispatch goes through
:data:`repro.runtime.registry.REGISTRY`; the harness owns no per-
algorithm construction logic. A grid (and each figure driver) shares
one :class:`~repro.runtime.context.RunContext`, so the CST/partition
stage cache is reused across the sweep.

All times are modeled seconds in one consistent domain (see DESIGN.md):
FPGA variants from the cycle model at 300 MHz, CPU algorithms from
operation counts at 2.1 GHz, GPU algorithms from the V100 roofline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.common.errors import BackendError, DeviceError, ExperimentError
from repro.common.tables import render_table
from repro.costs.cpu import CpuCostModel
from repro.costs.resources import ResourceLimits
from repro.fpga.catalog import get_device, load_catalog, parse_fleet
from repro.fpga.config import FpgaConfig
from repro.graph.graph import Graph
from repro.ldbc.datasets import load_dataset
from repro.ldbc.generator import LdbcDataset
from repro.ldbc.queries import BenchmarkQuery, all_queries, get_query
from repro.runtime.context import CancellationToken, RunContext, StageCache
from repro.runtime.executor import ExecutorConfig
from repro.runtime.faults import FaultPlan, HostFaultPlan, RetryPolicy
from repro.runtime.journal import DeviceHealthLedger, RunJournal
from repro.runtime.registry import REGISTRY
from repro.runtime.tracing import Tracer

#: The paper's display names for the Section VII systems, resolvable
#: by :func:`make_runner` (as is any registry name or alias).
ALGORITHMS = (
    "FAST", "FAST-DRAM", "FAST-BASIC", "FAST-TASK", "FAST-SEP",
    "CFL", "DAF", "CECI", "DAF-8", "CECI-8", "GpSM", "GSI",
)


@dataclass(frozen=True)
class HarnessConfig:
    """Shared configuration of one experiment campaign."""

    fpga: FpgaConfig = field(default_factory=FpgaConfig)
    cpu_cost: CpuCostModel = field(default_factory=CpuCostModel)
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    delta: float = 0.1
    seed: int = 7
    use_cache: bool = True
    #: Enable the stage-level CST/partition cache in contexts built
    #: from this config (``use_cache`` governs the *dataset* cache).
    stage_cache: bool = True
    #: Seed of the injected-fault schedule; ``None`` (the default)
    #: runs fault-free. See :class:`repro.runtime.faults.FaultPlan`.
    fault_seed: int | None = None
    #: Per-kind fault rates overriding the plan's defaults.
    fault_rates: tuple[tuple[str, float], ...] | None = None
    #: Retry budget for transient device faults (``None`` keeps the
    #: :class:`~repro.runtime.faults.RetryPolicy` default).
    max_retries: int | None = None
    #: Worker-pool width of the execute stage (wall-clock only;
    #: modeled seconds never depend on it).
    workers: int = 1
    #: On-card staging buffers of the modeled transfer/compute overlap
    #: pipeline (1 = the flat serial sum, the original model).
    buffers: int = 1
    #: Worker-pool kind for ``workers > 1``, kept so configs that name
    #: it keep working: the warm supervised process pool is the only
    #: one, and any other value is rejected.
    pool: str = "process"
    #: Warm-pool watchdog seconds before an in-flight dispatch is
    #: hedged (``--pool-watchdog``; 0 disables).
    pool_watchdog_s: float = 30.0
    #: Seed of the injected *host*-fault schedule (worker kills,
    #: stalls, shm loss at deterministic task indices); ``None`` runs
    #: host-fault free. Wall-clock only: counts, modeled seconds, and
    #: fingerprints are identical at any setting.
    host_fault_seed: int | None = None
    #: Per-kind host-fault rates overriding the plan's defaults.
    host_fault_rates: tuple[tuple[str, float], ...] | None = None
    #: Bound on live stage-cache entries (LRU-evicted beyond this).
    cache_max_entries: int = 256
    #: Write a crash-safe run journal here (see docs/robustness.md).
    journal_path: str | None = None
    #: Resume from an existing journal (implies journaling to it).
    resume_path: str | None = None
    #: Persistent device-health ledger steering scheduling decisions.
    health_ledger_path: str | None = None
    #: Enable the span tracer (off by default; see
    #: docs/observability.md). Tracing changes no counts, modeled
    #: seconds, or health bits — it only records the timeline.
    trace: bool = False
    #: Catalog part name the FPGA config is loaded from (overrides
    #: ``fpga``; see docs/devices.md). ``None`` keeps ``fpga`` as-is.
    device: str | None = None
    #: Heterogeneous fleet spec for the multi-fpga backend, e.g.
    #: ``"u200,u280x2"``. ``None`` keeps the homogeneous pool.
    fleet: str | None = None
    #: How Algorithm 2 picks the split vertex inside an oversized
    #: candidate set: ``"order"`` (paper) or ``"degree"``.
    split_policy: str = "order"
    #: Modeled-seconds deadline for each run built from this config;
    #: ``None`` never cancels. Exceeding it raises
    #: :class:`~repro.common.errors.DeadlineExceededError` at the next
    #: cancellation point (stage boundary / partition completion); the
    #: serving layer maps that to the ``DEADLINE`` status
    #: (docs/serving.md).
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.pool != "process":
            raise DeviceError(
                f"unknown pool {self.pool!r}; the warm process pool "
                f"is the only one"
            )


def tight_config(base: HarnessConfig | None = None) -> HarnessConfig:
    """A partition-stressed device: small BRAM and few ports.

    The paper's 35 MB card rarely forces partitioning on our ~1/1000
    datasets; the partitioning and scheduling studies (Figs. 8, 13)
    need a device whose limits actually bind. This shrinks BRAM and
    the Edge Validator port budget while keeping every latency ratio.
    """
    base = base or HarnessConfig()
    return dc_replace(
        base,
        fpga=FpgaConfig(
            bram_bytes=64 * 1024,
            batch_size=128,
            max_ports=32,
        ),
    )


@dataclass
class RunRow:
    """One (dataset, query, algorithm) measurement."""

    dataset: str
    query: str
    algorithm: str
    verdict: str
    seconds: float
    embeddings: int
    #: Whether the run recovered through the degradation ladder
    #: (re-partition / CPU fallback / device failover).
    degraded: bool = False

    def cells(self) -> list[object]:
        time_cell = (
            f"{self.seconds * 1e3:,.3f}" if self.verdict == "OK"
            else self.verdict
        )
        if self.degraded and self.verdict == "OK":
            time_cell = f"{time_cell}*"  # degraded but exact (see docs)
        return [self.dataset, self.query, self.algorithm, time_cell,
                self.embeddings if self.verdict == "OK" else "-"]


def make_context(
    config: HarnessConfig | None = None,
    cache: StageCache | None = None,
) -> RunContext:
    """A :class:`RunContext` mirroring one campaign's configuration.

    Pass an explicit ``cache`` to share CST/partition memoization
    across contexts with different deltas (the Fig. 13 sweep).
    """
    config = config or HarnessConfig()
    if cache is None:
        # Explicit None check: an *empty* StageCache is falsy (it has
        # __len__), and it must still be shared, not replaced.
        cache = StageCache(
            enabled=config.stage_cache,
            max_entries=config.cache_max_entries,
        )
    fault_plan = None
    if config.fault_seed is not None or config.fault_rates is not None:
        fault_plan = FaultPlan(
            seed=config.fault_seed or 0,
            rates=(
                dict(config.fault_rates)
                if config.fault_rates is not None else None
            ),
        )
    host_fault_plan = None
    if (
        config.host_fault_seed is not None
        or config.host_fault_rates is not None
    ):
        host_fault_plan = HostFaultPlan(
            seed=config.host_fault_seed or 0,
            rates=(
                dict(config.host_fault_rates)
                if config.host_fault_rates is not None else None
            ),
        )
    retry_policy = (
        RetryPolicy() if config.max_retries is None
        else RetryPolicy(max_retries=config.max_retries)
    )
    journal = None
    if config.resume_path is not None:
        journal = RunJournal(config.resume_path, resume=True)
    elif config.journal_path is not None:
        journal = RunJournal(config.journal_path)
    health_ledger = None
    if config.health_ledger_path is not None:
        health_ledger = DeviceHealthLedger.load(config.health_ledger_path)
    tracer = Tracer(enabled=config.trace)
    if journal is not None and config.trace:
        journal.on_append = tracer.on_journal_append
    catalog = None
    device = None
    fleet = None
    if config.device is not None or config.fleet is not None:
        catalog = load_catalog()
    if config.device is not None:
        device = get_device(config.device, catalog)
    if config.fleet is not None:
        fleet = parse_fleet(config.fleet, catalog)
    cancellation = (
        CancellationToken(config.deadline_s)
        if config.deadline_s is not None else None
    )
    return RunContext(
        tracer=tracer,
        cancellation=cancellation,
        fpga=device.config if device is not None else config.fpga,
        device=device,
        fleet=fleet,
        split_policy=config.split_policy,
        cpu_cost=config.cpu_cost,
        limits=config.limits,
        delta=config.delta,
        seed=config.seed,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        executor=ExecutorConfig(
            workers=config.workers,
            buffers=config.buffers,
            watchdog_s=config.pool_watchdog_s,
        ),
        host_fault_plan=host_fault_plan,
        journal=journal,
        health_ledger=health_ledger,
        cache=cache,
    )


def resolve_backend(name: str):
    """Registry lookup with the harness's error type."""
    try:
        return REGISTRY.get(name)
    except BackendError as exc:
        raise ExperimentError(str(exc)) from exc


def make_runner(
    name: str,
    config: HarnessConfig,
    context: RunContext | None = None,
):
    """Resolve the named backend; returns ``run(query, data)`` yielding
    a :class:`RunRow`-compatible ``(verdict, seconds, embeddings)``.

    ``name`` is any registered backend name or alias (``FAST``,
    ``fast-share``, ``CECI-8``, ...). A shared ``context`` keeps the
    stage cache warm across runners; without one, each runner gets its
    own context built from ``config``.
    """
    spec = resolve_backend(name)
    ctx = context if context is not None else make_context(config)

    def run(query: Graph, data: Graph) -> tuple[str, float, int]:
        out = spec.run(ctx, query, data)
        return out.verdict, out.seconds, out.embeddings

    return run


def resolve_queries(
    names: list[str] | None = None,
) -> list[BenchmarkQuery]:
    """Query objects for the given names (default: all nine)."""
    if names is None:
        return all_queries()
    return [get_query(n) for n in names]


def resolve_datasets(
    names: list[str], config: HarnessConfig
) -> list[LdbcDataset]:
    """Load the named datasets with the campaign's seed/cache policy."""
    return [
        load_dataset(n, use_cache=config.use_cache, seed=config.seed)
        for n in names
    ]


def run_grid(
    algorithm_names: list[str],
    dataset_names: list[str],
    query_names: list[str] | None = None,
    config: HarnessConfig | None = None,
    context: RunContext | None = None,
) -> list[RunRow]:
    """Run every algorithm on every (dataset, query) pair.

    One :class:`RunContext` spans the whole grid, so backends that
    build CSTs share one cached CST per (dataset, query) pair.
    """
    config = config or HarnessConfig()
    queries = resolve_queries(query_names)
    if context is None:
        context = make_context(config)
    rows: list[RunRow] = []
    for dataset in resolve_datasets(dataset_names, config):
        for query in queries:
            for name in algorithm_names:
                out = resolve_backend(name).run(
                    context, query.graph, dataset.graph
                )
                rows.append(RunRow(
                    dataset=dataset.name,
                    query=query.name,
                    algorithm=name,
                    verdict=out.verdict,
                    seconds=out.seconds,
                    embeddings=out.embeddings,
                    degraded=out.degraded,
                ))
    return rows


def render_rows(rows: list[RunRow], title: str) -> str:
    """Text table of grid rows (milliseconds, as the paper reports)."""
    return render_table(
        ["dataset", "query", "algorithm", "time_ms", "embeddings"],
        [r.cells() for r in rows],
        title=title,
    )


def check_agreement(rows: list[RunRow]) -> None:
    """All OK algorithms on one (dataset, query) must agree on counts."""
    seen: dict[tuple[str, str], int] = {}
    for row in rows:
        if row.verdict != "OK":
            continue
        key = (row.dataset, row.query)
        if key in seen and seen[key] != row.embeddings:
            raise ExperimentError(
                f"embedding count mismatch on {key}: "
                f"{seen[key]} vs {row.embeddings} ({row.algorithm})"
            )
        seen.setdefault(key, row.embeddings)
