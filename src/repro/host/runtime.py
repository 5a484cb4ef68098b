"""End-to-end FAST runtime: the CPU-FPGA co-designed pipeline.

:class:`FastRunner` implements the full system of Fig. 2 over the
simulated device by threading the first-class stages of
:mod:`repro.runtime.stages` — ``plan -> build_cst -> partition ->
schedule -> execute -> merge`` — through a shared
:class:`~repro.runtime.context.RunContext`:

1. **plan**: choose the spanning tree and matching order, compile the
   static match plan;
2. **build_cst**: Algorithm 1 on the host (Section V-A), memoized in
   the context's stage cache;
3. **partition**: Algorithm 2 down to the device's BRAM/port limits
   (Section V-B), with Algorithm 3's delta-threshold CPU/FPGA routing
   of each emitted partition; under the ``share`` variant the
   partitioner may hand whole oversized CSTs to the CPU (Section VII-B);
4. **schedule**: record the CPU/FPGA split the routing arrived at and
   queue every FPGA partition on the one device;
5. **execute**: the FAST kernel on every FPGA partition (over the
   modeled PCIe link) and the basic backtracking matcher on every CPU
   partition;
6. **merge**: combine counts/results; modeled end-to-end time lets the
   CPU share overlap the FPGA phase as in the paper.

Host-side costs (CST build, partitioning, CPU matching) are modeled
from deterministic operation counts through the same
:class:`~repro.costs.cpu.CpuCostModel` the baselines use, keeping every
reported number in one modeled-time domain. Stage memoization never
changes modeled numbers — cached stages are charged the same modeled
time they would cost uncached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DeviceError
from repro.costs.cpu import CpuCostModel
from repro.fpga.config import FpgaConfig
from repro.fpga.report import KernelReport
from repro.graph.graph import Graph
from repro.query.query_graph import QueryGraph
from repro.runtime.context import RunContext, RunMetrics
from repro.runtime.stages import (
    build_cst_stage,
    execute_stage,
    ledger_scaled_limits,
    merge_stage,
    partition_stage,
    passthrough_partition_stage,
    plan_stage,
    schedule_stage,
)

#: Runner variants: the four kernel designs plus the final co-designed
#: system (FAST-SHARE, the paper's "FAST").
RUNNER_VARIANTS = ("dram", "basic", "task", "sep", "share")

#: Registry backend name per runner variant.
BACKEND_NAMES = {v: f"fast-{v}" for v in RUNNER_VARIANTS}


@dataclass
class FastRunResult:
    """End-to-end outcome of one FAST run."""

    variant: str
    embeddings: int
    total_seconds: float
    build_seconds: float
    partition_seconds: float
    pcie_seconds: float
    kernel_seconds: float
    cpu_share_seconds: float
    num_partitions: int
    num_cpu_csts: int
    cpu_workload_fraction: float
    kernel_report: KernelReport
    order: tuple[int, ...]
    results: list[tuple[int, ...]] | None = None
    cst_bytes: int = 0
    partition_stats: object = None
    #: Structured per-stage metrics of this run (wall + modeled times,
    #: cache hit flags, workload shape, health); see docs/runtime.md.
    metrics: RunMetrics | None = None

    @property
    def degraded(self) -> bool:
        """Whether recovery changed the planned CPU/FPGA placement."""
        return self.metrics is not None and self.metrics.health.degraded

    def summary(self) -> dict[str, object]:
        return {
            "variant": self.variant,
            "embeddings": self.embeddings,
            "seconds": self.total_seconds,
            "partitions": self.num_partitions,
            "cpu_csts": self.num_cpu_csts,
            "N": self.kernel_report.total_partials,
            "M": self.kernel_report.total_edge_tasks,
        }


@dataclass
class FastRunner:
    """The CPU-FPGA co-designed subgraph matcher."""

    config: FpgaConfig = field(default_factory=FpgaConfig)
    variant: str = "share"
    delta: float = 0.1
    k_policy: int | str = "greedy"
    #: CST split-vertex policy: "order" (Algorithm 2 verbatim) or
    #: "degree" (split the hub-row target; see repro.cst.partition).
    split_policy: str = "order"
    cpu_cost_model: CpuCostModel = field(default_factory=CpuCostModel)
    #: The host's cores are idle once partitioning finishes, so the
    #: CPU share of FAST-SHARE runs the basic matcher on all of them
    #: (the paper's machine has 8); modeled as ideal threads damped by
    #: an efficiency factor.
    cpu_share_threads: int = 8
    cpu_thread_efficiency: float = 0.45
    #: Shared execution context. When set, its device/cost config and
    #: stage cache are used (enabling CST reuse across runs); when
    #: ``None``, an ephemeral context is built from this runner's own
    #: fields on every ``run``.
    context: RunContext | None = None

    def __post_init__(self) -> None:
        if self.variant not in RUNNER_VARIANTS:
            raise DeviceError(
                f"unknown runner variant {self.variant!r}; "
                f"choose from {RUNNER_VARIANTS}"
            )

    # ------------------------------------------------------------------

    def _context(self) -> RunContext:
        if self.context is not None:
            return self.context
        return RunContext(
            fpga=self.config,
            cpu_cost=self.cpu_cost_model,
            delta=self.delta,
        )

    def run(
        self,
        query: Graph | QueryGraph,
        data: Graph,
        order: tuple[int, ...] | None = None,
        collect_results: bool = False,
    ) -> FastRunResult:
        """Match ``query`` against ``data`` end to end."""
        ctx = self._context()
        ctx.begin_run(BACKEND_NAMES[self.variant])

        plan = plan_stage(ctx, query, data, order)
        cst = build_cst_stage(ctx, plan, data)

        if self.variant == "dram":
            engine_variant = "dram"
            work = passthrough_partition_stage(ctx, cst)
            # The whole CST sits in card DRAM un-partitioned; there is
            # no delta_S to tighten, so the fault supervisor's ladder
            # skips re-partitioning and falls straight to the CPU.
            limits = None
        else:
            engine_variant = (
                "sep" if self.variant == "share" else self.variant
            )
            limits = ctx.fpga.partition_limits(plan.query)
            limits = ledger_scaled_limits(ctx, limits, device=0)
            work = partition_stage(
                ctx, data, cst, plan,
                limits=limits,
                k_policy=self.k_policy,
                split_policy=self.split_policy,
                delta=self.delta if self.variant == "share" else 0.0,
            )
        placement = schedule_stage(ctx, work)

        executed = execute_stage(
            ctx, plan, work, data, engine_variant,
            collect_results=collect_results,
            cpu_share_threads=self.cpu_share_threads,
            cpu_thread_efficiency=self.cpu_thread_efficiency,
            limits=limits,
            placement=placement,
        )
        merged = merge_stage(ctx, executed, collect_results)
        metrics = ctx.finish_run()

        stages = metrics.stages
        return FastRunResult(
            variant=self.variant,
            embeddings=merged.embeddings,
            total_seconds=merged.total_seconds,
            build_seconds=stages["build_cst"].modeled_seconds,
            partition_seconds=stages["partition"].modeled_seconds,
            pcie_seconds=executed.pcie_seconds,
            kernel_seconds=executed.kernel.seconds,
            cpu_share_seconds=executed.cpu_share_seconds,
            num_partitions=work.num_partitions,
            num_cpu_csts=len(work.cpu_parts),
            cpu_workload_fraction=work.cpu_fraction,
            kernel_report=executed.kernel,
            order=plan.order,
            results=merged.results,
            cst_bytes=cst.size_bytes(),
            partition_stats=work.stats,
            metrics=metrics,
        )
