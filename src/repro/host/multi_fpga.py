"""Multi-FPGA extension (Section VII-E).

The paper notes that because every CST partition is an independent,
complete search space, FAST extends naturally to multiple FPGAs: "the
CPU can assign the CST structure to the FPGA with the minimum total
workload and collect final results after all the FPGAs complete their
tasks". Placement is the only multi-FPGA step, so this runner threads
the same ``plan -> build_cst -> partition -> schedule -> execute ->
merge`` stages as :class:`~repro.host.runtime.FastRunner` over a
shared :class:`RunContext` (a shared context lets multi-FPGA sweeps
reuse cached CSTs), and supplies only the ``schedule`` stage's
placement rule:

* partitions come out of the shared ``partition`` stage at
  ``delta = 0`` (memoized per configuration in the context's stage
  cache), together with each one's Algorithm 3 workload estimate;
* each is assigned to the device with the least accumulated estimated
  workload (greedy min-load, the online analogue of LPT), biased by
  the health ledger's per-device penalties;
* a dead or breaker-open device's queue is redistributed to the
  survivors by the same rule (failover).

The ``execute`` stage then runs one queue per device: every partition
is one supervised task under its device's config, with the
degradation ladder, per-partition journaling, deadline checks and
fault events stamped with the device index. Each device has its own
PCIe link, overlap timeline and result fetch; end-to-end time is host
preparation plus the slowest device (the makespan).

Beyond the paper's "N identical FPGAs", the runner accepts a
heterogeneous ``fleet`` of catalog parts
(:func:`repro.fpga.catalog.parse_fleet`, e.g. ``"u200,u280x2"``). A
fleet changes three things, none of them counts: Algorithm 2 runs
against the *tightest* device's ``delta_S`` / ``delta_D`` so every
partition fits every card; placement costs are normalised by each
part's clock and memory latency, so faster cards absorb more work; and
a partition whose CST would span SLRs on a candidate card has the
modeled crossing penalty added to that card's bid, steering it toward
single-SLR placements (docs/devices.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DeviceError, FatalDeviceError
from repro.costs.cpu import CpuCostModel
from repro.cst.partition import PartitionLimits
from repro.fpga.catalog import DeviceSpec, parse_fleet
from repro.fpga.config import FpgaConfig
from repro.fpga.report import KernelReport
from repro.graph.graph import Graph
from repro.query.query_graph import QueryGraph
from repro.runtime.context import RunContext, RunMetrics, StageMetrics
from repro.runtime.faults import DEVICE_DEAD, FaultEvent
from repro.runtime.stages import (
    DeviceQueue,
    ScheduledWork,
    build_cst_stage,
    execute_stage,
    ledger_scaled_limits,
    merge_stage,
    partition_stage,
    plan_stage,
    schedule_stage,
)
from repro.runtime.tracing import MODELED


@dataclass
class DeviceLoad:
    """One FPGA's accumulated assignment.

    ``workload`` is in the pool's placement-cost units: the raw
    Algorithm 2 workload estimate for a homogeneous pool (the paper's
    rule), clock/latency-normalised modeled cost for a heterogeneous
    fleet. ``part`` is the catalog part name when the device came from
    a fleet spec.
    """

    index: int
    workload: float = 0.0
    num_csts: int = 0
    kernel: KernelReport | None = None
    pcie_seconds: float = 0.0
    part: str | None = None

    @property
    def seconds(self) -> float:
        kernel = self.kernel.seconds if self.kernel else 0.0
        return self.pcie_seconds + kernel


@dataclass
class MultiFpgaResult:
    """Outcome of a multi-device run."""

    embeddings: int
    total_seconds: float
    build_seconds: float
    partition_seconds: float
    makespan_seconds: float
    devices: list[DeviceLoad]
    num_partitions: int
    metrics: RunMetrics | None = None

    @property
    def degraded(self) -> bool:
        """Whether any device died and its queue was redistributed."""
        return self.metrics is not None and self.metrics.health.degraded

    @property
    def load_imbalance(self) -> float:
        """Max device time over mean device time (1.0 = perfect)."""
        times = [d.seconds for d in self.devices if d.num_csts]
        if not times:
            return 1.0
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0

    def speedup_over(self, single: "MultiFpgaResult") -> float:
        """End-to-end speedup relative to another (e.g. 1-device) run."""
        if self.total_seconds == 0:
            return 1.0
        return single.total_seconds / self.total_seconds


@dataclass
class MultiFpgaRunner:
    """FAST across a pool of simulated FPGAs.

    Without a ``fleet`` the pool is ``num_devices`` identical copies of
    ``config`` (the paper's Section VII-E setting). A ``fleet`` — a
    tuple of :class:`~repro.fpga.catalog.DeviceSpec` or a spec string
    like ``"u200,u280x2"`` — makes the pool heterogeneous: one config
    per device, capacity-aware placement, SLR-aware bids, and
    part-labeled trace lanes. ``num_devices`` then follows the fleet.
    """

    num_devices: int = 2
    config: FpgaConfig = field(default_factory=FpgaConfig)
    variant: str = "sep"
    k_policy: int | str = "greedy"
    cpu_cost_model: CpuCostModel = field(default_factory=CpuCostModel)
    #: Shared execution context (see :class:`FastRunner.context`).
    context: RunContext | None = None
    #: Heterogeneous device fleet; ``None`` = ``num_devices`` x
    #: ``config``.
    fleet: tuple[DeviceSpec, ...] | str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.fleet, str):
            self.fleet = parse_fleet(self.fleet)
        elif self.fleet is not None:
            self.fleet = tuple(self.fleet)
        if self.fleet is not None:
            if not self.fleet:
                raise DeviceError("fleet spec resolves to zero devices")
            self.num_devices = len(self.fleet)
        if self.num_devices < 1:
            raise DeviceError("need at least one device")

    def _context(self) -> RunContext:
        if self.context is not None:
            return self.context
        return RunContext(fpga=self.config, cpu_cost=self.cpu_cost_model)

    def _device_configs(self, ctx: RunContext) -> list[FpgaConfig]:
        """Per-device configs, in device-index order."""
        if self.fleet is not None:
            return [spec.config for spec in self.fleet]
        return [ctx.fpga] * self.num_devices

    def _device_part(self, index: int) -> str | None:
        return self.fleet[index].part if self.fleet is not None else None

    def _bid_cost(
        self, cfg: FpgaConfig, workload: float, part_bytes: int
    ) -> float:
        """Modeled cost of one partition on one candidate device.

        Homogeneous pools keep the raw workload estimate — exactly the
        paper's min-workload rule, and bit-identical to the
        pre-catalog placement. A fleet normalises the estimate into
        modeled microseconds on the candidate: kernel cycles at the
        part's clock, plus the streaming CST load at its memory
        bandwidth/latency, plus the SLR crossing penalty whenever this
        partition's CST would span SLRs there — which is what makes
        placement prefer devices where the partition fits one SLR.
        """
        if self.fleet is None:
            return workload
        cycles = (
            workload
            + part_bytes / cfg.load_bytes_per_cycle
            + cfg.dram_latency
        )
        if cfg.slr_count > 1 and cfg.slr_crossing_penalty_cycles > 0:
            remote = cfg.slr_remote_fraction(part_bytes)
            cycles += cfg.slr_crossing_penalty_cycles * remote * workload
        return cycles / cfg.clock_mhz

    def _place(
        self,
        ctx: RunContext,
        work: ScheduledWork,
        configs: list[FpgaConfig],
        devices: list[DeviceLoad],
        st: StageMetrics,
    ) -> tuple[DeviceQueue, ...]:
        """Section VII-E placement, then dead/breaker-open failover."""
        ledger = ctx.health_ledger
        penalties = (
            ledger.penalties(self.num_devices)
            if ledger is not None else (0.0,) * self.num_devices
        )

        def placement_key(
            d: DeviceLoad, workload: float, part_bytes: int
        ) -> tuple[float, float, int]:
            # Section VII-E min-workload placement, biased by observed
            # health history: a flaky device's effective load is
            # inflated by its penalty, so its queue fills last, and the
            # penalty itself breaks ties at zero load toward healthy
            # devices. A heterogeneous fleet additionally adds this
            # partition's own normalised bid on the candidate (zero-
            # extra for homogeneous pools, where the bid is device-
            # independent), so a card whose SLRs the CST would span, or
            # whose clock is slower, bids higher. Placement never
            # changes counts — partitions are complete search spaces
            # wherever they run.
            bid = (
                self._bid_cost(configs[d.index], workload, part_bytes)
                if self.fleet is not None else 0.0
            )
            return (
                d.workload * (1.0 + penalties[d.index]) + bid,
                penalties[d.index],
                d.index,
            )

        def assign(pool: list[DeviceLoad], i: int) -> DeviceLoad:
            workload = work.fpga_parts.workloads[i]
            part_bytes = work.fpga_parts.size_bytes[i]
            target = min(
                pool, key=lambda d: placement_key(d, workload, part_bytes)
            )
            target.workload += self._bid_cost(
                configs[target.index], workload, part_bytes
            )
            target.num_csts += 1
            return target

        # Queues of partition indices, one per device.
        assignment: list[list[int]] = [[] for _ in devices]
        for i in range(len(work.fpga_parts)):
            assignment[assign(devices, i).index].append(i)
        st.note(
            num_devices=self.num_devices,
            csts_per_device=tuple(d.num_csts for d in devices),
        )
        if self.fleet is not None:
            st.note(fleet=tuple(s.part for s in self.fleet))
        if ledger is not None:
            st.note(device_penalties=penalties)

        health = ctx.health
        fplan = ctx.fault_plan
        dead = set()
        if fplan is not None:
            dead = {d.index for d in devices if fplan.device_dead(d.index)}
        # Circuit-breaker exclusions (serving layer): devices whose
        # breaker is open are kept out of placement and failover as if
        # dead, but recorded with their own status/event kind so the
        # health ledger does not book them as new death observations.
        opened: set[int] = set()
        if ctx.breaker is not None:
            opened = (
                set(ctx.breaker.open_devices(self.num_devices)) - dead
            )
        excluded = dead | opened
        if excluded and len(excluded) == len(devices):
            raise FatalDeviceError(
                f"all {self.num_devices} devices are dead or "
                f"breaker-open; no survivor to redistribute to"
            )
        for device in devices:
            if device.index in dead:
                status = "dead"
            elif device.index in opened:
                status = "open"
            else:
                status = "ok"
            health.mark_device(device.index, status)

        # Partition independence (Definition 2) makes failover trivial:
        # an excluded device's queue redistributes to the survivors
        # with minimum accumulated workload, exactly the Section VII-E
        # assignment rule re-applied.
        survivors = [d for d in devices if d.index not in excluded]
        for device in devices:
            if device.index not in excluded:
                continue
            kind = DEVICE_DEAD if device.index in dead else "breaker_open"
            for i in assignment[device.index]:
                target = assign(survivors, i)
                assignment[target.index].append(i)
                health.record(FaultEvent(
                    kind=kind,
                    scope=("device", device.index),
                    attempt=0,
                    action="failover",
                    device=target.index,
                ))
            assignment[device.index] = []
            device.workload = 0.0
            device.num_csts = 0
            if ctx.tracer.enabled:
                ctx.tracer.instant(
                    "faults", f"{kind}:failover", 0.0,
                    clock=MODELED, device=device.index,
                )
        st.note(
            dead_devices=tuple(sorted(dead)),
            breaker_open_devices=tuple(sorted(opened)),
        )
        return tuple(
            DeviceQueue(
                index=d.index,
                fpga=configs[d.index],
                partitions=tuple(assignment[d.index]),
                part=self._device_part(d.index),
            )
            for d in devices
        )

    def run(
        self,
        query: Graph | QueryGraph,
        data: Graph,
        order: tuple[int, ...] | None = None,
    ) -> MultiFpgaResult:
        """Match ``query`` using min-workload assignment of partitions."""
        ctx = self._context()
        ctx.begin_run("multi-fpga")

        plan = plan_stage(ctx, query, data, order)
        q = plan.query
        cst = build_cst_stage(ctx, plan, data)

        configs = self._device_configs(ctx)
        if self.fleet is None:
            limits = ctx.fpga.partition_limits(q)
        else:
            # Any partition may land on any card (including through
            # failover), so Algorithm 2 runs against the tightest
            # delta_S / delta_D across the fleet.
            limits = PartitionLimits(
                max_bytes=min(c.cst_budget_bytes(q) for c in configs),
                max_degree=min(c.max_ports for c in configs),
            )
        ledger = ctx.health_ledger
        if ledger is not None:
            # Pre-shrink delta_S when any device's history shows
            # residency faults: every partition may land on the
            # degraded card, so the whole worklist gets shorter
            # kernel residency (counts are delta_S-independent).
            worst = min(
                range(self.num_devices), key=ledger.delta_s_scale
            )
            limits = ledger_scaled_limits(ctx, limits, worst)
        work = partition_stage(
            ctx, data, cst, plan, limits,
            k_policy=self.k_policy, split_policy=ctx.split_policy,
        )
        devices = [
            DeviceLoad(index=i, part=self._device_part(i))
            for i in range(self.num_devices)
        ]
        placement = schedule_stage(
            ctx, work,
            place=lambda st: self._place(ctx, work, configs, devices, st),
        )
        executed = execute_stage(
            ctx, plan, work, data, self.variant,
            limits=limits, placement=placement,
        )
        merged = merge_stage(ctx, executed)
        metrics = ctx.finish_run()

        for run in executed.devices:
            devices[run.index].kernel = run.kernel
            devices[run.index].pcie_seconds = run.pcie_seconds
        return MultiFpgaResult(
            embeddings=merged.embeddings,
            total_seconds=merged.total_seconds,
            build_seconds=metrics.stages["build_cst"].modeled_seconds,
            partition_seconds=metrics.stages["partition"].modeled_seconds,
            makespan_seconds=executed.fpga_seconds,
            devices=devices,
            num_partitions=work.stats.num_partitions,
            metrics=metrics,
        )
