"""The FAST matching engine - Algorithm 4 with the paper's variants.

The engine drives the four kernel modules round by round over one CST,
using the deepest-first expansion policy of Section VI-B (which bounds
every depth buffer at ``N_o`` entries). Matching is *functional* - the
embeddings found are exact - while a per-variant timing model charges
cycles for each round from the measured batch shape:

``dram``
    Fig. 5(a) with the CST resident in off-chip DRAM: serial modules,
    and every CST access pays the BRAM/DRAM latency gap (FAST-DRAM).
``basic``
    Serial modules, CST in BRAM after a streamed initial load
    (FAST-BASIC, Equation 2).
``task``
    Task parallelism: validators and synchronizer overlap the
    generator through FIFOs (FAST-TASK, Equation 3).
``sep``
    Separated t_v/t_n generators: all modules overlap (FAST-SEP,
    Equation 4).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DeviceError
from repro.cst.structure import CST
from repro.fpga.config import FpgaConfig
from repro.fpga.kernel import (
    DepthBuffer,
    MatchPlan,
    build_plan,
    edge_validate,
    expand_root,
    generate,
    synchronize,
    visited_validate,
)
from repro.fpga.pipeline import chained, overlapped, pipelined_cycles
from repro.fpga.report import KernelReport

#: Recognised engine variants, in the paper's optimisation order.
VARIANTS = ("dram", "basic", "task", "sep")


class FastEngine:
    """Simulates FAST over CSTs for one device configuration."""

    def __init__(self, config: FpgaConfig | None = None,
                 variant: str = "sep",
                 trace_modules: bool = False) -> None:
        if variant not in VARIANTS:
            raise DeviceError(
                f"unknown variant {variant!r}; choose from {VARIANTS}"
            )
        self.config = config or FpgaConfig()
        self.variant = variant
        # When set, every report carries per-round module occupancy
        # spans on the card's serial cycle clock (Fig. 5 lanes); off by
        # default so the hot path allocates nothing extra.
        self.trace_modules = trace_modules

    # ------------------------------------------------------------------

    def run(
        self,
        cst: CST,
        order: tuple[int, ...] | None = None,
        collect_results: bool = False,
        plan: MatchPlan | None = None,
    ) -> KernelReport:
        """Match one CST; returns the cycle-accounted report.

        ``order`` defaults to the BFS order of the CST's spanning
        tree. ``collect_results`` materialises embeddings (as tuples
        indexed by query vertex) instead of only counting them.
        """
        cfg = self.config
        if plan is None:
            if order is None:
                order = tuple(cst.tree.bfs_order)
            plan = build_plan(cst.query, order)
        report = KernelReport(variant=self.variant, clock_mhz=cfg.clock_mhz)
        report.num_csts = 1
        if collect_results:
            report.results = []
        trace = self.trace_modules
        cursor = 0.0
        if trace:
            report.module_spans = []
        if cst.is_empty():
            return report

        if self.variant != "dram":
            report.load_cycles += cfg.load_cycles(cst.size_bytes())
            if trace and report.load_cycles:
                report.module_spans.append(
                    ("load", 0.0, float(report.load_cycles))
                )
                cursor = float(report.load_cycles)

        n_steps = plan.num_steps
        buffers = [
            DepthBuffer(depth, cfg.batch_size) for depth in range(n_steps)
        ]  # buffers[d] holds partials with d matched vertices (d >= 1)
        root_cursor = 0
        root_total = cst.candidate_count(plan.order[0])
        rank_order = plan.order

        while True:
            # Deepest-first: find the deepest non-empty buffer.
            step = -1
            for d in range(n_steps - 1, 0, -1):
                if not buffers[d].is_empty:
                    step = d
                    break
            if step == -1:
                if root_cursor >= root_total:
                    break
                batch, root_cursor = expand_root(
                    cst, plan, root_cursor, cfg.batch_size
                )
            else:
                batch = generate(cst, plan, buffers[step], step,
                                 cfg.batch_size)

            bv = visited_validate(batch)
            bn = edge_validate(cst, plan, batch)
            pos, ids = synchronize(batch, bv, bn)

            flush_before = report.flush_cycles
            depth = batch.step + 1
            if depth == n_steps:
                report.embeddings += len(pos)
                if collect_results:
                    report.results.extend(
                        _to_query_indexed(ids, rank_order)
                    )
                report.flush_cycles += cfg.flush_cycles(
                    len(pos) * depth * 4
                )
            elif len(pos):
                buffers[depth].fill(pos, ids)

            report.rounds += 1
            report.total_partials += batch.n_new
            report.total_edge_tasks += batch.n_tasks
            report.total_pops += batch.n_consumed
            checks = plan.tasks_per_partial(batch.step)
            if trace:
                stages = self._stage_cycles(
                    batch.n_consumed, batch.n_new, batch.n_tasks, checks
                )
                round_cycles = self._CYCLE_MODELS[self.variant](
                    self, stages, batch.n_consumed, batch.n_new,
                    batch.n_tasks,
                )
                for lane, rel_start, rel_end in self._module_offsets(
                    stages, batch.n_consumed, batch.n_new, batch.n_tasks
                ):
                    if rel_end > rel_start:
                        report.module_spans.append(
                            (lane, cursor + rel_start, cursor + rel_end)
                        )
                cursor += round_cycles
                flush_delta = report.flush_cycles - flush_before
                if flush_delta:
                    report.module_spans.append(
                        ("flush", cursor, cursor + flush_delta)
                    )
                    cursor += flush_delta
            else:
                round_cycles = self._round_cycles(
                    batch.n_consumed, batch.n_new, batch.n_tasks, checks
                )
            report.compute_cycles += round_cycles

        report.buffer_peaks = {
            d: buffers[d].peak for d in range(1, n_steps)
        }
        if cfg.slr_count > 1 and cfg.slr_crossing_penalty_cycles > 0:
            # A CST spilling past its primary SLR pays the crossing
            # penalty on the remote share of every kernel operation
            # (partials and edge tasks both probe the CST). Zero
            # whenever the partition fits one region, so the scheduler
            # can avoid it entirely by placing small partitions well.
            remote = cfg.slr_remote_fraction(cst.size_bytes())
            if remote > 0.0:
                crossing = cfg.slr_crossing_penalty_cycles * remote * (
                    report.total_partials + report.total_edge_tasks
                )
                report.slr_crossing_cycles = crossing
                if trace and crossing:
                    report.module_spans.append(
                        ("slr_crossing", cursor, cursor + crossing)
                    )
        return report

    # ------------------------------------------------------------------
    # Per-round timing
    # ------------------------------------------------------------------

    def _round_cycles(
        self, n_pop: int, n_new: int, n_tasks: int, checks: int
    ) -> int:
        """Cycles of one round for the configured variant.

        Stage composition follows Fig. 5: chained for serial designs,
        overlapped for dataflow designs. The shapes asymptotically
        match Equations 2-4 (tested in the cycle-model tests). Each
        variant's composition lives in its own ``_cycles_*`` method,
        resolved through :data:`_CYCLE_MODELS`.
        """
        stages = self._stage_cycles(n_pop, n_new, n_tasks, checks)
        return self._CYCLE_MODELS[self.variant](
            self, stages, n_pop, n_new, n_tasks
        )

    def _stage_cycles(
        self, n_pop: int, n_new: int, n_tasks: int, checks: int
    ) -> dict[str, int]:
        """Per-module pipeline fills shared by every variant."""
        cfg = self.config
        return {
            "read": pipelined_cycles(n_pop, cfg.l1),
            "gen": pipelined_cycles(n_new, cfg.l2),
            "visited": pipelined_cycles(n_new, cfg.l3),
            "collect": pipelined_cycles(n_new, cfg.l4),
            # T_n generation: the outer per-neighbour loop is not
            # pipelined (Algorithm 5 line 10), each inner loop is.
            "tn_gen": checks * pipelined_cycles(n_new, cfg.l5),
            "tn_val": pipelined_cycles(n_tasks, cfg.l6),
        }

    def _cycles_basic(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Serial modules, CST in BRAM (Equation 2).
        return chained(s["read"], s["gen"], s["visited"], s["collect"],
                       s["tn_gen"], s["tn_val"])

    def _cycles_dram(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Serial shape plus the DRAM/BRAM gap on every CST access.
        cfg = self.config
        gap = cfg.dram_latency - cfg.bram_latency
        return self._cycles_basic(s, n_pop, n_new, n_tasks) + gap * (
            n_pop
            + cfg.dram_reads_per_partial * n_new
            + cfg.dram_reads_per_task * n_tasks
        )

    def _cycles_task(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Phase A: generator loop 1 streams into the visited
        # validator. Phase B: the same generator then emits t_n,
        # overlapped with edge validation and collection (Equation 3).
        phase_a = overlapped(chained(s["read"], s["gen"]), s["visited"])
        phase_b = overlapped(s["tn_gen"], s["tn_val"], s["collect"])
        return chained(phase_a, phase_b)

    def _cycles_sep(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Duplicated generators let every module run concurrently
        # (Equation 4).
        return overlapped(
            chained(s["read"], s["gen"]), s["visited"], s["tn_gen"],
            s["tn_val"], s["collect"],
        )

    #: Variant -> cycle-model method (keys match :data:`VARIANTS`).
    _CYCLE_MODELS = {
        "dram": _cycles_dram,
        "basic": _cycles_basic,
        "task": _cycles_task,
        "sep": _cycles_sep,
    }

    def _module_offsets(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> list[tuple[str, float, float]]:
        """Round-relative module occupancy ``(lane, start, end)`` spans.

        The spans *are* the variant's Fig. 5 dataflow: for each lane
        they start/end exactly where the matching ``_cycles_*``
        composition places the module, so the latest ``end`` equals the
        round's charged cycles (the invariant tests depend on this).
        Serial variants chain the five modules; ``task`` overlaps them
        in two phases (Equation 3); ``sep`` starts every module at
        cycle 0 (Equation 4).
        """
        gen = chained(s["read"], s["gen"])
        if self.variant == "sep":
            return [
                ("generator_tv", 0.0, float(gen)),
                ("visited_validator", 0.0, float(s["visited"])),
                ("generator_tn", 0.0, float(s["tn_gen"])),
                ("edge_validator", 0.0, float(s["tn_val"])),
                ("synchronizer", 0.0, float(s["collect"])),
            ]
        if self.variant == "task":
            phase_a = float(overlapped(gen, s["visited"]))
            return [
                ("generator_tv", 0.0, float(gen)),
                ("visited_validator", 0.0, float(s["visited"])),
                ("generator_tn", phase_a, phase_a + s["tn_gen"]),
                ("edge_validator", phase_a, phase_a + s["tn_val"]),
                ("synchronizer", phase_a, phase_a + s["collect"]),
            ]
        # Serial chain shared by ``basic`` and ``dram``, in the exact
        # order ``_cycles_basic`` chains the modules.
        spans = []
        cursor = 0.0
        for lane, width in (
            ("generator_tv", gen),
            ("visited_validator", s["visited"]),
            ("synchronizer", s["collect"]),
            ("generator_tn", s["tn_gen"]),
            ("edge_validator", s["tn_val"]),
        ):
            spans.append((lane, cursor, cursor + width))
            cursor += width
        if self.variant == "dram":
            cfg = self.config
            gap = (cfg.dram_latency - cfg.bram_latency) * (
                n_pop
                + cfg.dram_reads_per_partial * n_new
                + cfg.dram_reads_per_task * n_tasks
            )
            spans.append(("load", cursor, cursor + gap))
        return spans


def _to_query_indexed(
    ids: np.ndarray, order: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Reorder result rows from order-position to query-vertex index."""
    inverse = np.argsort(np.asarray(order))
    # One bulk tolist() materialises Python ints for the whole batch;
    # per-element int() casts in a nested loop dominated result
    # collection on large embeddings counts.
    return list(map(tuple, ids[:, inverse].tolist()))
