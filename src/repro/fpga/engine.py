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

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import DeviceError
from repro.cst.partition import PartitionSet
from repro.cst.structure import CST
from repro.fpga.config import FpgaConfig
from repro.fpga.kernel import (
    DepthBuffer,
    MatchPlan,
    RoundBatch,
    SlotBuffers,
    build_plan,
    edge_validate,
    expand_root,
    expand_root_many,
    generate,
    generate_many,
    synchronize,
    validate_many,
    visited_validate,
)
from repro.fpga.pipeline import chained, overlapped, pipelined_cycles
from repro.fpga.report import ROUND_COLUMNS, KernelReport, LaunchRows

#: Recognised engine variants, in the paper's optimisation order.
VARIANTS = ("dram", "basic", "task", "sep")

#: Host memory one :meth:`FastEngine.run_many` window may give its
#: depth-buffer slots; larger queues advance in several windows. The
#: per-pass batch arrays scale with the window too, so this bounds the
#: lockstep's whole footprint (DG-MINI/q1 on a 4 KB device: peak RSS
#: +2 % over single launches at 1 MiB, +6 % in one window).
SLOT_BYTES_PER_WINDOW = 1 << 20
#: Once this few partitions of a lockstep window are unfinished, they
#: run to completion one by one in the scalar machine. So few rarely
#: share a step, and a one-member pass costs more host time than a
#: scalar round (measured in CHANGES.md).
SCALAR_TAIL = 4


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
        # When set, every report carries its launch's round rows, from
        # which :func:`module_spans` rebuilds the Fig. 5 lanes; off by
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
        indexed by query vertex) instead of only counting them. A
        :meth:`run_many` over ``cst`` as a one-member set: the lone
        partition runs in the scalar machine :meth:`_rounds`, the
        reference every segmented pass is checked against.
        """
        if plan is None:
            if order is None:
                order = tuple(cst.tree.bfs_order)
            plan = build_plan(cst.query, order)
        # The kernel never reads a partition's workload estimate.
        return self.run_many(PartitionSet.of(cst, 0.0), [0], plan,
                             collect_results)[0]

    def _rounds(
        self, parts: PartitionSet, plan: MatchPlan,
        buffers: list[DepthBuffer], root_cursor: int, root_end: int,
    ) -> Iterator[tuple[RoundBatch, np.ndarray]]:
        """The deepest-first buffer machine of Section VI-B on the one
        partition of ``parts`` whose root positions run up to
        ``root_end``.

        Each kernel round expands the deepest non-empty buffer (or
        streams the next root candidates once all are drained), then
        runs the validators and the synchronizer. Yields the round's
        batch and its survivors' ``ids``; survivors short of a full
        embedding are already in the next depth buffer.
        """
        budget = self.config.batch_size
        n_steps = plan.num_steps
        while True:
            step = -1
            for d in range(n_steps - 1, 0, -1):
                if not buffers[d].is_empty:
                    step = d
                    break
            if step == -1:
                if root_cursor >= root_end:
                    return
                # The budget stops the stream at the partition's end.
                batch, root_cursor = expand_root(
                    parts, plan, root_cursor, min(budget, root_end - root_cursor)
                )
            else:
                batch = generate(parts, plan, buffers[step], step, budget)

            bv = visited_validate(batch)
            bn = edge_validate(parts, plan, batch)
            pos, ids = synchronize(batch, bv, bn)
            depth = batch.step + 1
            if depth < n_steps and len(pos):
                buffers[depth].fill(pos, ids)
            yield batch, ids

    def run_many(
        self,
        parts: PartitionSet,
        members: Sequence[int],
        plan: MatchPlan,
        collect_results: bool = False,
    ) -> list[KernelReport]:
        """Match ``members`` of a partition set in lockstep; one report
        each, in ``members`` order.

        Every member runs its own deepest-first buffer machine, and the
        machines advance together: each global round makes one kernel
        round of every unfinished member, with one numpy pass per group
        of members at the same step, read in place from the set's
        block-diagonal arrays. Members may be any partitions of the
        set, contiguous or not. Each keeps its own ``N_o`` budget,
        cursors and fixed buffer slots, so every report equals
        ``run(parts[m], plan=plan)``, where the partition runs alone in
        the scalar machine, field for field: cycles, N, M, pops, buffer
        peaks, SLR crossing, results and, when ``trace_modules`` is
        set, the launch's round rows (one :class:`LaunchRows`, whose
        :func:`module_spans` are the Fig. 5 lanes). Only host wall time
        changes. Empty partitions get an empty report.
        """
        reports = [self._new_report(collect_results) for _ in members]
        empty = (np.diff(parts.offsets, axis=1) == 0).any(axis=0)
        live = [k for k, m in enumerate(members) if not empty[m]]
        window = self.lockstep_window(plan)
        for start in range(0, len(live), window):
            chunk = live[start:start + window]
            self._lockstep(parts, np.array([members[k] for k in chunk]),
                           plan, [reports[k] for k in chunk])
        return reports

    def lockstep_window(self, plan: MatchPlan) -> int:
        """Partitions of ``plan`` that one lockstep window advances
        together: as many as :data:`SLOT_BYTES_PER_WINDOW` of depth
        buffer slots hold (``pos`` and ``ids`` rows, 8 bytes a column,
        ``N_o`` rows per depth)."""
        n = plan.num_steps
        slot_bytes = 16 * self.config.batch_size * n * (n - 1) // 2
        return max(1, SLOT_BYTES_PER_WINDOW // max(1, slot_bytes))

    def _lockstep(self, parts: PartitionSet, members: np.ndarray,
                  plan: MatchPlan, reports: list[KernelReport]) -> None:
        """Advance non-empty ``members`` together; fill their reports."""
        budget = self.config.batch_size
        n_steps = plan.num_steps
        root = parts.offsets[plan.order[0]]
        bufs = SlotBuffers(len(members), n_steps, budget,
                           root[members + 1] - root[members], root[members])
        # Per pass: partitions, steps, pops, new partials and completed
        # embeddings, one entry per (partition, round) in round order.
        log: list[tuple[np.ndarray, ...]] = []
        # Per pass that completes embeddings, when results are
        # collected: partition and ids rows.
        finals: list[tuple[np.ndarray, np.ndarray]] | None = (
            [] if reports[0].results is not None else None
        )
        active = np.arange(len(members))
        while True:
            nonempty = bufs.remaining[:, active] > 0
            running = nonempty.any(axis=0)
            if not running.all():
                active = active[running]
                nonempty = nonempty[:, running]
            if len(active) <= SCALAR_TAIL:
                for p in active.tolist():
                    self._finish_alone(parts, plan, bufs, p, log, finals)
                break
            # Deepest-first: each partition's deepest non-empty buffer,
            # or its root stream (row 0) once every buffer is drained.
            steps = n_steps - 1 - np.argmax(nonempty[::-1], axis=0)
            for step in sorted(set(steps.tolist())):
                group = active[steps == step]
                if step == 0:
                    batch = expand_root_many(parts, plan, bufs, group,
                                             budget)
                else:
                    batch = generate_many(parts, plan, bufs, group,
                                          step, budget)
                keep = validate_many(parts, plan, batch)
                owner = batch.owner[keep]
                counts = np.bincount(owner, minlength=len(group))
                if step + 1 == n_steps:
                    if finals is not None:
                        finals.append((group[owner], batch.ids[keep]))
                    done = counts
                else:
                    bufs.fill(step + 1, group, owner, counts,
                              batch.pos[keep], batch.ids[keep])
                    done = np.zeros_like(counts)
                log.append((group, np.full(len(group), step),
                            batch.n_consumed, batch.n_new, done))
        self._account_lockstep(parts, members, plan, reports, bufs, log,
                               finals)

    def _finish_alone(
        self, parts: PartitionSet, plan: MatchPlan, bufs: SlotBuffers,
        p: int, log: list, finals: list | None,
    ) -> None:
        """Run window member ``p`` of a lockstep window to completion
        alone.

        Its slots become :class:`DepthBuffer` views and :meth:`_rounds`
        takes over where the lockstep left off (at the start when no
        pass ran and every slot is empty), in the same set positions;
        its rounds join the log as if batched.
        """
        n_steps = plan.num_steps
        cap = bufs.capacity
        buffers = [DepthBuffer(d, cap) for d in range(n_steps)]
        for d in range(1, n_steps):
            buf = buffers[d]
            buf.front = int(bufs.front[d][p])
            buf.front_offset = int(bufs.offset[d][p])
            buf.peak = int(bufs.peak[d][p])
            rows = slice(p * cap,
                         p * cap + buf.front + int(bufs.remaining[d][p]))
            buf.pos = bufs.pos[d][rows]
            buf.ids = bufs.ids[d][rows]
        cursor = int(bufs.root_cursor[p])
        rounds = []
        for batch, ids in self._rounds(
            parts, plan, buffers, cursor, cursor + int(bufs.remaining[0][p])
        ):
            done = 0
            if batch.step + 1 == n_steps:
                done = len(ids)
                if finals is not None:
                    finals.append((np.full(done, p), ids))
            rounds.append((batch.step, batch.n_consumed, batch.n_new, done))
        for d in range(1, n_steps):
            bufs.peak[d][p] = buffers[d].peak
        if rounds:
            log.append((np.full(len(rounds), p),
                        *np.array(rounds, dtype=np.int64).T))

    def _account_lockstep(
        self, parts: PartitionSet, members: np.ndarray, plan: MatchPlan,
        reports: list[KernelReport], bufs: SlotBuffers, log: list,
        finals: list | None,
    ) -> None:
        """Split a lockstep run's round log back out per member."""
        cfg = self.config
        n_steps = plan.num_steps
        owner = np.concatenate([entry[0] for entry in log])
        order = np.argsort(owner, kind="stable")
        rounds = np.bincount(owner, minlength=len(members))
        first = np.cumsum(rounds) - rounds
        step, pops, new, done = (
            np.concatenate([entry[k] for entry in log])[order]
            for k in (1, 2, 3, 4)
        )
        checks_by_step = np.array(
            [plan.tasks_per_partial(s) for s in range(n_steps)],
            dtype=np.int64,
        )
        checks = checks_by_step[step]
        tasks = new * checks
        # Few distinct round shapes (and flush sizes) recur across
        # thousands of rounds: charge each once through the scalar
        # cycle and flush models.
        sizes, inverse = np.unique(done, return_inverse=True)
        flush = np.array(
            [cfg.flush_cycles(n * n_steps * 4) for n in sizes.tolist()],
            dtype=np.int64,
        )[inverse.reshape(-1)]
        width = cfg.batch_size + 1
        shapes, inverse = np.unique(
            (step * width + pops) * width + new, return_inverse=True
        )
        shape_step, shape_rest = np.divmod(shapes, width * width)
        shape_pops, shape_new = np.divmod(shape_rest, width)
        cycles = np.array([
            self._round_cycles(n_pop, n_new, n_new * c, c)
            for n_pop, n_new, c in zip(
                shape_pops.tolist(), shape_new.tolist(),
                checks_by_step[shape_step].tolist(),
            )
        ], dtype=np.int64)[inverse.reshape(-1)]
        sums = np.add.reduceat(
            np.stack([pops, new, tasks, cycles, flush, done], axis=1),
            first, axis=0,
        ).tolist()
        results: list[list] = []
        if finals:
            final_owner = np.concatenate([o for o, _ in finals])
            ids = np.concatenate([i for _, i in finals])
            ids = ids[np.argsort(final_owner, kind="stable")]
            rows = _to_query_indexed(ids, plan.order)
            bounds = np.cumsum([row[5] for row in sums]).tolist()
            results = [rows[b - row[5]:b] for b, row in zip(bounds, sums)]
        if self.trace_modules:
            round_rows = np.stack(
                [pops, new, tasks, checks, flush], axis=1
            ).astype(np.int64, copy=False)
        peaks = bufs.peak.T.tolist()
        for p, (m, report) in enumerate(zip(members.tolist(), reports)):
            self._charge_load(report, parts.size_bytes[m])
            pops_p, new_p, tasks_p, cycles_p, flush_p, done_p = sums[p]
            report.rounds = int(rounds[p])
            report.total_partials = new_p
            report.total_edge_tasks = tasks_p
            report.total_pops = pops_p
            report.compute_cycles += cycles_p
            report.flush_cycles += flush_p
            report.embeddings = done_p
            if results:
                report.results.extend(results[p])
            report.buffer_peaks = {
                d: peaks[p][d] for d in range(1, n_steps)
            }
            self._charge_slr(report, parts.size_bytes[m])
            if self.trace_modules:
                # A copy of the member's rows: the window's log goes.
                lo = int(first[p])
                report.launch_rows.append(LaunchRows(
                    round_rows[lo:lo + int(rounds[p])].tobytes(),
                    report.load_cycles, report.slr_crossing_cycles,
                ))

    # ------------------------------------------------------------------
    # Report set-up and per-launch charges
    # ------------------------------------------------------------------

    def _new_report(self, collect_results: bool) -> KernelReport:
        """The report of one launch before it runs."""
        report = KernelReport(variant=self.variant,
                              clock_mhz=self.config.clock_mhz)
        report.num_csts = 1
        if collect_results:
            report.results = []
        if self.trace_modules:
            report.launch_rows = []
        return report

    def _charge_load(self, report: KernelReport, size_bytes: int) -> None:
        """Charge the streamed BRAM load of a ``size_bytes`` partition."""
        if self.variant != "dram":
            report.load_cycles += self.config.load_cycles(size_bytes)

    def _charge_slr(self, report: KernelReport, size_bytes: int) -> None:
        """Charge cross-SLR accesses once the launch's N and M are in."""
        cfg = self.config
        if cfg.slr_count > 1 and cfg.slr_crossing_penalty_cycles > 0:
            # A CST spilling past its primary SLR pays the crossing
            # penalty on the remote share of every kernel operation
            # (partials and edge tasks both probe the CST). Zero
            # whenever the partition fits one region, so the scheduler
            # can avoid it entirely by placing small partitions well.
            remote = cfg.slr_remote_fraction(size_bytes)
            if remote > 0.0:
                report.slr_crossing_cycles = (
                    cfg.slr_crossing_penalty_cycles * remote * (
                        report.total_partials + report.total_edge_tasks
                    )
                )

    def _trace_round(
        self, spans: list, cursor: float, n_pop: int, n_new: int,
        n_tasks: int, checks: int, flush: int,
    ) -> float:
        """Append one round row's module spans (and its result flush)
        at ``cursor``; returns the next cursor."""
        stages = self._stage_cycles(n_pop, n_new, n_tasks, checks)
        round_cycles = self._CYCLE_MODELS[self.variant](
            self, stages, n_pop, n_new, n_tasks
        )
        for lane, rel_start, rel_end in self._module_offsets(
            stages, n_pop, n_new, n_tasks
        ):
            if rel_end > rel_start:
                spans.append((lane, cursor + rel_start, cursor + rel_end))
        cursor += round_cycles
        if flush:
            spans.append(("flush", cursor, cursor + flush))
            cursor += flush
        return cursor

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


def module_spans(
    config: FpgaConfig, variant: str, launches: Iterable[LaunchRows],
) -> list[tuple[str, float, float]]:
    """The Fig. 5 module spans ``(lane, start_cycle, end_cycle)`` of
    ``launches`` on the serial cycle clock of the card that ran them.

    Each launch's spans are rebuilt from its round rows: its ``load``
    span, then every round's module spans and result flush, then its
    ``slr_crossing`` span, with the cursor arithmetic of the cycle
    account; its merge offsets are then added one at a time in merge
    order. So the floats are the ones the launch's own cycle account
    yields, bit for bit, however often its report was merged.
    """
    engine = FastEngine(config, variant)
    width = len(ROUND_COLUMNS)
    spans: list[tuple[str, float, float]] = []
    for launch in launches:
        first = len(spans)
        cursor = float(launch.load_cycles)
        if launch.load_cycles:
            spans.append(("load", 0.0, cursor))
        rows = np.frombuffer(launch.rows, dtype=np.int64)
        for row in rows.reshape(-1, width).tolist():
            cursor = engine._trace_round(spans, cursor, *row)
        crossing = launch.slr_crossing_cycles
        if crossing:
            spans.append(("slr_crossing", cursor, cursor + crossing))
        for offset in launch.offsets:
            spans[first:] = [
                (lane, start + offset, end + offset)
                for lane, start, end in spans[first:]
            ]
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
