"""The FAST matching engine - Algorithm 4 with the paper's variants.

Each launch runs the four kernel modules over one partition under the
deepest-first expansion policy of Section VI-B, which bounds every
depth buffer at ``N_o`` entries. The host does not step that buffer
machine: it enumerates the search space depth first in slices and
derives every round of the schedule, level by level, from integers of
its level (:class:`_Schedule`). Matching is *functional* - the
embeddings found are exact - while a per-variant timing model charges
cycles for each round from its shape:

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

from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import DeviceError
from repro.cst.partition import PartitionSet
from repro.cst.structure import CST
from repro.fpga.config import FpgaConfig
from repro.fpga.kernel import MatchPlan, build_plan, expand
from repro.fpga.pipeline import chained, overlapped, pipelined_cycles
from repro.fpga.report import ROUND_COLUMNS, KernelReport, LaunchRows

#: Recognised engine variants, in the paper's optimisation order.
VARIANTS = ("dram", "basic", "task", "sep")

#: Host memory of ``N_o``-row depth buffers that sizes one FPGA task of
#: the execute stage (:meth:`FastEngine.lockstep_window`): a device
#: queue's pending partitions split into windows of as many partitions
#: as this holds. The window sets how often the journal and the
#: deadline see progress; kernel memory is bounded by :data:`SLICE`.
SLOT_BYTES_PER_WINDOW = 1 << 20
#: Children one Generator pass of :meth:`FastEngine.run_many` gathers:
#: the search space is enumerated depth first in slices of whole rounds
#: holding at most this many (one round of ``N_o`` when that is more),
#: so the host holds about ``depth * SLICE`` partial rows whatever the
#: window or the partition.
SLICE = 1 << 12


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
        :meth:`run_many` over ``cst`` as a one-member set.
        """
        if plan is None:
            if order is None:
                order = tuple(cst.tree.bfs_order)
            plan = build_plan(cst.query, order)
        # The kernel never reads a partition's workload estimate.
        return self.run_many(PartitionSet.of(cst, 0.0), [0], plan,
                             collect_results)[0]

    def run_many(
        self,
        parts: PartitionSet,
        members: Sequence[int],
        plan: MatchPlan,
        collect_results: bool = False,
    ) -> list[KernelReport]:
        """Match ``members`` of a partition set; one report each, in
        ``members`` order.

        Each member is one launch of the deepest-first buffer machine
        of Section VI-B, with its own ``N_o`` budget and buffers.
        Members may be any partitions of the set, contiguous or not,
        all read in place from the set's block-diagonal arrays. No
        machine is stepped: a :class:`_Schedule` derives every
        member's rounds level by level from one enumeration of their
        search spaces in slices of at most :data:`SLICE` children, so
        the host holds about ``depth * SLICE`` partial rows however
        many members there are. A report holds its launch's cycles, N,
        M, pops, buffer peaks (at most ``N_o`` each), SLR crossing,
        results in completion order and, when ``trace_modules`` is
        set, its round rows (one :class:`LaunchRows`, whose
        :func:`module_spans` are the Fig. 5 lanes). Empty partitions
        get an empty report.
        """
        reports = [self._new_report(collect_results) for _ in members]
        empty = (np.diff(parts.offsets, axis=1) == 0).any(axis=0)
        live = [k for k, m in enumerate(members) if not empty[m]]
        if live:
            chosen = np.array([members[k] for k in live], dtype=np.int64)
            schedule = _Schedule(parts, chosen, plan,
                                 self.config.batch_size, collect_results)
            self._account_lockstep(parts, chosen, plan,
                                   [reports[k] for k in live],
                                   *schedule.rows(), schedule.finals)
        return reports

    def lockstep_window(self, plan: MatchPlan) -> int:
        """Partitions of ``plan`` that one FPGA task of the execute
        stage covers: as many as :data:`SLOT_BYTES_PER_WINDOW` holds of
        ``N_o``-row depth buffers (``pos`` and ``ids`` rows, 8 bytes a
        column)."""
        n = plan.num_steps
        slot_bytes = 16 * self.config.batch_size * n * (n - 1) // 2
        return max(1, SLOT_BYTES_PER_WINDOW // max(1, slot_bytes))

    def _account_lockstep(
        self, parts: PartitionSet, members: np.ndarray, plan: MatchPlan,
        reports: list[KernelReport], rounds: np.ndarray,
        log: tuple[np.ndarray, ...], peaks: np.ndarray,
        finals: list[np.ndarray] | None,
    ) -> None:
        """Charge a schedule's rounds to their members' reports.

        ``rounds`` counts each member's rounds, ``log`` holds the step,
        pops, new partials and completed embeddings of every round in
        the machine's order, member after member, ``peaks`` each
        member's buffer peak per depth, and ``finals`` the completed
        embeddings' ids rows in completion order when collected.
        """
        cfg = self.config
        n_steps = plan.num_steps
        first = np.cumsum(rounds) - rounds
        step, pops, new, done = log
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
            rows = _to_query_indexed(np.concatenate(finals), plan.order)
            bounds = np.cumsum([row[5] for row in sums]).tolist()
            results = [rows[b - row[5]:b] for b, row in zip(bounds, sums)]
        if self.trace_modules:
            round_rows = np.stack(
                [pops, new, tasks, checks, flush], axis=1
            ).astype(np.int64, copy=False)
        peaks = peaks.tolist()
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
                # A copy of the member's rows: the schedule's log goes.
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


class _Schedule:
    """The deepest-first schedule of some partitions of one set,
    derived level by level.

    A *piece* is what one round hands to the next depth buffer: a root
    batch, or the survivors of one round. Deepest-first runs a piece's
    whole subtree before its parent buffer's next round, so a piece at
    step ``s`` whose entries own ``C`` children runs ``max(1, ceil(C /
    N_o))`` rounds there. Round ``j`` takes children ``[c0 + j N_o,
    min(c0 + (j + 1) N_o, c1))`` and pops the entries whose children end
    by its end; its survivors are the next step's piece, or at the last
    step its completed embeddings. The constructor enumerates the search
    space depth first, in slices of whole rounds of at most
    :data:`SLICE` children (:func:`~repro.fpga.kernel.expand`), and
    logs per step every round of that step in the machine's order:
    the round above whose survivors it pops (for a root batch, the
    member), its pops, new partials and survivors. :meth:`rows` lays
    the rounds out in the machine's order, the DFS pre-order of that
    round tree.
    """

    def __init__(self, parts: PartitionSet, members: np.ndarray,
                 plan: MatchPlan, budget: int, collect: bool) -> None:
        """Enumerate non-empty ``members`` from their root candidates,
        each member one piece of step 0 with a single entry."""
        self.parts, self.plan, self.budget = parts, plan, budget
        self.members = len(members)
        #: Per step, one ``(4, rounds)`` array per :meth:`_descend`
        #: call: its rounds' parents, pops, new partials and survivors.
        self.log: list[list[np.ndarray]] = [
            [] for _ in range(plan.num_steps)
        ]
        self.count = [0] * plan.num_steps
        #: The completed embeddings' ids rows in completion order
        #: (lexicographic, as every buffer is a FIFO), when collected.
        self.finals: list[np.ndarray] | None = [] if collect else None
        root = parts.offsets[plan.order[0]]
        none = np.empty((len(members), 0), dtype=np.int64)
        self._descend(0, none, none, root[members],
                      root[members + 1] - root[members],
                      np.arange(1, len(members) + 1),
                      np.arange(len(members)))

    def _descend(self, step: int, pos: np.ndarray, ids: np.ndarray,
                 starts: np.ndarray, lens: np.ndarray, ends: np.ndarray,
                 owners: np.ndarray) -> None:
        """Run the pieces of ``step`` and, slice by slice, their
        subtrees.

        Piece ``i`` holds entries ``ends[i - 1]:ends[i]`` of
        ``pos``/``ids`` and was emitted by ``owners[i]``; entry ``e``
        owns the ``lens[e]`` children from ``starts[e]``.
        """
        budget, plan = self.budget, self.plan
        cum = np.cumsum(lens)
        firsts = np.concatenate(([0], ends[:-1]))
        c0 = cum[firsts] - lens[firsts]
        c1 = cum[ends - 1]
        count = np.maximum(1, -(-(c1 - c0) // budget))
        piece = np.repeat(np.arange(len(ends)), count)
        j = np.arange(len(piece)) - np.repeat(np.cumsum(count) - count,
                                              count)
        lo = c0[piece] + j * budget
        hi = np.minimum(lo + budget, c1[piece])
        log = np.zeros((4, len(piece)), dtype=np.int64)
        log[0] = owners[piece]
        if step:
            popped = np.minimum(np.searchsorted(cum, hi, "right"),
                                ends[piece])
            log[1] = popped - np.where(j == 0, firsts[piece],
                                       np.roll(popped, 1))
        new = log[2]
        new[:] = hi - lo
        kept = log[3]
        self.log[step].append(log)
        base = self.count[step]
        self.count[step] += len(piece)
        nxt = step + 1
        if nxt < plan.num_steps:
            adj = self.parts.adjacency[(plan.anchor_vertex[nxt],
                                        plan.order[nxt])]
        total = np.cumsum(new)
        r = 0
        while r < len(piece):
            # Whole rounds of at most SLICE children, at least one.
            stop = max(r + 1, int(np.searchsorted(
                total, total[r] - new[r] + SLICE, "right"
            )))
            a, b = int(lo[r]), int(hi[stop - 1])
            e0 = int(np.searchsorted(cum, a, "right"))
            e1 = int(np.searchsorted(cum, b, "left")) + 1 if b > a else e0
            child_end = cum[e0:e1]
            child_start = child_end - lens[e0:e1]
            take_from = np.maximum(child_start, a)
            keep, next_pos, next_ids = expand(
                self.parts, plan, step, pos[e0:e1], ids[e0:e1],
                starts[e0:e1] + (take_from - child_start),
                np.minimum(child_end, b) - take_from,
            )
            kept[r:stop] = np.bincount(
                np.searchsorted(hi[r:stop], a + keep, "right"),
                minlength=stop - r,
            )
            if nxt == plan.num_steps:
                if self.finals is not None:
                    self.finals.append(next_ids)
            elif len(keep):
                pieces = r + np.flatnonzero(kept[r:stop])
                apos = next_pos[:, plan.anchor_col[nxt]]
                self._descend(nxt, next_pos, next_ids, adj.indptr[apos],
                              adj.row_lens_array()[apos],
                              np.cumsum(kept[pieces]), base + pieces)
            r = stop

    def rows(self) -> tuple[np.ndarray, tuple[np.ndarray, ...],
                            np.ndarray]:
        """Each member's round count; the step, pops, new partials and
        completed embeddings of every round in the machine's order,
        member after member; and each member's buffer peak per depth
        (its largest piece there)."""
        n = self.plan.num_steps
        parent, pops, new, kept = zip(*(
            np.concatenate([np.empty((4, 0), dtype=np.int64), *log], axis=1)
            for log in self.log
        ))
        # Subtree sizes bottom-up, then pre-order positions top-down:
        # a round comes right after its parent and its earlier
        # siblings' subtrees.
        size = [np.ones(len(parent[-1]), dtype=np.int64)]
        for s in range(n - 2, -1, -1):
            size.insert(0, 1 + np.bincount(
                parent[s + 1], weights=size[0], minlength=len(parent[s])
            ).astype(np.int64))
        at = [np.cumsum(size[0]) - size[0]]
        owner = [parent[0]]
        for s in range(1, n):
            p = parent[s]
            before = np.cumsum(size[s]) - size[s]
            at.append(at[-1][p] + 1 + before - before[np.searchsorted(p, p)])
            owner.append(owner[-1][p])
        step, pops_at, new_at, done = np.zeros((4, int(size[0].sum())),
                                               dtype=np.int64)
        peaks = np.zeros((self.members, n), dtype=np.int64)
        for s in range(n):
            step[at[s]] = s
            pops_at[at[s]] = pops[s]
            new_at[at[s]] = new[s]
            if s < n - 1:
                np.maximum.at(peaks[:, s + 1], owner[s], kept[s])
        done[at[-1]] = kept[-1]
        rounds = np.bincount(parent[0], weights=size[0],
                             minlength=self.members).astype(np.int64)
        return rounds, (step, pops_at, new_at, done), peaks


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
