"""Tests for the FAST engine: exactness, buffer bounds, timing shape."""

from __future__ import annotations

from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.reference import (
    count_reference_embeddings,
    reference_embeddings,
)
from repro.common.errors import (
    BufferOverflowError,
    DeviceError,
    PartitionError,
)
from repro.cst.builder import build_cst
from repro.cst.partition import (
    FlatCST,
    PartitionLimits,
    PartitionSet,
    partition_cst,
)
from repro.fpga import engine as engine_module
from repro.fpga.config import FpgaConfig
from repro.fpga.cycles import l_basic, l_sep, l_task
from repro.fpga.engine import VARIANTS, FastEngine, module_spans
from repro.fpga.kernel import SlotBuffers, build_plan
from repro.graph.generators import random_connected_query, random_labeled_graph
from repro.ldbc.queries import all_queries, get_query
from repro.query.ordering import path_based_order, random_connected_order


class TestExactness:
    def test_all_variants_exact_counts(self, micro_graph):
        for q in all_queries():
            cst = build_cst(q.graph, micro_graph)
            order = path_based_order(cst.tree, micro_graph)
            ref = count_reference_embeddings(q.graph, micro_graph)
            for variant in VARIANTS:
                rep = FastEngine(variant=variant).run(cst, order)
                assert rep.embeddings == ref, (q.name, variant)

    def test_collect_results_exact_set(self, micro_graph):
        q = get_query("q1")
        cst = build_cst(q.graph, micro_graph)
        rep = FastEngine().run(cst, collect_results=True)
        assert sorted(rep.results) == sorted(
            reference_embeddings(q.graph, micro_graph)
        )

    def test_arbitrary_connected_orders_exact(self, micro_graph):
        q = get_query("q2")
        cst = build_cst(q.graph, micro_graph)
        ref = count_reference_embeddings(q.graph, micro_graph)
        for seed in range(6):
            order = random_connected_order(q.graph, seed=seed)
            rep = FastEngine().run(cst, order)
            assert rep.embeddings == ref, order

    def test_empty_cst(self):
        from repro.graph.graph import Graph
        data = random_labeled_graph(20, 40, 2, seed=0)
        q = Graph.from_edges(2, [(0, 1)], [8, 8])
        cst = build_cst(q, data)
        rep = FastEngine().run(cst)
        assert rep.embeddings == 0
        assert rep.total_cycles == 0

    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(0, 2000),
        query_seed=st.integers(0, 2000),
        batch=st.sampled_from([4, 16, 64, 512]),
    )
    def test_exactness_property_random(self, data_seed, query_seed, batch):
        """Engine counts match brute force for any batch size N_o."""
        data = random_labeled_graph(35, 140, 3, seed=data_seed)
        query = random_connected_query(5, 7, 3, seed=query_seed)
        cst = build_cst(query, data)
        cfg = FpgaConfig(batch_size=batch)
        rep = FastEngine(cfg).run(cst)
        assert rep.embeddings == count_reference_embeddings(query, data)


class TestBufferInvariant:
    def test_peaks_bounded_by_batch_size(self, micro_graph):
        cfg = FpgaConfig(batch_size=32)
        for name in ("q1", "q6", "q8"):
            q = get_query(name)
            cst = build_cst(q.graph, micro_graph)
            rep = FastEngine(cfg).run(cst)
            assert rep.buffer_peaks, name
            assert max(rep.buffer_peaks.values()) <= cfg.batch_size, name

    def test_total_buffer_matches_paper_bound(self, micro_graph):
        # (|V(q)| - 1) buffers of N_o entries suffice.
        cfg = FpgaConfig(batch_size=16)
        q = get_query("q7")
        cst = build_cst(q.graph, micro_graph)
        rep = FastEngine(cfg).run(cst)
        assert len(rep.buffer_peaks) == q.graph.num_vertices - 1


class TestTiming:
    def test_variant_ordering(self, micro_graph):
        for name in ("q1", "q6"):
            cst = build_cst(get_query(name).graph, micro_graph)
            cycles = {
                v: FastEngine(variant=v).run(cst).total_cycles
                for v in VARIANTS
            }
            assert cycles["dram"] > cycles["basic"]
            assert cycles["basic"] > cycles["task"]
            assert cycles["task"] > cycles["sep"]

    def test_dram_speedup_near_latency_ratio(self, micro_graph):
        """Fig. 7's headline: BASIC beats DRAM by roughly the 1-vs-8
        read-latency gap (the paper measures ~5x)."""
        ratios = []
        for q in all_queries():
            cst = build_cst(q.graph, micro_graph)
            dram = FastEngine(variant="dram").run(cst).total_cycles
            basic = FastEngine(variant="basic").run(cst).total_cycles
            if basic:
                ratios.append(dram / basic)
        avg = sum(ratios) / len(ratios)
        assert 3.0 <= avg <= 7.0

    def test_measured_close_to_analytical(self, micro_graph):
        """Engine-measured cycles stay near the Eq. 2-4 envelopes."""
        cfg = FpgaConfig()
        for name in ("q1", "q6", "q8"):
            cst = build_cst(get_query(name).graph, micro_graph)
            for variant, eq in (("basic", l_basic), ("task", l_task),
                                ("sep", l_sep)):
                rep = FastEngine(cfg, variant).run(cst)
                predicted = eq(cfg, rep.total_partials,
                               rep.total_edge_tasks)
                assert rep.compute_cycles == pytest.approx(
                    predicted, rel=0.6
                ), (name, variant)

    def test_smaller_batch_costs_more_cycles(self, micro_graph):
        cst = build_cst(get_query("q2").graph, micro_graph)
        small = FastEngine(FpgaConfig(batch_size=8)).run(cst)
        large = FastEngine(FpgaConfig(batch_size=512)).run(cst)
        assert small.compute_cycles > large.compute_cycles
        assert small.embeddings == large.embeddings

    def test_seconds_conversion(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        rep = FastEngine().run(cst)
        assert rep.seconds == pytest.approx(
            rep.total_cycles / (rep.clock_mhz * 1e6)
        )


class TestEngineApi:
    def test_unknown_variant_rejected(self):
        with pytest.raises(DeviceError, match="variant"):
            FastEngine(variant="warp")

    def test_report_merge_rejects_mixed_variants(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        a = FastEngine(variant="sep").run(cst)
        b = FastEngine(variant="task").run(cst)
        with pytest.raises(ValueError, match="variant"):
            a.merge(b)

    def test_report_summary_keys(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        info = FastEngine().run(cst).summary()
        assert {"variant", "cycles", "seconds", "N", "M",
                "embeddings"} <= set(info)

    def test_workload_counts_accumulate(self, micro_graph):
        cst = build_cst(get_query("q1").graph, micro_graph)
        rep = FastEngine().run(cst)
        assert rep.total_partials > 0
        assert rep.total_edge_tasks > 0
        assert rep.rounds > 0


def partition_set(cst, order, limits) -> PartitionSet:
    """Algorithm 2's partitions of ``cst`` packed into one set, with a
    partition that keeps no candidates at all at index 1 (``cst``
    whole at index 0 when the limits are infeasible; the empty one
    alone at index 0 when Algorithm 2 emits none, as it may when
    ``cst`` holds no embedding)."""
    flat = FlatCST(cst)
    nodes = []
    try:
        partition_cst(cst, order, limits,
                      lambda node, _workload: nodes.append(node))
    except PartitionError:
        nodes = [flat.node(np.ones(flat.voff[-1], dtype=bool))]
    parts = PartitionSet(cst)
    empty = flat.node(np.zeros(flat.voff[-1], dtype=bool))
    for node in nodes[:1] + [empty] + nodes[1:]:
        parts.add(node)
    return parts.pack()


#: Member lists of a set of ``n`` partitions, the empty one at 1:
#: contiguous, non-contiguous and out of order, with and without it.
MEMBERS = {
    "all": lambda n: list(range(n)),
    "tail": lambda n: list(range(2, n)) or [0],
    "even": lambda n: list(range(0, n, 2)),
    "odd": lambda n: list(range(1, n, 2)),
    "reversed": lambda n: list(range(n))[::-1],
}


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(
        data_seed=st.integers(0, 2000),
        query_seed=st.integers(0, 2000),
        query_size=st.integers(2, 5),
        batch=st.sampled_from([1, 2, 3, 8, 32]),
        bram_share=st.sampled_from([1, 3, 8]),
        slr_penalty=st.sampled_from([0.0, 6.5]),
        variant=st.sampled_from(VARIANTS),
        trace=st.booleans(),
        collect=st.booleans(),
        tail=st.sampled_from([0, engine_module.SCALAR_TAIL]),
        window_bytes=st.sampled_from(
            [1, engine_module.SLOT_BYTES_PER_WINDOW]
        ),
        members=st.sampled_from(sorted(MEMBERS)),
    )
    # A CST without embeddings: Algorithm 2 emits no partition at all.
    @example(data_seed=1857, query_seed=860, query_size=5, batch=1,
             bram_share=1, slr_penalty=0.0, variant="dram", trace=False,
             collect=False, tail=0, window_bytes=1, members="tail")
    def test_run_many_equals_single_launches(
        self, data_seed, query_seed, query_size, batch, bram_share,
        slr_penalty, variant, trace, collect, tail, window_bytes, members,
    ):
        """Every lockstep report equals its partition's own launch,
        field for field, on any partitioning, any small device and any
        members of one set. A scalar tail of 0 keeps every round in
        the segmented passes, one-member groups included; 1-byte
        windows hold one partition each."""
        data = random_labeled_graph(40, 160, 3, seed=data_seed)
        query = random_connected_query(
            query_size, min(query_size * (query_size - 1) // 2,
                            query_size + 1),
            3, seed=query_seed,
        )
        cst = build_cst(query, data)
        order = random_connected_order(cst.query, seed=query_seed)
        limits = PartitionLimits(
            max_bytes=max(64, cst.size_bytes() // bram_share),
            max_degree=max(2, cst.max_candidate_degree() // 2),
        )
        parts = partition_set(cst, order, limits)
        chosen = MEMBERS[members](len(parts))
        half = max(1, cst.size_bytes() // (2 * bram_share))
        cfg = FpgaConfig(
            batch_size=batch, bram_bytes=2 * half,
            slr_count=2, slr_bram_bytes=(half, half),
            slr_crossing_penalty_cycles=slr_penalty,
        )
        engine = FastEngine(cfg, variant, trace_modules=trace)
        plan = build_plan(cst.query, order)
        with mock.patch.multiple(engine_module, SCALAR_TAIL=tail,
                                 SLOT_BYTES_PER_WINDOW=window_bytes):
            many = engine.run_many(parts, chosen, plan, collect)
        single = [engine.run(parts[m], plan=plan, collect_results=collect)
                  for m in chosen]
        # Field for field, traced round rows included.
        assert [asdict(r) for r in many] == [asdict(r) for r in single]
        for lockstep, alone in zip(many, single):
            if not trace:
                assert lockstep.launch_rows is None
                continue
            # One launch of its own rows per non-empty member, none
            # for an empty one; the same module lanes either way.
            assert len(lockstep.launch_rows) == (lockstep.rounds > 0)
            assert module_spans(cfg, variant, lockstep.launch_rows) == (
                module_spans(cfg, variant, alone.launch_rows)
            )

    def test_slot_written_while_non_empty_raises(self):
        """A slot is only written once drained, as a DepthBuffer is."""
        bufs = SlotBuffers(num_parts=2, num_steps=3, capacity=4,
                           root_total=np.array([5, 5]), root_start=0)
        group = np.array([0, 1])
        rows = np.zeros((3, 2), dtype=np.int64)
        bufs.fill(2, group, np.array([0, 0, 1]), np.array([2, 1]),
                  rows, rows)
        with pytest.raises(BufferOverflowError, match="non-empty"):
            bufs.fill(2, np.array([1]), np.empty(0, dtype=np.int64),
                      np.array([0]), rows[:0], rows[:0])
