"""Tests for CST partitioning (Algorithm 2), workload estimation, and
refinement."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import count_reference_embeddings
from repro.common.errors import PartitionError
from repro.cst import partition as partition_module
from repro.cst.builder import build_cst
from repro.cst.partition import (
    PartitionLimits,
    PartitionSet,
    partition_cst,
    partition_to_list,
)
from repro.cst.refine import refine_cst
from repro.cst.stats import CSTSummary, PartitionSetSummary
from repro.cst.workload import (
    candidate_weights,
    estimate_workload,
    exact_tree_embeddings,
)
from repro.graph.generators import random_connected_query, random_labeled_graph
from repro.host.cpu_matcher import cst_embeddings
from repro.host.scheduler import WorkloadScheduler
from repro.ldbc.queries import all_queries, get_query
from repro.query.ordering import path_based_order


def make_cst(query_name, data):
    q = get_query(query_name)
    cst = build_cst(q.graph, data)
    order = path_based_order(cst.tree, data)
    return cst, order


def fits(limits: PartitionLimits, cst) -> bool:
    return (cst.size_bytes() <= limits.max_bytes
            and cst.max_candidate_degree() <= limits.max_degree)


def assert_same_cst(got, want) -> None:
    """Equal candidates and adjacency CSR arrays, edge for edge."""
    for g, w in zip(got.candidates, want.candidates, strict=True):
        assert np.array_equal(g, w)
    assert list(got.adjacency) == list(want.adjacency)
    for edge, adj in got.adjacency.items():
        assert np.array_equal(adj.indptr, want.adjacency[edge].indptr)
        assert np.array_equal(adj.targets, want.adjacency[edge].targets)
    assert got.size_bytes() == want.size_bytes()


def tight_limits(cst) -> PartitionLimits:
    return PartitionLimits(
        max_bytes=max(512, cst.size_bytes() // 6),
        max_degree=max(4, cst.max_candidate_degree() // 2),
    )


class TestWorkload:
    def test_estimate_equals_exact(self, micro_graph):
        for q in all_queries():
            cst = build_cst(q.graph, micro_graph)
            assert estimate_workload(cst) == float(exact_tree_embeddings(cst))

    def test_workload_upper_bounds_embeddings(self, micro_graph):
        for q in all_queries():
            cst = build_cst(q.graph, micro_graph)
            emb = count_reference_embeddings(q.graph, micro_graph)
            assert estimate_workload(cst) >= emb

    def test_workload_exact_for_tree_query(self, micro_graph):
        from repro.graph.graph import Graph
        from repro.ldbc.schema import Label
        # PERSON - CITY - COUNTRY path: a tree query.
        q = Graph.from_edges(
            3, [(0, 1), (1, 2)],
            [int(Label.PERSON), int(Label.CITY), int(Label.COUNTRY)],
        )
        cst = build_cst(q, micro_graph)
        emb = count_reference_embeddings(q, micro_graph)
        assert estimate_workload(cst) == float(emb)

    def test_leaf_weights_are_one(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        weights = candidate_weights(cst)
        for leaf in cst.tree.leaves():
            assert np.all(weights[leaf] == 1.0)

    def test_empty_cst_zero_workload(self):
        from repro.graph.graph import Graph
        data = random_labeled_graph(20, 40, 2, seed=0)
        q = Graph.from_edges(2, [(0, 1)], [9, 9])
        cst = build_cst(q, data)
        assert estimate_workload(cst) == 0.0


class TestPartition:
    def test_fitting_cst_passes_through(self, micro_graph):
        cst, order = make_cst("q0", micro_graph)
        limits = PartitionLimits(
            max_bytes=cst.size_bytes() + 10,
            max_degree=cst.max_candidate_degree() + 1,
        )
        parts, stats = partition_to_list(cst, order, limits)
        assert len(parts) == 1
        assert stats.num_splits == 0

    def test_partitions_satisfy_limits(self, micro_graph):
        for name in ("q1", "q2", "q6"):
            cst, order = make_cst(name, micro_graph)
            limits = tight_limits(cst)
            parts, _ = partition_to_list(cst, order, limits)
            for part in parts:
                assert fits(limits, part), name

    def test_partitions_disjoint_and_complete(self, micro_graph):
        for name in ("q0", "q2", "q5", "q7"):
            cst, order = make_cst(name, micro_graph)
            parts, _ = partition_to_list(cst, order, tight_limits(cst))
            seen: set[tuple[int, ...]] = set()
            for part in parts:
                part.check_consistency()
                for emb in cst_embeddings(part, order):
                    assert emb not in seen, "partition overlap"
                    seen.add(emb)
            assert len(seen) == count_reference_embeddings(
                get_query(name).graph, micro_graph
            ), name

    def test_fixed_k_policy(self, micro_graph):
        cst, order = make_cst("q1", micro_graph)
        limits = tight_limits(cst)
        parts, stats = partition_to_list(cst, order, limits, k_policy=2)
        assert all(fits(limits, p) for p in parts)
        assert all(k == 2 for k in stats.split_factors)

    def test_greedy_at_most_fixed2_partitions_or_close(self, micro_graph):
        cst, order = make_cst("q6", micro_graph)
        limits = tight_limits(cst)
        greedy, _ = partition_to_list(cst, order, limits, k_policy="greedy")
        fixed10, _ = partition_to_list(cst, order, limits, k_policy=10)
        assert len(greedy) <= len(fixed10)

    def test_bad_k_policy_rejected(self, micro_graph):
        cst, order = make_cst("q0", micro_graph)
        with pytest.raises(PartitionError):
            partition_to_list(cst, order, tight_limits(cst), k_policy="bad")
        with pytest.raises(PartitionError):
            partition_to_list(cst, order, tight_limits(cst), k_policy=1)

    def test_bad_order_rejected(self, micro_graph):
        cst, order = make_cst("q0", micro_graph)
        with pytest.raises(PartitionError, match="permutation"):
            partition_to_list(cst, order[:-1], tight_limits(cst))

    def test_max_partitions_guard(self, micro_graph):
        cst, order = make_cst("q6", micro_graph)
        with pytest.raises(PartitionError, match="partitions"):
            partition_to_list(cst, order, tight_limits(cst),
                              max_partitions=2)

    def test_intercept_consumes_oversized(self, micro_graph):
        cst, order = make_cst("q6", micro_graph)
        limits = tight_limits(cst)
        offered: list[float] = []
        handed: list[float] = []
        parts = PartitionSet(cst)

        def sink(node, workload):
            handed.append(workload)
            parts.add(node)

        stats = partition_cst(
            cst, order, limits, sink,
            intercept=lambda w: offered.append(w) or True,
        )
        parts.pack()
        # The first violating CST - the root - is consumed whole and
        # handed to the sink with its workload; nothing is split.
        assert offered == [estimate_workload(cst)]
        assert handed == offered
        assert len(parts) == 1
        assert parts.workloads == tuple(offered)
        assert parts.size_bytes == (cst.size_bytes(),)
        assert_same_cst(parts[0], cst)
        assert stats.num_splits == 0
        assert stats.num_partitions == 0
        assert stats.total_bytes == 0

    def test_intercept_false_proceeds(self, micro_graph):
        cst, order = make_cst("q1", micro_graph)
        limits = tight_limits(cst)
        baseline, base_stats = partition_to_list(cst, order, limits)
        parts = PartitionSet(cst)
        offered: list[float] = []
        stats = partition_cst(
            cst, order, limits, lambda node, _w: parts.add(node),
            intercept=lambda w: offered.append(w) or False,
        )
        parts.pack()
        # Every oversized CST is offered (again after each singleton
        # advance); declining all yields exactly the baseline.
        assert len(offered) >= base_stats.num_splits > 0
        assert stats == base_stats
        assert len(parts) == len(baseline)
        assert parts.size_bytes == baseline.size_bytes
        for part, base in zip(parts, baseline, strict=True):
            assert_same_cst(part, base)

    def test_tree_only_partitions_keep_flag(self, micro_graph):
        # q8 has non-tree edges, which a tree-only index does not
        # materialise: the restriction must skip them, and every
        # partition must stay a consistent tree-only CST.
        q = get_query("q8").graph
        cst = build_cst(q, micro_graph, include_non_tree=False)
        order = path_based_order(cst.tree, micro_graph)
        parts, stats = partition_to_list(cst, order, tight_limits(cst))
        assert stats.num_splits > 0
        for part in parts:
            assert part.tree_only
            part.check_consistency()

    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 3000),
        query_seed=st.integers(0, 3000),
        qn=st.integers(2, 6),
        size_divisor=st.integers(2, 12),
        degree_divisor=st.integers(1, 4),
        k_policy=st.sampled_from(["greedy", 2, 3, 7]),
        split_policy=st.sampled_from(["order", "degree"]),
        delta=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
    )
    def test_sink_contract_random(
        self, data_seed, query_seed, qn, size_divisor, degree_divisor,
        k_policy, split_policy, delta,
    ):
        """Every handed part is consistent and weighed exactly, and the
        stats count exactly the non-intercepted parts."""
        data = random_labeled_graph(40, 170, 3, seed=data_seed)
        query = random_connected_query(
            qn, min(qn * (qn - 1) // 2, qn + 2), 3, seed=query_seed
        )
        cst = build_cst(query, data)
        if cst.is_empty():
            return
        order = path_based_order(cst.tree, data)
        limits = PartitionLimits(
            max_bytes=max(400, cst.size_bytes() // size_divisor),
            max_degree=max(3, cst.max_candidate_degree() // degree_divisor),
        )
        scheduler = WorkloadScheduler(delta=delta)
        taken: list[bool] = []
        handed: list[tuple] = []
        parts = PartitionSet(cst)

        def intercept(workload: float) -> bool:
            take = scheduler.would_accept_cpu(workload)
            taken.append(take)
            return take

        def sink(node, workload: float) -> None:
            # The sink right after an accepted offer gets that CST.
            handed.append((workload, bool(taken) and taken[-1]))
            if taken:
                taken[-1] = False
            scheduler.assign(node, workload)
            parts.add(node)

        stats = partition_cst(
            cst, order, limits, sink, k_policy=k_policy,
            intercept=intercept if delta > 0 else None,
            split_policy=split_policy,
        )
        parts.pack()
        assert parts.workloads == tuple(w for w, _took in handed)
        emitted = [part for part, (_w, took) in zip(parts, handed)
                   if not took]
        for p, (part, (workload, took)) in enumerate(zip(parts, handed)):
            part.check_consistency()
            assert workload == estimate_workload(part)
            assert parts.size_bytes[p] == part.size_bytes()
            if not took:
                assert fits(limits, part)
        assert stats.num_partitions == len(emitted)
        assert stats.total_bytes == sum(p.size_bytes() for p in emitted)

    @pytest.mark.parametrize("members", [
        lambda n: [1, 2, 3],
        lambda n: [0, 2, n - 1],
        lambda n: list(range(n))[::-1],
    ], ids=["contiguous", "non-contiguous", "reversed"])
    def test_take_slices_members(self, micro_graph, members):
        cst, order = make_cst("q2", micro_graph)
        pset, _ = partition_to_list(cst, order, tight_limits(cst))
        picked = members(len(pset))
        taken = pset.take(picked)
        assert len(taken) == len(picked)
        assert taken.size_bytes == tuple(pset.size_bytes[m] for m in picked)
        assert taken.workloads == tuple(pset.workloads[m] for m in picked)
        for i, m in enumerate(picked):
            assert_same_cst(taken[i], pset[m])
            assert taken[i].tree_only == pset[m].tree_only

    def test_narrow_expansion_passes_change_nothing(self, micro_graph,
                                                    monkeypatch):
        """Expanding a level in many passes (one node's children each)
        yields the same partitions, stats and workloads as one pass."""
        cst, order = make_cst("q1", micro_graph)
        limits = tight_limits(cst)
        for split_policy in ("order", "degree"):
            wide, wide_stats = partition_to_list(
                cst, order, limits, split_policy=split_policy
            )
            with monkeypatch.context() as patch:
                patch.setattr(partition_module, "EXPANSION_BYTES", 1)
                narrow, narrow_stats = partition_to_list(
                    cst, order, limits, split_policy=split_policy
                )
            assert narrow_stats == wide_stats
            assert narrow.workloads == wide.workloads
            assert narrow.size_bytes == wide.size_bytes
            for got, want in zip(narrow.arrays(), wide.arrays(), strict=True):
                assert np.array_equal(got, want)

    def test_stats_totals(self, micro_graph):
        cst, order = make_cst("q2", micro_graph)
        parts, stats = partition_to_list(cst, order, tight_limits(cst))
        assert stats.num_partitions == len(parts)
        assert stats.total_bytes == sum(p.size_bytes() for p in parts)
        assert stats.max_recursion_depth >= 1

    @settings(max_examples=12, deadline=None)
    @given(
        data_seed=st.integers(0, 3000),
        query_seed=st.integers(0, 3000),
        divisor=st.integers(3, 10),
    )
    def test_partition_property_random(self, data_seed, query_seed, divisor):
        """Disjoint union of partition embeddings == whole embeddings."""
        data = random_labeled_graph(40, 170, 3, seed=data_seed)
        query = random_connected_query(5, 7, 3, seed=query_seed)
        cst = build_cst(query, data)
        if cst.is_empty():
            return
        order = path_based_order(cst.tree, data)
        limits = PartitionLimits(
            max_bytes=max(400, cst.size_bytes() // divisor),
            max_degree=max(3, cst.max_candidate_degree() // 2),
        )
        parts, _ = partition_to_list(cst, order, limits)
        whole = sorted(cst_embeddings(cst, order))
        pieces = sorted(
            emb for part in parts for emb in cst_embeddings(part, order)
        )
        assert pieces == whole


#: ``refine_cst`` output on DG-MINI: query -> (passes, SHA-256 of the
#: refined CST's flag, candidates and adjacency CSR arrays).
REFINE_DIGESTS = {
    "q0": (0, "496ea425f4c075bab9fc4df73e35406cc17b31d4a70a5458aa562d181930a2a7"),
    "q1": (1, "5047716ef10e8544340c846be34be746e3678f0e7c39454746161b78c7d605cc"),
    "q2": (0, "e4fd96898b8fdff758e8d99c8a4830f8dfc0f599a5f2c0ff9c1e54a53f8310e7"),
    "q3": (1, "23f12bff84784fa2235cab4a4b9bfee0e947f0da850614c8a35c33ad9b996301"),
    "q4": (0, "cc12814654421737e768c9855a72b03afb7187e33c2a62ec1dfe50a998ae62d7"),
    "q5": (0, "e3a72c378a6c37ea3ccdd72947f63749f807c9865692691ba2e756afa4d3ee16"),
    "q6": (0, "5ff65d2871490d930665a3ac95cdc2be964b46071a66e04fcbe864c672aa98d8"),
    "q7": (1, "2b3278712d330dd16c86f94fd65dab65bf478506fff5f80ff76a162e3b52067c"),
    "q8": (0, "9b0c45700fd9cb05423a973543d8006df56678dff95128c6a5c15df7a81c20d1"),
}


def cst_digest(cst) -> str:
    h = hashlib.sha256()
    h.update(repr(cst.tree_only).encode())
    arrays = list(cst.candidates)
    for edge in sorted(cst.adjacency):
        h.update(repr(edge).encode())
        arrays += [cst.adjacency[edge].indptr, cst.adjacency[edge].targets]
    for arr in arrays:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestRefine:
    @pytest.mark.parametrize("name", sorted(REFINE_DIGESTS))
    def test_refine_digest(self, mini_graph, name):
        refined, passes = refine_cst(build_cst(get_query(name).graph, mini_graph))
        assert (passes, cst_digest(refined)) == REFINE_DIGESTS[name]

    def test_refine_preserves_embeddings(self, micro_graph):
        for name in ("q1", "q3", "q6"):
            cst = build_cst(get_query(name).graph, micro_graph)
            refined, passes = refine_cst(cst)
            assert passes >= 0
            assert sorted(cst_embeddings(refined)) == sorted(
                cst_embeddings(cst)
            ), name

    def test_refine_monotone_shrink(self, micro_graph):
        cst = build_cst(get_query("q6").graph, micro_graph)
        refined, _ = refine_cst(cst)
        assert refined.size_bytes() <= cst.size_bytes()
        for u in range(cst.query.num_vertices):
            assert set(refined.candidates[u].tolist()) <= set(
                cst.candidates[u].tolist()
            )

    def test_refine_reaches_fixpoint(self, micro_graph):
        cst = build_cst(get_query("q2").graph, micro_graph)
        refined, _ = refine_cst(cst)
        again, passes = refine_cst(refined)
        assert passes == 0
        assert again.size_bytes() == refined.size_bytes()

    def test_refined_consistency(self, micro_graph):
        cst = build_cst(get_query("q8").graph, micro_graph)
        refined, _ = refine_cst(cst)
        refined.check_consistency()


class TestStats:
    def test_cst_summary(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        info = CSTSummary.of(cst)
        assert info.size_bytes == cst.size_bytes()
        assert info.workload == estimate_workload(cst)

    def test_partition_set_summary(self, micro_graph):
        cst, order = make_cst("q1", micro_graph)
        parts, _ = partition_to_list(cst, order, tight_limits(cst))
        info = PartitionSetSummary.of(parts)
        assert info.num_partitions == len(parts)
        assert info.total_bytes == sum(p.size_bytes() for p in parts)
        assert info.size_ratio(info.total_bytes) == pytest.approx(1.0)

    def test_empty_partition_set(self):
        info = PartitionSetSummary.of([])
        assert info.num_partitions == 0
        assert info.size_ratio(100) == 0.0
