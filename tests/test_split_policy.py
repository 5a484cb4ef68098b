"""Tests for the degree-targeted partition split policy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import count_reference_embeddings
from repro.common.errors import PartitionError
from repro.cst.builder import build_cst
from repro.cst.partition import PartitionLimits, partition_to_list
from repro.graph.generators import random_connected_query, random_labeled_graph
from repro.host.cpu_matcher import cst_embeddings
from repro.host.runtime import FastRunner
from repro.ldbc.queries import get_query
from repro.query.ordering import path_based_order


def make(query_name, data):
    q = get_query(query_name)
    cst = build_cst(q.graph, data)
    order = path_based_order(cst.tree, data)
    limits = PartitionLimits(
        max_bytes=max(512, cst.size_bytes() // 5),
        max_degree=max(4, cst.max_candidate_degree() // 3),
    )
    return cst, order, limits


class TestDegreePolicy:
    @pytest.mark.parametrize("name", ["q0", "q1", "q2", "q5", "q6"])
    def test_disjoint_and_complete(self, micro_graph, name):
        cst, order, limits = make(name, micro_graph)
        parts, _ = partition_to_list(cst, order, limits,
                                     split_policy="degree")
        seen = set()
        for part in parts:
            assert part.size_bytes() <= limits.max_bytes
            assert part.max_candidate_degree() <= limits.max_degree
            for emb in cst_embeddings(part, order):
                assert emb not in seen, "overlap"
                seen.add(emb)
        assert len(seen) == count_reference_embeddings(
            get_query(name).graph, micro_graph
        ), name

    def test_collapses_hub_explosion(self, micro_graph):
        """On port-capped hub queries the degree policy must produce
        far fewer partitions than Algorithm 2's order policy."""
        q = get_query("q1")
        cst = build_cst(q.graph, micro_graph)
        order = path_based_order(cst.tree, micro_graph)
        limits = PartitionLimits(
            max_bytes=1 << 30,
            max_degree=max(2, cst.max_candidate_degree() // 8),
        )
        by_order, _ = partition_to_list(cst, order, limits)
        by_degree, _ = partition_to_list(cst, order, limits,
                                         split_policy="degree")
        assert len(by_degree) < len(by_order)

    def test_unknown_policy_rejected(self, micro_graph):
        cst, order, limits = make("q0", micro_graph)
        with pytest.raises(PartitionError, match="split policy"):
            partition_to_list(cst, order, limits, split_policy="magic")

    def test_runner_integration(self, micro_graph, tight_fpga_config):
        q = get_query("q6")
        ref = count_reference_embeddings(q.graph, micro_graph)
        runner = FastRunner(config=tight_fpga_config, variant="sep",
                            split_policy="degree")
        result = runner.run(q.graph, micro_graph)
        assert result.embeddings == ref

    @settings(max_examples=10, deadline=None)
    @given(
        data_seed=st.integers(0, 2000),
        query_seed=st.integers(0, 2000),
    )
    def test_policies_agree_property(self, data_seed, query_seed):
        data = random_labeled_graph(40, 170, 3, seed=data_seed)
        query = random_connected_query(5, 7, 3, seed=query_seed)
        cst = build_cst(query, data)
        if cst.is_empty():
            return
        order = path_based_order(cst.tree, data)
        limits = PartitionLimits(
            max_bytes=max(400, cst.size_bytes() // 6),
            max_degree=max(3, cst.max_candidate_degree() // 2),
        )
        whole = sorted(cst_embeddings(cst, order))
        for policy in ("order", "degree"):
            parts, _ = partition_to_list(cst, order, limits,
                                         split_policy=policy)
            pieces = sorted(
                e for p in parts for e in cst_embeddings(p, order)
            )
            assert pieces == whole, policy
