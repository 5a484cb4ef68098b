"""Edge-case and failure-injection tests across the stack."""

from __future__ import annotations

from repro.baselines.reference import count_reference_embeddings
from repro.cst.builder import build_cst
from repro.cst.partition import PartitionLimits, partition_to_list
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import FastEngine
from repro.graph.graph import Graph
from repro.host.cpu_matcher import count_cst_embeddings
from repro.host.runtime import FastRunner
from repro.ldbc.schema import Label
from repro.query.query_graph import QueryGraph


def person_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    return Graph.from_edges(n, edges, [int(Label.PERSON)] * n)


class TestSingleVertexQuery:
    """|V(q)| = 1: the degenerate but legal extreme."""

    def test_reference(self, micro_graph):
        q = Graph.from_edges(1, [], [int(Label.CITY)])
        cities = len(micro_graph.vertices_with_label(int(Label.CITY)))
        assert count_reference_embeddings(q, micro_graph) == cities

    def test_cst_matcher(self, micro_graph):
        q = Graph.from_edges(1, [], [int(Label.CITY)])
        cst = build_cst(q, micro_graph)
        assert count_cst_embeddings(cst) == count_reference_embeddings(
            q, micro_graph
        )

    def test_engine(self, micro_graph):
        q = Graph.from_edges(1, [], [int(Label.CITY)])
        cst = build_cst(q, micro_graph)
        rep = FastEngine().run(cst)
        assert rep.embeddings == count_reference_embeddings(q, micro_graph)

    def test_runtime(self, micro_graph):
        q = Graph.from_edges(1, [], [int(Label.CITY)])
        result = FastRunner(variant="sep").run(q, micro_graph)
        assert result.embeddings == count_reference_embeddings(
            q, micro_graph
        )


class TestSingleEdgeQuery:
    def test_edge_count_matches(self, micro_graph):
        q = Graph.from_edges(
            2, [(0, 1)], [int(Label.PERSON), int(Label.PERSON)]
        )
        # Each person-person edge yields two directed embeddings.
        got = FastRunner().run(q, micro_graph).embeddings
        assert got == count_reference_embeddings(q, micro_graph)
        assert got % 2 == 0


class TestBatchSizeExtremes:
    def test_batch_size_one(self, micro_graph):
        from repro.ldbc.queries import get_query
        q = get_query("q0")
        cst = build_cst(q.graph, micro_graph)
        cfg = FpgaConfig(batch_size=1)
        rep = FastEngine(cfg).run(cst)
        assert rep.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )
        assert max(rep.buffer_peaks.values()) <= 1

    def test_huge_batch(self, micro_graph):
        from repro.ldbc.queries import get_query
        q = get_query("q2")
        cst = build_cst(q.graph, micro_graph)
        cfg = FpgaConfig(batch_size=1 << 18, bram_bytes=1 << 30)
        rep = FastEngine(cfg).run(cst)
        assert rep.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )


class TestNoMatchWorkloads:
    def test_label_absent_counts_zero(self, micro_graph):
        q = Graph.from_edges(2, [(0, 1)], [int(Label.PERSON), 99])
        assert count_reference_embeddings(q, micro_graph) == 0
        assert FastRunner().run(q, micro_graph).embeddings == 0

    def test_structurally_impossible(self, micro_graph):
        # A CITY-CITY edge never exists in the schema.
        q = Graph.from_edges(2, [(0, 1)], [int(Label.CITY)] * 2)
        assert FastRunner().run(q, micro_graph).embeddings == 0

    def test_partition_of_empty_cst(self, micro_graph):
        q = Graph.from_edges(2, [(0, 1)], [int(Label.CITY)] * 2)
        cst = build_cst(q, micro_graph)
        parts, stats = partition_to_list(
            cst, (0, 1), PartitionLimits(max_bytes=10, max_degree=1)
        )
        assert len(parts) == 0
        assert stats.num_empty_skipped == 1


class TestAutomorphismHeavyWorkloads:
    """Highly symmetric queries stress injectivity handling."""

    def test_clique_query_on_clique(self):
        data = person_graph(
            5, [(i, j) for i in range(5) for j in range(i + 1, 5)]
        )
        query = person_graph(
            4, [(i, j) for i in range(4) for j in range(i + 1, 4)]
        )
        # 5P4 injective mappings = 120.
        assert FastRunner().run(query, data).embeddings == 120

    def test_star_query(self):
        data = person_graph(6, [(0, i) for i in range(1, 6)])
        query = person_graph(4, [(0, 1), (0, 2), (0, 3)])
        # Centre must map to the hub: 5*4*3 = 60.
        assert FastRunner().run(query, data).embeddings == 60

    def test_path_query_both_directions(self):
        data = person_graph(4, [(0, 1), (1, 2), (2, 3)])
        query = person_graph(3, [(0, 1), (1, 2)])
        # Paths of length 2 in a path of length 3: 2 centres x 2
        # orientations = 4.
        assert FastRunner().run(query, data).embeddings == 4


class TestPartitionWithNonTreeOrders:
    def test_partition_correct_under_random_order(self, micro_graph):
        from repro.host.cpu_matcher import cst_embeddings
        from repro.ldbc.queries import get_query
        from repro.query.ordering import random_connected_order

        q = get_query("q2")
        cst = build_cst(q.graph, micro_graph)
        ref = count_reference_embeddings(q.graph, micro_graph)
        for seed in range(3):
            order = random_connected_order(q.graph, seed=seed)
            limits = PartitionLimits(
                max_bytes=max(512, cst.size_bytes() // 5),
                max_degree=max(4, cst.max_candidate_degree() // 2),
            )
            parts, _ = partition_to_list(cst, order, limits)
            total = sum(len(cst_embeddings(p, order)) for p in parts)
            assert total == ref, (seed, order)


class TestQueryGraphGuards:
    def test_two_vertex_minimum_edge(self):
        q = QueryGraph(Graph.from_edges(2, [(0, 1)], [0, 1]))
        assert q.num_edges == 1

    def test_single_vertex_allowed(self):
        q = QueryGraph(Graph.from_edges(1, [], [3]))
        assert q.num_vertices == 1
        assert q.neighbors(0) == ()
