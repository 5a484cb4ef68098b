"""Shared-memory CST plane tests (ISSUE 8).

Two properties carry the whole design:

* **Descriptor round-trips are exact.** ``CST.from_descriptor(
  CST.to_descriptor(arena))`` preserves candidates, adjacency CSR
  content, ``size_bytes()``, and ``row_lens_array()`` bit-for-bit —
  including empty candidate sets and single-vertex partitions — so a
  process worker computes on precisely the structure the parent
  partitioned (hypothesis-tested over random graphs and queries).
* **Segments never leak.** The arena unlinks its ``/dev/shm`` entries
  on normal close, on exceptions mid-execute, at interpreter exit via
  the atexit guard, and — through the ``multiprocessing`` resource
  tracker — after a SIGKILL mid-run followed by ``--resume``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DeadlineExceededError
from repro.cst.builder import build_cst
from repro.cst.partition import PartitionLimits, partition_to_list
from repro.cst.structure import CST, CandidateAdjacency
from repro.fpga.config import FpgaConfig
from repro.graph.generators import (
    random_connected_query,
    random_labeled_graph,
)
from repro.graph.graph import Graph
from repro.ldbc.queries import get_query
from repro.query.ordering import path_based_order
from repro.query.query_graph import as_query
from repro.query.spanning_tree import build_bfs_tree
from repro.runtime.context import CancellationToken, RunContext
from repro.runtime.executor import ExecutorConfig
from repro.runtime.registry import REGISTRY
from repro.runtime.shm import ArrayRef, CstArena

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small device so DG-MICRO produces a stream of partitions.
STRESS_FPGA = FpgaConfig(bram_bytes=8 * 1024, batch_size=128,
                         max_ports=32)


def segment_exists(name: str) -> bool:
    """Probe a shared-memory segment by name (tracker-neutral).

    Attaching registers with the resource tracker on some Python
    versions; the registration is withdrawn immediately so the probe
    itself can never cause (or mask) an unlink.
    """
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(probe._name, "shared_memory")
    except Exception:
        pass
    probe.close()
    return True


def assert_roundtrip_exact(cst: CST, arena: CstArena) -> CST:
    """Round-trip ``cst`` through ``arena`` and assert exact equality."""
    back = CST.from_descriptor(arena.descriptor_for(cst))
    # The query/tree header crosses the boundary as one shared pickled
    # blob, so the reconstruction is an equal copy, not the same object.
    assert np.array_equal(back.query.graph.indptr, cst.query.graph.indptr)
    assert np.array_equal(back.query.graph.indices,
                          cst.query.graph.indices)
    assert np.array_equal(back.query.graph.labels, cst.query.graph.labels)
    assert back.tree.root == cst.tree.root
    assert back.tree.parent == cst.tree.parent
    assert back.tree.bfs_order == cst.tree.bfs_order
    assert back.tree_only == cst.tree_only
    assert len(back.candidates) == len(cst.candidates)
    for got, want in zip(back.candidates, cst.candidates):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert set(back.adjacency) == set(cst.adjacency)
    for edge, want in cst.adjacency.items():
        got = back.adjacency[edge]
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.targets, want.targets)
        assert np.array_equal(got.row_lens_array(), want.row_lens_array())
    assert back.size_bytes() == cst.size_bytes()
    assert back.max_candidate_degree() == cst.max_candidate_degree()
    return back


class TestDescriptorRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(0, 10_000),
        query_seed=st.integers(0, 10_000),
        qn=st.integers(3, 6),
    )
    def test_random_cst_and_partitions_exact(self, data_seed, query_seed,
                                             qn):
        data = random_labeled_graph(40, 160, 3, seed=data_seed)
        qm = min(qn * (qn - 1) // 2, qn + 2)
        query = random_connected_query(qn, qm, 3, seed=query_seed)
        cst = build_cst(query, data)
        arena = CstArena()
        try:
            assert_roundtrip_exact(cst, arena)
            # Every Algorithm 2 partition round-trips exactly too —
            # partitions share the root's arrays where they keep them
            # whole, the exact case the arena's identity memo covers.
            order = path_based_order(cst.tree, data)
            limits = PartitionLimits(
                max_bytes=max(cst.size_bytes() // 4, 64),
                max_degree=1 << 30,
            )
            try:
                parts, _ = partition_to_list(cst, order, limits)
            except Exception:
                parts = [cst]
            for part in parts:
                assert_roundtrip_exact(part, arena)
        finally:
            arena.close()

    def test_empty_candidate_sets_round_trip(self, micro_graph):
        cst = build_cst(get_query("q1").graph, micro_graph)
        empty = CST(
            query=cst.query,
            tree=cst.tree,
            candidates=[c[:0] for c in cst.candidates],
            adjacency={
                edge: CandidateAdjacency(
                    np.zeros(1, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
                for edge in cst.adjacency
            },
        )
        arena = CstArena()
        try:
            back = assert_roundtrip_exact(empty, arena)
            assert back.is_empty()
            # Empty arrays never occupy shared memory: only the
            # (1-element) indptr arrays get placed.
            desc = arena.descriptor_for(empty)
            assert all(ref.segment == "" for ref in desc.candidates)
        finally:
            arena.close()

    def test_single_vertex_partition_round_trips(self):
        g = Graph(
            np.array([0, 0], dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.array([0], dtype=np.int64),
        )
        q = as_query(g)
        cst = CST(
            query=q,
            tree=build_bfs_tree(q, 0),
            candidates=[np.array([5, 9, 12], dtype=np.int64)],
            adjacency={},
        )
        arena = CstArena()
        try:
            back = assert_roundtrip_exact(cst, arena)
            assert back.total_candidates() == 3
        finally:
            arena.close()

    def test_views_are_read_only(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        arena = CstArena()
        try:
            back = CST.from_descriptor(arena.descriptor_for(cst))
            with pytest.raises(ValueError):
                back.candidates[0][0] = 1
            edge = next(iter(back.adjacency))
            with pytest.raises(ValueError):
                back.adjacency[edge].targets[...] = 0
        finally:
            arena.close()

    def test_descriptor_pickles_small(self, micro_graph):
        import pickle

        cst = build_cst(get_query("q2").graph, micro_graph)
        arena = CstArena()
        try:
            desc = arena.descriptor_for(cst)
            payload = len(pickle.dumps(desc))
            full = len(pickle.dumps(cst))
            assert payload < full / 10, (payload, full)
        finally:
            arena.close()


class TestArenaAllocation:
    def test_place_dedupes_by_identity(self):
        arena = CstArena()
        try:
            arr = np.arange(100, dtype=np.int64)
            ref1 = arena.place(arr)
            before = arena.placed_bytes
            ref2 = arena.place(arr)
            assert ref2 is ref1
            assert arena.placed_bytes == before
            # An equal-but-distinct array is a distinct placement.
            ref3 = arena.place(arr.copy())
            assert ref3 != ref1
        finally:
            arena.close()

    def test_shared_partition_arrays_place_once(self, micro_graph):
        """Partitions share unfiltered arrays with their parent by
        reference; the arena must materialise each buffer once."""
        cst = build_cst(get_query("q1").graph, micro_graph)
        order = path_based_order(cst.tree, micro_graph)
        limits = PartitionLimits(
            max_bytes=max(cst.size_bytes() // 8, 64), max_degree=1 << 30
        )
        parts, _ = partition_to_list(cst, order, limits)
        assert len(parts) > 1
        shared = [
            u for u in range(cst.query.num_vertices)
            if all(p.candidates[u] is cst.candidates[u] for p in parts)
        ]
        arena = CstArena()
        try:
            descs = [arena.descriptor_for(p) for p in parts]
            for u in shared:
                refs = {d.candidates[u] for d in descs}
                assert len(refs) == 1
        finally:
            arena.close()

    def test_placements_are_aligned(self):
        arena = CstArena()
        try:
            for n in (3, 1, 7, 2):
                ref = arena.place(np.arange(n, dtype=np.int64))
                assert ref.offset % 8 == 0
        finally:
            arena.close()

    def test_empty_array_ref_views_fresh(self):
        ref = ArrayRef("", 0, (0,))
        view = ref.view()
        assert view.shape == (0,)
        assert view.dtype == np.int64
        assert not view.flags.writeable

    def test_oversized_array_gets_own_segment(self):
        arena = CstArena(chunk_bytes=1024)
        try:
            small = arena.place(np.arange(4, dtype=np.int64))
            big = arena.place(np.arange(1024, dtype=np.int64))
            assert big.segment != small.segment
            assert np.array_equal(
                big.view(), np.arange(1024, dtype=np.int64)
            )
        finally:
            arena.close()

    def test_place_after_close_raises(self):
        arena = CstArena()
        arena.close()
        with pytest.raises(RuntimeError):
            arena.place(np.arange(3, dtype=np.int64))


class TestArenaLifecycle:
    def test_close_unlinks_segments(self):
        arena = CstArena(chunk_bytes=1024)
        arena.place(np.arange(64, dtype=np.int64))
        arena.place(np.arange(1024, dtype=np.int64))
        names = arena.segment_names()
        assert names and all(segment_exists(n) for n in names)
        arena.close()
        assert arena.closed
        assert not any(segment_exists(n) for n in names)
        arena.close()  # idempotent

    def test_context_close_unlinks_owned_arena(self):
        ctx = RunContext()
        arena = ctx.ensure_arena()
        assert arena is not None
        arena.place(np.arange(32, dtype=np.int64))
        names = arena.segment_names()
        ctx.close()
        assert not any(segment_exists(n) for n in names)
        assert ctx.arena is None

    def test_context_close_spares_injected_arena(self):
        arena = CstArena()
        try:
            arena.place(np.arange(16, dtype=np.int64))
            ctx = RunContext()
            ctx.arena = arena  # injected: serving-layer style
            assert ctx.ensure_arena() is arena
            names = arena.segment_names()
            ctx.close()
            assert all(segment_exists(n) for n in names)
            assert not arena.closed
        finally:
            arena.close()

    def test_exception_mid_execute_unlinks_on_close(self, micro_graph):
        """A deadline cancellation mid-dispatch must not leak segments:
        the context's close (the CLI ``finally`` path) unlinks."""
        q = get_query("q1")
        baseline = REGISTRY.get("fast-sep").run(
            RunContext(fpga=STRESS_FPGA), q.graph, micro_graph
        )
        stages = baseline.metrics["stages"]
        pre_execute = sum(
            s.get("modeled_seconds", 0.0)
            for name, s in stages.items() if name != "execute"
        )
        budget = pre_execute + (baseline.seconds - pre_execute) * 0.5
        ctx = RunContext(
            fpga=STRESS_FPGA,
            executor=ExecutorConfig(workers=4),
            cancellation=CancellationToken(budget_s=budget),
        )
        with pytest.raises(DeadlineExceededError):
            REGISTRY.get("fast-sep").run(ctx, q.graph, micro_graph)
        assert ctx.arena is not None  # dispatch really started
        names = ctx.arena.segment_names()
        assert names
        ctx.close()
        assert not any(segment_exists(n) for n in names)

    def test_atexit_guard_sweeps_unclosed_arena(self):
        """A process that forgets ``close()`` still leaks nothing."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.runtime.shm import CstArena
            arena = CstArena(chunk_bytes=1024)
            arena.place(np.arange(64, dtype=np.int64))
            print(" ".join(arena.segment_names()))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        names = proc.stdout.split()
        assert names
        assert not any(segment_exists(n) for n in names)


#: Child for the SIGKILL leak test: a journaled process-pool run that
#: the ``REPRO_JOURNAL_CRASH_AFTER`` hook SIGKILLs mid-execute.
KILL_CHILD = textwrap.dedent("""
    import sys

    from repro.experiments.harness import (
        HarnessConfig, make_context, tight_config,
    )
    from repro.ldbc.datasets import load_dataset
    from repro.ldbc.queries import get_query
    from repro.runtime.registry import REGISTRY

    journal, mode = sys.argv[1:3]
    config = tight_config(HarnessConfig(
        workers=4,
        pool="process",
        journal_path=journal if mode == "record" else None,
        resume_path=journal if mode == "resume" else None,
    ))
    ctx = make_context(config)
    try:
        out = REGISTRY.get("fast-sep").run(
            ctx, get_query("q1").graph, load_dataset("DG-MINI").graph
        )
    finally:
        ctx.close()
    print(out.embeddings)
""")


def _poll_shm_clean(before: set[str], timeout_s: float = 20.0) -> set[str]:
    """New ``psm_*`` entries under /dev/shm, polled until they drain.

    The resource tracker unlinks asynchronously after the SIGKILLed
    owner (and its PDEATHSIG-killed workers) disappear, so the drain
    is eventually-consistent, not immediate.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        leaked = {
            n for n in os.listdir("/dev/shm")
            if n.startswith("psm_") and n not in before
        }
        if not leaked or time.monotonic() >= deadline:
            return leaked
        time.sleep(0.25)


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX /dev/shm"
)
class TestSigkillLeaks:
    def test_sigkill_then_resume_leaks_nothing(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_JOURNAL_CRASH_AFTER"] = "8"
        before = set(os.listdir("/dev/shm"))
        killed = subprocess.run(
            [sys.executable, "-c", KILL_CHILD, str(journal), "record"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=300,
        )
        assert killed.returncode == -signal.SIGKILL, (
            killed.stderr[-800:]
        )
        leaked = _poll_shm_clean(before)
        assert not leaked, f"segments leaked after SIGKILL: {leaked}"

        env.pop("REPRO_JOURNAL_CRASH_AFTER")
        resumed = subprocess.run(
            [sys.executable, "-c", KILL_CHILD, str(journal), "resume"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr[-800:]
        leaked = _poll_shm_clean(before)
        assert not leaked, f"segments leaked after resume: {leaked}"


settings.register_profile("shm", deadline=None)
settings.load_profile("shm")
