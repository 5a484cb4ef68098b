"""Shared-memory CST plane tests (ISSUE 8).

Two properties carry the whole design:

* **Placed sets round-trip exactly.** ``arena.place_set(pset).load()``
  preserves every array of a partition set (offsets, candidates,
  adjacency CSR), its sizes and workloads, and so every partition's
  own CST, bit for bit, as read-only zero-copy views — including
  empty partitions and single-vertex queries — so a process worker
  computes on precisely the structure the parent partitioned
  (hypothesis-tested over random graphs and queries). A set is placed
  once, however often it is dispatched.
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
from repro.cst.partition import (
    FlatCST,
    PartitionLimits,
    PartitionSet,
    partition_to_list,
)
from repro.cst.structure import CST
from repro.cst.workload import estimate_workload
from repro.fpga.config import FpgaConfig
from repro.graph.generators import (
    random_connected_query,
    random_labeled_graph,
)
from repro.graph.graph import Graph
from repro.ldbc.datasets import load_dataset
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


def assert_cst_equal(got: CST, want: CST) -> None:
    for g, w in zip(got.candidates, want.candidates, strict=True):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)
    assert list(got.adjacency) == list(want.adjacency)
    for edge, w in want.adjacency.items():
        g = got.adjacency[edge]
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.targets, w.targets)
        assert np.array_equal(g.row_lens_array(), w.row_lens_array())
    assert got.size_bytes() == want.size_bytes()
    assert got.max_candidate_degree() == want.max_candidate_degree()


def assert_roundtrip_exact(pset: PartitionSet,
                           arena: CstArena) -> PartitionSet:
    """Round-trip ``pset`` through ``arena`` and assert exact equality."""
    back = arena.place_set(pset).load()
    # The header crosses the boundary as one pickled blob, so the
    # reconstruction is an equal copy, not the same object.
    assert np.array_equal(back.query.graph.indptr, pset.query.graph.indptr)
    assert np.array_equal(back.query.graph.indices,
                          pset.query.graph.indices)
    assert np.array_equal(back.query.graph.labels, pset.query.graph.labels)
    assert back.tree.root == pset.tree.root
    assert back.tree.parent == pset.tree.parent
    assert back.tree.bfs_order == pset.tree.bfs_order
    assert back.tree_only == pset.tree_only
    assert back.edges == pset.edges
    assert back.size_bytes == pset.size_bytes
    assert back.workloads == pset.workloads
    for got, want in zip(back.arrays(), pset.arrays(), strict=True):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert len(back) == len(pset)
    for got, want in zip(back, pset):
        assert_cst_equal(got, want)
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
            whole = PartitionSet.of(cst, estimate_workload(cst))
            assert_cst_equal(assert_roundtrip_exact(whole, arena)[0], cst)
            # Every Algorithm 2 partition round-trips exactly too.
            order = path_based_order(cst.tree, data)
            limits = PartitionLimits(
                max_bytes=max(cst.size_bytes() // 4, 64),
                max_degree=1 << 30,
            )
            try:
                parts, _ = partition_to_list(cst, order, limits)
            except Exception:
                return
            assert_roundtrip_exact(parts, arena)
        finally:
            arena.close()

    def test_empty_candidate_sets_round_trip(self, micro_graph):
        cst = build_cst(get_query("q1").graph, micro_graph)
        flat = FlatCST(cst)
        pset = PartitionSet(cst)
        pset.add(flat.node(np.zeros(flat.voff[-1], dtype=bool)))
        pset.pack()
        arena = CstArena()
        try:
            back = assert_roundtrip_exact(pset, arena)
            assert back[0].is_empty()
            # Empty arrays never occupy shared memory: only the offsets
            # and the (1-element) indptr arrays get placed.
            ref = arena.place_set(pset)
            n = cst.query.num_vertices
            assert all(r.segment == "" for r in ref.arrays[1:1 + n])
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
            whole = PartitionSet.of(cst, estimate_workload(cst))
            back = assert_roundtrip_exact(whole, arena)
            assert back[0].total_candidates() == 3
        finally:
            arena.close()

    def test_views_are_read_only(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        arena = CstArena()
        try:
            whole = PartitionSet.of(cst, estimate_workload(cst))
            back = arena.place_set(whole).load()
            with pytest.raises(ValueError):
                back.candidates[0][0] = 1
            with pytest.raises(ValueError):
                back[0].candidates[0][0] = 1
            edge = next(iter(back.adjacency))
            with pytest.raises(ValueError):
                back.adjacency[edge].targets[...] = 0
        finally:
            arena.close()

    def test_descriptor_pickles_small(self, micro_graph):
        import pickle

        cst = build_cst(get_query("q2").graph, micro_graph)
        pset = PartitionSet.of(cst, estimate_workload(cst))
        arena = CstArena()
        try:
            payload = len(pickle.dumps(arena.place_set(pset)))
            full = len(pickle.dumps(pset))
            assert payload < full / 10, (payload, full)
        finally:
            arena.close()


class TestArenaAllocation:
    def test_place_dedupes_by_identity(self, micro_graph):
        """A set is placed once; an equal but distinct set is a new
        placement."""
        cst = build_cst(get_query("q1").graph, micro_graph)
        pset = PartitionSet.of(cst, estimate_workload(cst))
        arena = CstArena()
        try:
            ref1 = arena.place_set(pset)
            before = arena.placed_bytes
            assert arena.place_set(pset) is ref1
            assert arena.placed_bytes == before
            assert arena.place_set(pset.take([0])) != ref1
            assert arena.placed_bytes > before
        finally:
            arena.close()

    def test_loaded_sets_cached_per_arena(self, micro_graph):
        """Every set of one arena stays loaded however many rotate
        through (serve cycles a dozen per worker); a ref from another
        arena drops them."""
        cst = build_cst(get_query("q1").graph, micro_graph)
        pset = PartitionSet.of(cst, estimate_workload(cst))
        arena, other = CstArena(), CstArena()
        try:
            refs = [arena.place_set(pset.take([0])) for _ in range(16)]
            first = [ref.load() for ref in refs]
            assert all(ref.load() is pset for ref, pset in zip(refs, first))
            other.place_set(pset).load()
            assert refs[0].load() is not first[0]
        finally:
            other.close()
            arena.close()

    def test_shared_partition_arrays_place_once(self):
        """Every window of a pooled run reads one placement of its
        run's sets, and a rerun served the same sets from the stage
        cache places nothing new."""
        ctx = RunContext(fpga=STRESS_FPGA,
                         executor=ExecutorConfig(workers=2))
        try:
            q = get_query("q1").graph
            data = load_dataset("DG-MICRO").graph
            placed = []
            for _ in range(2):
                out = REGISTRY.get("fast-share").run(ctx, q, data)
                assert out.metrics["stages"]["execute"]["cst_plane"] == "shm"
                placed.append(ctx.arena.placed_bytes)
            assert placed[0] > 0
            assert placed[1] == placed[0]
        finally:
            ctx.close()

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
