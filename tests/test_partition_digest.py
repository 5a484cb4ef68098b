"""Byte-identity digests of the partition stage's output.

``partition_stage`` runs Algorithm 2 and routes every emitted
partition through Algorithm 3. These tests pin a SHA-256 digest of
everything it hands to the execute stage (route, partition order,
candidate sets, adjacency CSR arrays, modeled sizes and the
``PartitionStats``) on a fixed grid of devices, deltas and split
policies. A refactor of the stage, or of its stage-cache memoization,
must reproduce every byte on a cold run and on a warm (cached) rerun
over the same context.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest

import repro.host.runtime as host_runtime
from repro.experiments.harness import HarnessConfig, make_context, tight_config
from repro.fpga.config import FpgaConfig
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.registry import REGISTRY
from repro.runtime.stages import build_cst_stage, partition_stage, plan_stage

#: The perfbench ``shatter`` device: 4 KB of BRAM, 4 ports, batch 16.
SHATTER = FpgaConfig(bram_bytes=4 * 1024, batch_size=16, max_ports=4)
TIGHT = tight_config().fpga

#: (dataset, query, device, delta, split policy) -> digest.
DIGESTS = {
    ("DG-MINI", "q1", "shatter", 0.1, "order"):
        "664512d37186ff8c4f0805505b60c26f5a7dbdea38edab5be457974443311e78",
    ("DG-MINI", "q1", "shatter", 0.1, "degree"):
        "1e7bc953e40a4812b494c5d44db0cfdf2fb68e5b6320587f6836e0f148874360",
    ("DG-MINI", "q1", "shatter", 0.0, "order"):
        "e488a3a75830ad4f5d630bcd6727af41f65f37e55226e99389ec240c57bbbb01",
    ("DG-MINI", "q1", "shatter", 0.0, "degree"):
        "1199ee71ac48057e60cb38cf973a75cca81d1617bc8ed8b2be84c0f09e3f1084",
    ("DG-MINI", "q5", "tight", 0.1, "order"):
        "3e6bf0ed5028c4d275857321d784416aa051d528029692ff8c4101dfc0ce31b4",
    ("DG-MINI", "q5", "tight", 0.1, "degree"):
        "09c10ee5059ebb73aa2aee9e39eefe145632549f616c02aed29992736db424f0",
    ("DG-MINI", "q5", "tight", 0.0, "order"):
        "b8cf6cd8af5c9c79241ec090e59a91a09357250ea3aa2fe5ffe0209a4c4890e7",
    ("DG-MINI", "q5", "tight", 0.0, "degree"):
        "09c10ee5059ebb73aa2aee9e39eefe145632549f616c02aed29992736db424f0",
    ("DG-SMALL", "q0", "tight", 0.1, "order"):
        "a1848ca19ff45b176fd9e4271c8137363a2b19a14732afd01249d6412a8f97af",
    ("DG-SMALL", "q0", "tight", 0.1, "degree"):
        "cc8fb524ef9da3c533fbf111a2b5b8d9f991a8144aebacdb14674bd086958bd1",
    ("DG-SMALL", "q0", "tight", 0.0, "order"):
        "4a3f67e0e274c44b62295e0b88e0a9367e984c4f186d1762ce1d36cf8727b06c",
    ("DG-SMALL", "q0", "tight", 0.0, "degree"):
        "1fc58c6862f5393b61ab54f9cfaad2d9a3d2411f780f80875b3922464639dc73",
}
DEVICES = {"shatter": SHATTER, "tight": TIGHT}


@pytest.fixture(scope="module")
def graphs():
    return {
        name: load_dataset(name, use_cache=False).graph
        for name in ("DG-MINI", "DG-SMALL")
    }


def _hash_array(h, arr: np.ndarray) -> None:
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def work_digest(work, order: tuple[int, ...]) -> str:
    """SHA-256 over a ``ScheduledWork`` and the run's matching order."""
    h = hashlib.sha256()
    h.update(repr(tuple(order)).encode())
    for route, parts in (("fpga", work.fpga_parts), ("cpu", work.cpu_parts)):
        h.update(f"{route}:{len(parts)}".encode())
        for part in parts:
            h.update(repr(part.size_bytes()).encode())
            for cand in part.candidates:
                _hash_array(h, cand)
            for key in sorted(part.adjacency):
                adj = part.adjacency[key]
                h.update(repr(key).encode())
                _hash_array(h, adj.indptr)
                _hash_array(h, adj.targets)
    h.update(repr(dataclasses.asdict(work.stats)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_partition_stage_digest(case, graphs, monkeypatch):
    dataset, query, device, delta, split_policy = case
    cfg = DEVICES[device]
    captured = []
    stage = host_runtime.partition_stage

    def capture(*args, **kwargs):
        work = stage(*args, **kwargs)
        captured.append(work)
        return work

    monkeypatch.setattr(host_runtime, "partition_stage", capture)
    ctx = make_context(
        HarnessConfig(fpga=cfg, delta=delta, split_policy=split_policy)
    )
    q = get_query(query).graph
    data = graphs[dataset]
    # Cold run, then a warm rerun over the same context's stage cache.
    digests = []
    for _ in range(2):
        outcome = REGISTRY.run("fast-share", q, data, ctx=ctx)
        digests.append(
            work_digest(captured[-1], outcome.metrics["stages"]["plan"]["order"])
        )
    assert digests == [DIGESTS[case]] * 2


def test_partitions_freed_without_gc(graphs):
    """Dropping a ``ScheduledWork`` frees its partitions by reference
    counting alone: no reference cycle keeps a run's partitions alive
    until the next full collection (a memory leak under load)."""
    ctx = make_context(
        HarnessConfig(fpga=SHATTER, delta=0.1, stage_cache=False)
    )
    data = graphs["DG-MINI"]
    plan = plan_stage(ctx, get_query("q1").graph, data, None)
    cst = build_cst_stage(ctx, plan, data)
    limits = SHATTER.partition_limits(plan.query)
    gc.disable()
    try:
        work = partition_stage(ctx, data, cst, plan, limits, delta=0.1)
        assert work.stats.num_splits > 0 and work.cpu_parts
        part = weakref.ref(work.fpga_parts[-1])
        del work
        assert part() is None
    finally:
        gc.enable()
