"""Byte-identity digests of the partition stage and of what runs on it.

``partition_stage`` runs Algorithm 2 and routes every emitted
partition through Algorithm 3. These tests pin a SHA-256 digest of
everything it hands to the execute stage (route, partition order,
candidate sets, adjacency CSR arrays, modeled sizes and the
``PartitionStats``) on a fixed grid of devices, deltas and split
policies. A refactor of the stage, or of its stage-cache memoization,
must reproduce every byte on a cold run and on a warm (cached) rerun
over the same context.

Two more digest families pin the modeled clock downstream of it: every
:class:`KernelReport` a FAST-SHARE run launches on the same grid, and
fault-free multi-FPGA runs (identical pools, a heterogeneous fleet,
``buffers`` 1 and 2, and a dead-device failover), each over the
embeddings, modeled total, makespan, every device's kernel report and
PCIe seconds, and the health record.
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
from repro.fpga.engine import FastEngine
from repro.host.multi_fpga import MultiFpgaRunner
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.context import RunContext
from repro.runtime.executor import ExecutorConfig
from repro.runtime.faults import FAULT_KINDS, FaultPlan
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


#: Same grid -> digest of every kernel report, in launch order.
KERNEL_DIGESTS = {
    ("DG-MINI", "q1", "shatter", 0.1, "order"):
        "d50c03f8e2622408e11e5b58ce47de79c13e9996daf01e1339f4def7e6ea6964",
    ("DG-MINI", "q1", "shatter", 0.1, "degree"):
        "6959359763ac3a8a31a6b85f9e1b8b50a2b020d1346c0f2101113bfd03ad2770",
    ("DG-MINI", "q1", "shatter", 0.0, "order"):
        "541cc91a39d6c90460b743b6431c254459e4675eda744b88df669d7c7cabdd03",
    ("DG-MINI", "q1", "shatter", 0.0, "degree"):
        "f0849f91ec363d0924f3e32ea192bf59a1c078a545201e279d0a340d67f873df",
    ("DG-MINI", "q5", "tight", 0.1, "order"):
        "bee59d5018b034e660ba5a8574e3f898b7caa4f17f8e1f5cc61f1d18a54dbfdd",
    ("DG-MINI", "q5", "tight", 0.1, "degree"):
        "085971fca4bf38306ab756b51afb000b4e4e088508aea4586f932993ec23e158",
    ("DG-MINI", "q5", "tight", 0.0, "order"):
        "cd1b8dff288137a1763810ab23b83bcdc1318307e87e783c0cc90cc4fba93731",
    ("DG-MINI", "q5", "tight", 0.0, "degree"):
        "085971fca4bf38306ab756b51afb000b4e4e088508aea4586f932993ec23e158",
    ("DG-SMALL", "q0", "tight", 0.1, "order"):
        "37f3719f2c676480b845e93927f8cb9484d720e251347f34a76e70ce36dc70d8",
    ("DG-SMALL", "q0", "tight", 0.1, "degree"):
        "c76bf42aaab1e4e343002444b5fa6e6dfc090d5292ef1c985015d121051e3c2b",
    ("DG-SMALL", "q0", "tight", 0.0, "order"):
        "39750ba0c227a2b0cd5be1d22e36f8ca5bd2246152bc1b3f84546abddce99c05",
    ("DG-SMALL", "q0", "tight", 0.0, "degree"):
        "5c29ce3b0dc9ad8618f92da24268e8f652d7a95c00f53b8db2233639d66d8ef8",
}


def report_items(report) -> str:
    """Every field of a kernel report, with dict keys in sorted order."""
    fields = dataclasses.asdict(report)
    fields["buffer_peaks"] = sorted(fields["buffer_peaks"].items())
    return repr(sorted(fields.items()))


@pytest.mark.parametrize(
    "case", list(KERNEL_DIGESTS), ids=lambda c: "-".join(map(str, c))
)
def test_kernel_report_digest(case, graphs, monkeypatch):
    dataset, query, device, delta, split_policy = case
    reports = []
    launch = FastEngine.run

    def capture(self, *args, **kwargs):
        report = launch(self, *args, **kwargs)
        reports.append(report_items(report))
        return report

    monkeypatch.setattr(FastEngine, "run", capture)
    ctx = make_context(HarnessConfig(
        fpga=DEVICES[device], delta=delta, split_policy=split_policy,
    ))
    REGISTRY.run("fast-share", get_query(query).graph, graphs[dataset],
                 ctx=ctx)
    assert reports
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == KERNEL_DIGESTS[case]


#: Fault-free multi-FPGA runs of DG-MINI/q1: case -> (runner and
#: context arguments, digest).
MULTI_CASES = {
    "tight-x2": (dict(num_devices=2), {}),
    "tight-x4": (dict(num_devices=4), {}),
    "fleet": (dict(fleet="u200,u280x2"), {}),
    "tight-x3-buffers1": (
        dict(num_devices=3), dict(executor=ExecutorConfig(buffers=1)),
    ),
    "tight-x3-buffers2": (
        dict(num_devices=3), dict(executor=ExecutorConfig(buffers=2)),
    ),
    "tight-x3-dead0": (
        dict(num_devices=3),
        dict(fault_plan=FaultPlan(
            seed=1, rates={k: 0.0 for k in FAULT_KINDS},
            dead_devices={0},
        )),
    ),
}
MULTI_DIGESTS = {
    "tight-x2":
        "4cba9fec1f6e0104598ee1996a61e16eb9bf75621be303b297bc1d650f11fe3c",
    "tight-x4":
        "94dd2e91fcd70f9dc4fb925677bb1de759895ee0dd6b882c2edd57a2abe21f91",
    "fleet":
        "7ba5059b4657be133bd87b306d88ec65cf86a96ddcad6d2bd2f26a2ec82cf8b0",
    "tight-x3-buffers1":
        "24f83577d993f50b1f0fb044c81cc05d6b41527e36b33ebd42e542f94901a956",
    "tight-x3-buffers2":
        "2156838167531c628e58e5f62cf3f5cf2db9fcff464cb1b61edcd940148d17af",
    "tight-x3-dead0":
        "01e972cc950c263edad9bc8ac285c6d05237b2b25a00033233e4da6d75a522ec",
}


def multi_digest(result) -> str:
    """SHA-256 over a multi-FPGA run's modeled outcome."""
    h = hashlib.sha256()
    h.update(repr((
        result.embeddings, result.total_seconds, result.makespan_seconds,
    )).encode())
    for device in result.devices:
        h.update(repr((
            device.index, device.part, device.num_csts, device.pcie_seconds,
        )).encode())
        if device.kernel is not None:
            h.update(report_items(device.kernel).encode())
    h.update(repr(result.metrics.health.to_dict()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(MULTI_CASES))
def test_multi_fpga_digest(case, graphs):
    runner_kwargs, ctx_kwargs = MULTI_CASES[case]
    fpga = FpgaConfig() if "fleet" in runner_kwargs else TIGHT
    ctx = RunContext(fpga=fpga, **ctx_kwargs)
    runner = MultiFpgaRunner(config=fpga, context=ctx, **runner_kwargs)
    result = runner.run(get_query("q1").graph, graphs["DG-MINI"])
    assert multi_digest(result) == MULTI_DIGESTS[case]


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
