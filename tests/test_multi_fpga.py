"""Tests for the multi-FPGA extension (Section VII-E)."""

from __future__ import annotations

import pytest

from repro.baselines.reference import count_reference_embeddings
from repro.common.errors import DeviceError
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.config import FpgaConfig
from repro.host.multi_fpga import MultiFpgaRunner
from repro.ldbc.queries import all_queries, get_query
from repro.runtime.faults import FaultPlan


@pytest.fixture()
def small_device():
    """A device small enough that micro CSTs split into many parts."""
    return FpgaConfig(bram_bytes=48 * 1024, batch_size=64, max_ports=16)


class TestMultiFpga:
    def test_counts_exact_any_device_count(self, micro_graph, small_device):
        q = get_query("q6")
        ref = count_reference_embeddings(q.graph, micro_graph)
        for devices in (1, 2, 4):
            runner = MultiFpgaRunner(num_devices=devices,
                                     config=small_device)
            result = runner.run(q.graph, micro_graph)
            assert result.embeddings == ref, devices

    def test_all_queries_exact_two_devices(self, micro_graph, small_device):
        runner = MultiFpgaRunner(num_devices=2, config=small_device)
        for q in all_queries():
            result = runner.run(q.graph, micro_graph)
            assert result.embeddings == count_reference_embeddings(
                q.graph, micro_graph
            ), q.name

    def test_single_device_matches_engine_path(self, micro_graph):
        q = get_query("q1")
        result = MultiFpgaRunner(num_devices=1).run(q.graph, micro_graph)
        assert result.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )
        assert len(result.devices) == 1

    def test_makespan_improves_with_devices(self, micro_graph, small_device):
        q = get_query("q8")  # enough partitions to distribute
        one = MultiFpgaRunner(num_devices=1, config=small_device).run(
            q.graph, micro_graph
        )
        four = MultiFpgaRunner(num_devices=4, config=small_device).run(
            q.graph, micro_graph
        )
        assert four.makespan_seconds < one.makespan_seconds
        assert four.speedup_over(one) > 1.0

    def test_speedup_bounded_by_device_count(self, micro_graph,
                                             small_device):
        q = get_query("q8")
        one = MultiFpgaRunner(num_devices=1, config=small_device).run(
            q.graph, micro_graph
        )
        four = MultiFpgaRunner(num_devices=4, config=small_device).run(
            q.graph, micro_graph
        )
        assert one.makespan_seconds / four.makespan_seconds <= 4.0 + 1e-9

    def test_min_load_balance(self, micro_graph, small_device):
        q = get_query("q6")
        result = MultiFpgaRunner(num_devices=3, config=small_device).run(
            q.graph, micro_graph
        )
        used = [d for d in result.devices if d.num_csts]
        assert len(used) == 3
        # Greedy min-load keeps estimated workloads within a factor of
        # each other when there are many partitions.
        loads = sorted(d.workload for d in used)
        assert loads[-1] <= 3 * max(loads[0], 1.0)

    def test_imbalance_metric(self, micro_graph, small_device):
        q = get_query("q2")
        result = MultiFpgaRunner(num_devices=2, config=small_device).run(
            q.graph, micro_graph
        )
        assert result.load_imbalance >= 1.0

    def test_one_live_device_forks_no_pool(self, micro_graph,
                                           small_device):
        """One device queue left to run is one task: it runs inline,
        and no pool workers are forked for it."""
        ctx = make_context(HarnessConfig(
            fpga=small_device, workers=4, pool="process",
        ))
        ctx.fault_plan = FaultPlan(rates={}, dead_devices={1})
        try:
            result = MultiFpgaRunner(num_devices=2, context=ctx).run(
                get_query("q6").graph, micro_graph
            )
            assert result.degraded
            assert ctx.worker_pool is None
            assert result.metrics.stages["execute"].extra["pool"] == (
                "inline"
            )
        finally:
            ctx.close()

    def test_invalid_device_count(self):
        with pytest.raises(DeviceError):
            MultiFpgaRunner(num_devices=0)

    def test_host_costs_independent_of_devices(self, micro_graph,
                                               small_device):
        q = get_query("q5")
        a = MultiFpgaRunner(num_devices=1, config=small_device).run(
            q.graph, micro_graph
        )
        b = MultiFpgaRunner(num_devices=4, config=small_device).run(
            q.graph, micro_graph
        )
        assert a.build_seconds == b.build_seconds
        assert a.partition_seconds == b.partition_seconds
        assert a.num_partitions == b.num_partitions
