"""Tests for heterogeneous fleets and the SLR-aware scheduler."""

from __future__ import annotations

import pytest

from repro.baselines.reference import count_reference_embeddings
from repro.cst.builder import build_cst
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.catalog import DeviceSpec, get_device
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import FastEngine, module_spans
from repro.host.multi_fpga import MultiFpgaRunner
from repro.ldbc.queries import get_query
from repro.runtime.context import RunContext
from repro.runtime.registry import REGISTRY
from repro.runtime.tracing import Tracer, trace_lanes


def tight_spec(part: str, cfg: FpgaConfig) -> DeviceSpec:
    """An in-memory catalog part around a hand-built config."""
    return DeviceSpec(
        part=part, display_name=part, family="test", memory="dram",
        pcie_gen=3, pcie_width=16, config=cfg, source="<test>",
    )


class TestSlrPenaltyModel:
    def _cst(self, micro_graph):
        q = get_query("q1")
        return q, build_cst(q.graph, micro_graph)

    def test_no_penalty_when_cst_fits_one_slr(self, micro_graph):
        q, cst = self._cst(micro_graph)
        size = cst.size_bytes()
        cfg = FpgaConfig(
            bram_bytes=4 * size,
            slr_count=2,
            slr_bram_bytes=(2 * size, 2 * size),
            slr_crossing_penalty_cycles=10.0,
        )
        rep = FastEngine(cfg).run(cst)
        assert rep.slr_crossing_cycles == 0.0

    def test_penalty_charged_when_cst_spans_slrs(self, micro_graph):
        q, cst = self._cst(micro_graph)
        size = cst.size_bytes()
        assert size > 64  # the split below needs room
        half = size // 2 + 32
        cfg = FpgaConfig(
            bram_bytes=2 * half,
            slr_count=2,
            slr_bram_bytes=(half, half),
            slr_crossing_penalty_cycles=10.0,
        )
        baseline = FastEngine(FpgaConfig()).run(cst)
        rep = FastEngine(cfg).run(cst)
        # Counts never depend on the SLR model; only modeled time does.
        assert rep.embeddings == baseline.embeddings
        assert rep.slr_crossing_cycles > 0.0
        expected = (
            10.0
            * cfg.slr_remote_fraction(size)
            * (rep.total_partials + rep.total_edge_tasks)
        )
        assert rep.slr_crossing_cycles == pytest.approx(expected)

    def test_penalty_is_part_of_total_cycles(self, micro_graph):
        q, cst = self._cst(micro_graph)
        size = cst.size_bytes()
        half = size // 2 + 32
        cfg = FpgaConfig(
            bram_bytes=2 * half,
            slr_count=2,
            slr_bram_bytes=(half, half),
            slr_crossing_penalty_cycles=10.0,
        )
        rep = FastEngine(cfg).run(cst)
        assert rep.total_cycles == pytest.approx(
            rep.compute_cycles + rep.load_cycles + rep.flush_cycles
            + rep.slr_crossing_cycles
        )

    def test_traced_crossing_span_ends_at_total(self, micro_graph):
        q, cst = self._cst(micro_graph)
        size = cst.size_bytes()
        half = size // 2 + 32
        cfg = FpgaConfig(
            bram_bytes=2 * half,
            slr_count=2,
            slr_bram_bytes=(half, half),
            slr_crossing_penalty_cycles=10.0,
        )
        rep = FastEngine(cfg, trace_modules=True).run(cst)
        (launch,) = rep.launch_rows
        assert launch.slr_crossing_cycles == rep.slr_crossing_cycles > 0.0
        spans = module_spans(cfg, rep.variant, rep.launch_rows)
        crossing = [s for s in spans if s[0] == "slr_crossing"]
        assert len(crossing) == 1
        _, start, end = crossing[0]
        assert end - start == pytest.approx(rep.slr_crossing_cycles)
        assert end == pytest.approx(rep.total_cycles)
        assert end == max(e for _, _, e in spans)

    def test_default_device_pays_nothing(self, micro_graph):
        q, cst = self._cst(micro_graph)
        cfg = FpgaConfig()
        rep = FastEngine(cfg, trace_modules=True).run(cst)
        assert rep.slr_crossing_cycles == 0.0
        (launch,) = rep.launch_rows
        assert launch.slr_crossing_cycles == 0.0
        spans = module_spans(cfg, rep.variant, rep.launch_rows)
        assert spans
        assert not any(s[0] == "slr_crossing" for s in spans)


class TestHeterogeneousFleet:
    def test_fleet_counts_match_reference(self, micro_graph):
        for name in ("q1", "q5", "q6"):
            q = get_query(name)
            ref = count_reference_embeddings(q.graph, micro_graph)
            runner = MultiFpgaRunner(fleet="u200,u280x2")
            result = runner.run(q.graph, micro_graph)
            assert result.embeddings == ref, name

    def test_fleet_string_sets_pool(self, micro_graph):
        runner = MultiFpgaRunner(fleet="u200,u280x2")
        assert runner.num_devices == 3
        q = get_query("q1")
        result = runner.run(q.graph, micro_graph)
        assert [d.part for d in result.devices] == ["u200", "u280", "u280"]

    def test_fleet_overrides_num_devices(self):
        runner = MultiFpgaRunner(num_devices=7, fleet="u50x2")
        assert runner.num_devices == 2

    def test_homogeneous_pool_has_no_part_labels(self, micro_graph):
        runner = MultiFpgaRunner(num_devices=2)
        result = runner.run(get_query("q1").graph, micro_graph)
        assert all(d.part is None for d in result.devices)

    def test_fleet_of_explicit_specs(self, micro_graph):
        fleet = (get_device("u200"), get_device("u50"))
        runner = MultiFpgaRunner(fleet=fleet)
        q = get_query("q2")
        result = runner.run(q.graph, micro_graph)
        assert result.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )
        assert [d.part for d in result.devices] == ["u200", "u50"]

    def test_bid_orders_single_slr_fit_first(self):
        runner = MultiFpgaRunner(fleet="u200,u280x2")
        whole = FpgaConfig()  # one SLR: everything fits
        sliced = FpgaConfig(
            slr_count=32, slr_crossing_penalty_cycles=20.0
        )  # 8 KiB regions: a 12 KiB partition spans
        workload, spanning_bytes, small_bytes = 1000.0, 12 * 1024, 4096
        assert runner._bid_cost(
            sliced, workload, spanning_bytes
        ) > runner._bid_cost(whole, workload, spanning_bytes)
        # A partition that fits one region bids identically.
        assert runner._bid_cost(
            sliced, workload, small_bytes
        ) == pytest.approx(runner._bid_cost(whole, workload, small_bytes))

    def test_placement_prefers_single_slr_fit(self, micro_graph):
        # Two equal cards except for SLR geometry: "whole" holds its
        # BRAM in one region, "sliced" spreads it over 32 regions each
        # smaller than the micro CSTs and charges a high crossing
        # penalty. Capacity-aware placement must route the partitions
        # to the card where they fit one SLR.
        whole = tight_spec("whole", FpgaConfig())
        sliced = tight_spec("sliced", FpgaConfig(
            slr_count=32, slr_crossing_penalty_cycles=200.0,
        ))
        q = get_query("q6")  # 10.5 KiB CST > the 8 KiB sliced regions
        runner = MultiFpgaRunner(fleet=(whole, sliced))
        result = runner.run(q.graph, micro_graph)
        by_part = {d.part: d.num_csts for d in result.devices}
        assert sum(by_part.values()) == result.num_partitions
        assert by_part["whole"] > by_part["sliced"]
        assert result.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )

    def test_partitions_fit_tightest_fleet_member(self, micro_graph):
        # Algorithm 2 must run against the smallest delta_S across the
        # fleet, so every partition can run (and fail over) anywhere.
        big = tight_spec("big", FpgaConfig(
            bram_bytes=256 * 1024, batch_size=64, max_ports=16
        ))
        small_cfg = FpgaConfig(
            bram_bytes=48 * 1024, batch_size=64, max_ports=16
        )
        small = tight_spec("small", small_cfg)
        q = get_query("q6")
        runner = MultiFpgaRunner(fleet=(big, small))
        result = runner.run(q.graph, micro_graph)
        # The partition count must match what the *small* card alone
        # would produce, not the big card's single partition.
        small_only = MultiFpgaRunner(num_devices=1, config=small_cfg)
        alone = small_only.run(q.graph, micro_graph)
        assert result.num_partitions == alone.num_partitions

    def test_fleet_trace_lanes_carry_part_names(self, micro_graph):
        base = dict(bram_bytes=48 * 1024, batch_size=64, max_ports=16)
        fleet = (
            tight_spec("tight-a", FpgaConfig(**base)),
            tight_spec("tight-b", FpgaConfig(**base)),
        )
        ctx = RunContext(tracer=Tracer(enabled=True))
        runner = MultiFpgaRunner(fleet=fleet, context=ctx)
        runner.run(get_query("q6").graph, micro_graph)
        lanes = {
            lane for _, lane in trace_lanes(ctx.tracer.to_chrome_trace())
        }
        assert any(lane.startswith("device0:tight-a/") for lane in lanes)
        assert any(lane.startswith("device1:tight-b/") for lane in lanes)
        # No unlabeled device lanes leak from fleet runs.
        assert not any(lane.startswith("device0/") for lane in lanes)

    def test_homogeneous_trace_lanes_unchanged(self, micro_graph):
        cfg = FpgaConfig(bram_bytes=48 * 1024, batch_size=64, max_ports=16)
        ctx = RunContext(fpga=cfg, tracer=Tracer(enabled=True))
        runner = MultiFpgaRunner(num_devices=2, config=cfg, context=ctx)
        runner.run(get_query("q6").graph, micro_graph)
        lanes = {
            lane for _, lane in trace_lanes(ctx.tracer.to_chrome_trace())
        }
        assert any(lane.startswith("device0/") for lane in lanes)
        assert not any(":" in lane for lane in lanes if "device" in lane)


class TestDeviceThroughHarness:
    def test_context_carries_device(self):
        ctx = make_context(HarnessConfig(device="u250", use_cache=False))
        assert ctx.device is not None
        assert ctx.device.part == "u250"
        assert ctx.device_part == "u250"
        assert ctx.fpga == get_device("u250").config

    def test_default_context_has_no_device(self):
        ctx = make_context(HarnessConfig(use_cache=False))
        assert ctx.device is None
        assert ctx.device_part is None
        assert ctx.fleet is None

    def test_counts_device_independent(self, micro_graph):
        q = get_query("q1")
        ref = count_reference_embeddings(q.graph, micro_graph)
        for part in (None, "u250", "u50"):
            ctx = make_context(
                HarnessConfig(device=part, use_cache=False)
            )
            out = REGISTRY.get("fast-sep").run(ctx, q.graph, micro_graph)
            assert out.embeddings == ref, part

    def test_fleet_through_registry(self, micro_graph):
        q = get_query("q2")
        ctx = make_context(
            HarnessConfig(fleet="u200,u280x2", use_cache=False)
        )
        out = REGISTRY.get("multi-fpga").run(ctx, q.graph, micro_graph)
        assert out.ok
        assert out.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )
