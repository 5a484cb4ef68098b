"""Tests for the staged pipeline, the run context, and the registry."""

from __future__ import annotations

import pytest

from repro.baselines.reference import count_reference_embeddings
from repro.common.errors import BackendError
from repro.experiments.harness import HarnessConfig, make_context
from repro.ldbc.queries import get_query
from repro.runtime.context import STAGES, RunContext, StageCache
from repro.runtime.registry import (
    REGISTRY,
    BackendRegistry,
    BackendSpec,
    RunOutcome,
)

FAST_BACKENDS = (
    "fast-dram", "fast-basic", "fast-task", "fast-sep", "fast-share",
)

EXPECTED_NAMES = FAST_BACKENDS + (
    "multi-fpga", "cfl", "daf", "daf-8", "ceci", "ceci-8",
    "gpsm", "gsi", "reference",
)


@pytest.fixture(scope="module")
def q0():
    return get_query("q0").graph


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(REGISTRY.names()) == set(EXPECTED_NAMES)

    def test_alias_resolution(self):
        assert REGISTRY.get("FAST").name == "fast-share"
        assert REGISTRY.get("fast").name == "fast-share"
        assert REGISTRY.get("FAST-SEP").name == "fast-sep"
        assert REGISTRY.get("sep").name == "fast-sep"
        assert REGISTRY.get("CECI-8").name == "ceci-8"
        assert REGISTRY.get("Fast-Dram").name == "fast-dram"
        assert REGISTRY.get("brute-force").name == "reference"
        assert "GpSM" in REGISTRY
        assert "nope" not in REGISTRY

    def test_unknown_name_enumerates_valid_names(self):
        with pytest.raises(BackendError) as exc:
            REGISTRY.get("quantum")
        message = str(exc.value)
        for name in REGISTRY.names():
            assert name in message

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        spec = BackendSpec(
            name="toy", summary="", family="cpu", cost_domain="cpu-ops",
            needs_cst=False, verdicts=(), aliases=("TOY",),
            run=lambda ctx, q, d, **kw: RunOutcome(
                backend="toy", verdict="OK", seconds=0.0, embeddings=0
            ),
        )
        registry.register(spec)
        with pytest.raises(BackendError):
            registry.register(spec)

    def test_capabilities_shape(self):
        caps = REGISTRY.get("cfl").capabilities()
        assert caps["family"] == "cpu"
        assert caps["cost_domain"] == "cpu-ops"
        assert caps["verdicts"][0] == "OK"
        assert "OOM" in caps["verdicts"]


class TestRegistryRoundTrip:
    def test_every_backend_runs_and_agrees(self, micro_graph, q0):
        """Round-trip: each registered name resolves, runs, and every
        OK verdict agrees with the brute-force reference count."""
        truth = count_reference_embeddings(q0, micro_graph)
        ctx = RunContext()
        for name in REGISTRY.names():
            out = REGISTRY.run(name, q0, micro_graph, ctx=ctx)
            assert isinstance(out, RunOutcome), name
            assert out.backend == name
            if out.ok:
                assert out.embeddings == truth, name
                assert out.seconds >= 0.0, name
            else:
                assert out.verdict in REGISTRY.get(name).verdicts, name

    def test_outcome_carries_metrics_payload(self, micro_graph, q0):
        out = REGISTRY.run("fast-sep", q0, micro_graph)
        assert out.metrics["backend"] == "fast-sep"
        assert set(out.metrics["stages"]) == set(STAGES)
        assert "cache" in out.metrics
        assert out.metrics["totals"]["modeled_seconds"] == pytest.approx(
            out.seconds
        )


class TestStageMetrics:
    @pytest.mark.parametrize("name", FAST_BACKENDS)
    def test_fast_backends_report_all_stages(self, name, micro_graph, q0):
        out = REGISTRY.run(name, q0, micro_graph)
        stages = out.metrics["stages"]
        assert tuple(stages) == STAGES
        for stage_name, stage in stages.items():
            assert stage["wall_seconds"] > 0.0, (name, stage_name)
            assert stage["modeled_seconds"] >= 0.0, (name, stage_name)

    def test_execute_stage_facts(self, micro_graph, q0):
        out = REGISTRY.run("fast-sep", q0, micro_graph)
        execute = out.metrics["stages"]["execute"]
        assert execute["cycles"] > 0
        assert execute["rounds"] > 0
        assert execute["N"] > 0
        assert execute["M"] > 0
        assert "buffer_peak" in execute

    def test_schedule_stage_reports_split(self, micro_graph, q0):
        out = REGISTRY.run("fast-share", q0, micro_graph)
        schedule = out.metrics["stages"]["schedule"]
        assert schedule["cpu_csts"] + schedule["fpga_csts"] >= 1
        assert 0.0 <= schedule["cpu_workload_fraction"] <= 1.0

    def test_history_accumulates(self, micro_graph, q0):
        ctx = RunContext()
        REGISTRY.run("fast-basic", q0, micro_graph, ctx=ctx)
        REGISTRY.run("cfl", q0, micro_graph, ctx=ctx)
        assert [m.backend for m in ctx.history] == ["fast-basic", "cfl"]


class TestStageCache:
    def test_get_or_build_hit_miss(self):
        cache = StageCache()
        value, cached = cache.get_or_build("cst", ("k",), lambda: 41)
        assert (value, cached) == (41, False)
        value, cached = cache.get_or_build("cst", ("k",), lambda: 42)
        assert (value, cached) == (41, True)
        stats = cache.stats()["cst"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_disabled_cache_never_hits(self):
        cache = StageCache(enabled=False)
        cache.get_or_build("cst", ("k",), lambda: 1)
        _, cached = cache.get_or_build("cst", ("k",), lambda: 2)
        assert not cached
        assert len(cache) == 0

    def test_eviction_bounds_size(self):
        cache = StageCache(max_entries=4)
        for i in range(10):
            cache.get_or_build("cst", (i,), lambda: i)
        assert len(cache) <= 4

    @pytest.mark.parametrize(
        "backend, deltas",
        [
            ("fast-sep", (0.1,)),
            ("fast-share", (0.1,)),
            ("multi-fpga", (0.1,)),
            # Two contexts at different deltas share one stage cache,
            # as the Fig. 13 sweep does: each must still equal its own
            # uncached run, so delta must be part of the partition key.
            ("fast-share", (0.05, 0.2)),
        ],
        ids=["fast-sep", "fast-share", "multi-fpga", "fast-share-two-deltas"],
    )
    def test_cache_correctness_on_vs_off(
        self, micro_graph, q0, tight_fpga_config, backend, deltas
    ):
        """Identical counts and modeled times with the cache on or off;
        the second run on a context hits both the CST and the partition
        cache, and the payload reports the hit rates. The tight device
        makes Algorithm 2 split (and, on fast-share, the CPU absorb
        oversized CSTs)."""
        shared = StageCache()

        def config(delta: float, stage_cache: bool) -> HarnessConfig:
            return HarnessConfig(
                fpga=tight_fpga_config, delta=delta, stage_cache=stage_cache,
            )

        warm = [make_context(config(d, True), cache=shared) for d in deltas]
        first = [REGISTRY.run(backend, q0, micro_graph, ctx=c) for c in warm]
        second = [REGISTRY.run(backend, q0, micro_graph, ctx=c) for c in warm]
        cold = [
            REGISTRY.run(
                backend, q0, micro_graph, ctx=make_context(config(d, False))
            )
            for d in deltas
        ]

        assert first[0].metrics["stages"]["build_cst"]["cached"] is False
        for f, s, c in zip(first, second, cold, strict=True):
            assert f.metrics["stages"]["partition"]["cached"] is False
            assert f.metrics["stages"]["partition"]["num_partitions"] > 1
            assert s.metrics["stages"]["build_cst"]["cached"] is True
            assert s.metrics["stages"]["partition"]["cached"] is True
            # The cache saves wall time only - every modeled number and
            # every count is independent of cache state, to the bit.
            assert f.embeddings == s.embeddings == c.embeddings
            assert f.seconds == s.seconds == c.seconds
            assert c.metrics["cache"]["cst"]["hit_rate"] == 0.0
        # Distinct deltas route differently on this device, so a key
        # without delta would hand one context the other's routing.
        assert len({c.seconds for c in cold}) == len(deltas)

        cache = second[-1].metrics["cache"]
        assert cache["cst"]["hit_rate"] == 1 - 1 / (2 * len(deltas))
        assert cache["partition"]["hit_rate"] == 0.5


class TestContext:
    def test_stage_timer_accumulates(self):
        ctx = RunContext()
        ctx.begin_run("toy")
        with ctx.stage("plan") as st:
            st.note(order=(0, 1))
        with ctx.stage("plan"):
            pass
        metrics = ctx.finish_run()
        assert metrics.stages["plan"].wall_seconds > 0.0
        assert metrics.stages["plan"].extra["order"] == (0, 1)

    def test_history_is_bounded(self):
        ctx = RunContext(max_history=3)
        for i in range(5):
            ctx.begin_run(f"run-{i}")
        assert len(ctx.history) == 3
        assert ctx.history[-1].backend == "run-4"
