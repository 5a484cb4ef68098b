"""Fault injection, retry/backoff, and degradation ladder tests.

The central property (ISSUE 2 / docs/robustness.md): because every CST
partition is a complete, independently matchable search space, any
recoverable fault schedule leaves embedding counts bit-identical to
the fault-free run — for every FAST variant and the multi-FPGA
runner. The CI ``faults`` job re-runs this file across a seed matrix
via ``REPRO_FAULT_SEED``.
"""

from __future__ import annotations

import os

import pytest

from repro.common.errors import FatalDeviceError
from repro.fpga.config import FpgaConfig
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.context import RunContext
from repro.runtime.faults import (
    DEFAULT_RATES,
    FAULT_KINDS,
    FaultPlan,
    HealthReport,
    RetryPolicy,
)
from repro.runtime.journal import DeviceHealthLedger
from repro.runtime.registry import REGISTRY

FAST_VARIANTS = (
    "fast-dram", "fast-basic", "fast-task", "fast-sep", "fast-share",
)

#: Seed matrix; CI appends one more via REPRO_FAULT_SEED.
SEEDS = [3, 5, 11]
_env_seed = os.environ.get("REPRO_FAULT_SEED")
if _env_seed is not None and int(_env_seed) not in SEEDS:
    SEEDS.append(int(_env_seed))

#: A device small enough that re-partitioning under tightened delta_S
#: actually has room to split (DG-MICRO CSTs are ~6-8 KB).
STRESS_FPGA = FpgaConfig(bram_bytes=8 * 1024, batch_size=128,
                         max_ports=32)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("DG-MICRO")


def run_backend(name, dataset, query="q0", *, fpga=None,
                fault_plan=None, retry_policy=None, **kwargs):
    ctx = RunContext(
        fpga=fpga or FpgaConfig(),
        fault_plan=fault_plan,
        retry_policy=retry_policy or RetryPolicy(),
    )
    q = get_query(query)
    out = REGISTRY.get(name).run(ctx, q.graph, dataset.graph, **kwargs)
    return out


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan(seed=1, rates={"meteor_strike": 0.5})

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError, match="max_consecutive"):
            FaultPlan(seed=1, max_consecutive=0)

    def test_fires_is_pure(self):
        plan = FaultPlan(seed=9)
        for kind in FAULT_KINDS:
            a = plan.fires(kind, "partition", 4)
            b = plan.fires(kind, "partition", 4)
            assert a == b

    def test_fires_bounded_by_max_consecutive(self):
        plan = FaultPlan(seed=2, rates={"kernel_timeout": 1.0},
                         max_consecutive=3)
        for i in range(50):
            burst = plan.fires("kernel_timeout", "partition", i)
            assert 1 <= burst <= 3

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=5, rates={k: 0.0 for k in FAULT_KINDS})
        assert not plan.enabled
        for i in range(50):
            assert plan.fires("kernel_timeout", "partition", i) == 0

    def test_different_seeds_differ(self):
        hot = FaultPlan(seed=1, rates={"pcie_error": 0.5})
        schedules = {
            tuple(FaultPlan(seed=s, rates=hot.rates).fires(
                "pcie_error", "partition", i) for i in range(64))
            for s in range(8)
        }
        assert len(schedules) > 1

    def test_recoverable_under(self):
        assert FaultPlan(seed=1, max_consecutive=2).recoverable_under(
            RetryPolicy(max_retries=3))
        assert not FaultPlan(seed=1, max_consecutive=6).recoverable_under(
            RetryPolicy(max_retries=2))

    def test_dead_devices_explicit(self):
        plan = FaultPlan(seed=1, dead_devices={1})
        assert plan.device_dead(1)
        assert not plan.device_dead(0)
        assert plan.enabled


class TestRetryPolicy:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_backoff_grows_and_caps(self):
        pol = RetryPolicy(jitter=0.0)
        delays = [pol.backoff_seconds(7, a, "p", 0) for a in range(12)]
        assert delays == sorted(delays)
        assert delays[-1] == pol.backoff_max_s

    def test_backoff_jitter_bounded_and_deterministic(self):
        pol = RetryPolicy()
        for attempt in range(4):
            d1 = pol.backoff_seconds(3, attempt, "p", 1)
            d2 = pol.backoff_seconds(3, attempt, "p", 1)
            assert d1 == d2
            base = min(
                pol.backoff_base_s * pol.backoff_multiplier ** attempt,
                pol.backoff_max_s,
            )
            assert base * (1 - pol.jitter) <= d1 <= base * (1 + pol.jitter)


class TestHealthReport:
    def test_retries_alone_do_not_degrade(self):
        from repro.runtime.faults import FaultEvent

        h = HealthReport()
        h.record(FaultEvent("pcie_error", ("partition", 0), 0, "retry",
                            backoff_seconds=1e-4))
        assert h.retries == 1
        assert not h.degraded
        assert h.to_dict()["backoff_seconds"] == pytest.approx(1e-4)

    def test_ladder_actions_degrade(self):
        from repro.runtime.faults import FaultEvent

        for action in ("repartition", "cpu_fallback", "failover"):
            h = HealthReport()
            h.record(FaultEvent("kernel_timeout", (), 0, action))
            assert h.degraded, action


class TestCountsInvariant:
    """Embedding counts are exact under any recoverable fault plan."""

    @pytest.mark.parametrize("backend", FAST_VARIANTS + ("multi-fpga",))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_match_fault_free(self, dataset, backend, seed):
        baseline = run_backend(backend, dataset)
        plan = FaultPlan(seed=seed)  # default noisy-but-recoverable
        faulty = run_backend(backend, dataset, fault_plan=plan)
        assert faulty.embeddings == baseline.embeddings
        assert faulty.verdict == "OK"

    @pytest.mark.parametrize("query", ["q0", "q2"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_exact_through_full_ladder(self, dataset, query,
                                              seed):
        """Even an *unrecoverable* plan stays exact: exhausted
        partitions re-partition under tightened delta_S and finally
        fall back to the CPU matcher."""
        baseline = run_backend("fast-sep", dataset, query,
                               fpga=STRESS_FPGA)
        plan = FaultPlan(seed=seed, rates={"kernel_timeout": 0.5},
                         max_consecutive=6)
        out = run_backend("fast-sep", dataset, query, fpga=STRESS_FPGA,
                          fault_plan=plan,
                          retry_policy=RetryPolicy(max_retries=2))
        assert out.embeddings == baseline.embeddings
        health = out.health
        assert health["degraded"]
        assert health["repartitions"] + health["fallbacks"] > 0

    def test_happy_path_identical_to_zero_rate_plan(self, dataset):
        off = run_backend("fast-share", dataset)
        zero = run_backend(
            "fast-share", dataset,
            fault_plan=FaultPlan(
                seed=3, rates={k: 0.0 for k in FAULT_KINDS}),
        )
        assert zero.embeddings == off.embeddings
        assert zero.seconds == off.seconds  # byte-identical model time
        assert zero.health["retries"] == 0
        assert not zero.health["fault_events"]


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["fast-sep", "fast-share"])
    def test_same_seed_same_event_log(self, dataset, backend):
        plan = FaultPlan(seed=13)
        a = run_backend(backend, dataset, fault_plan=plan)
        b = run_backend(backend, dataset, fault_plan=plan)
        assert a.health == b.health
        assert a.health["fault_events"] == b.health["fault_events"]
        assert a.seconds == b.seconds

    def test_different_seed_different_log(self, dataset):
        logs = set()
        for seed in range(6):
            plan = FaultPlan(seed=seed, rates={"pcie_error": 0.6})
            out = run_backend("fast-sep", dataset, "q2",
                              fpga=STRESS_FPGA, fault_plan=plan)
            logs.add(str(out.health["fault_events"]))
        assert len(logs) > 1

    def test_retries_accounted(self, dataset):
        for backend, rates in (
            ("fast-sep", {"pcie_error": 0.6}),
            # Every launch of a two-device pool times out once or
            # twice: each device's queue runs the ladder, and the ledger
            # books every fault on the device that ran the partition.
            ("multi-fpga", {"kernel_timeout": 1.0}),
        ):
            baseline = run_backend(backend, dataset, "q2",
                                   fpga=STRESS_FPGA)
            plan = FaultPlan(seed=3, rates=rates)
            out = run_backend(backend, dataset, "q2", fpga=STRESS_FPGA,
                              fault_plan=plan)
            assert out.embeddings == baseline.embeddings, backend
            health = out.health
            retry_events = [e for e in health["fault_events"]
                            if e["action"] == "retry"]
            assert health["retries"] == len(retry_events) > 0, backend
            assert health["backoff_seconds"] == pytest.approx(
                sum(e["backoff_seconds"] for e in health["fault_events"])
            )
            ledger = DeviceHealthLedger()
            ledger.record_metrics(out.raw.metrics)
            faults = {
                index: sum(stats.faults.values())
                for index, stats in ledger.devices.items()
            }
            assert sum(faults.values()) == len(health["fault_events"])
            launched = {i for i, s in ledger.devices.items() if s.launches}
            assert {i for i, n in faults.items() if n} == launched, backend


class TestMultiFpgaFailover:
    def test_dead_device_redistributes(self, dataset):
        baseline = run_backend("multi-fpga", dataset, "q2",
                               fpga=STRESS_FPGA, num_devices=3)
        plan = FaultPlan(seed=1, rates={k: 0.0 for k in FAULT_KINDS},
                         dead_devices={0})
        out = run_backend("multi-fpga", dataset, "q2",
                          fpga=STRESS_FPGA, fault_plan=plan,
                          num_devices=3)
        assert out.embeddings == baseline.embeddings
        health = out.health
        assert health["degraded"]
        assert health["failovers"] > 0
        assert health["device_status"]["0"] == "dead"
        assert health["device_status"]["1"] == "ok"

    def test_all_devices_dead_is_fatal(self, dataset):
        plan = FaultPlan(seed=1, dead_devices={0, 1})
        with pytest.raises(FatalDeviceError, match="no survivor"):
            run_backend("multi-fpga", dataset, fault_plan=plan,
                        num_devices=2)


class TestHarnessIntegration:
    def test_harness_config_builds_plan(self):
        from repro.experiments.harness import HarnessConfig, make_context

        ctx = make_context(HarnessConfig(
            fault_seed=11,
            fault_rates=(("kernel_timeout", 0.3),),
            max_retries=5,
        ))
        assert ctx.fault_plan is not None
        assert ctx.fault_plan.seed == 11
        assert ctx.fault_plan.rates == {"kernel_timeout": 0.3}
        assert ctx.retry_policy.max_retries == 5

    def test_harness_default_is_fault_free(self):
        from repro.experiments.harness import HarnessConfig, make_context

        assert make_context(HarnessConfig()).fault_plan is None

    def test_default_rates_cover_all_kinds(self):
        assert set(FAULT_KINDS) <= set(DEFAULT_RATES)
