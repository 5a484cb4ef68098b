"""Run-journal, health-ledger, and resume-path tests.

The durability contract (ISSUE 4 / docs/robustness.md): a run journal
records every completed partition with a durable append, and a resumed
run replays journaled work bit-identically — same embedding counts,
same modeled seconds, same health report — while executing only the
remainder. The subprocess SIGKILL variants live in
``test_kill_resume.py``; this file covers the in-process semantics,
serialization round-trips, the device-health ledger's scheduling
policy, and the bounded stage cache.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    DeadlineExceededError,
    JournalError,
    JournalMismatchError,
)
from repro.common.io import atomic_write_json, read_jsonl
from repro.fpga.config import FpgaConfig
from repro.fpga.report import KernelReport
from repro.host.cpu_matcher import CpuMatchCounters
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.context import CancellationToken, RunContext, StageCache
from repro.runtime.executor import ExecutorConfig, PartitionOutcome
from repro.runtime.faults import FaultEvent, FaultPlan, HealthReport
from repro.runtime.journal import (
    DeviceHealth,
    DeviceHealthLedger,
    RunJournal,
    counters_from_dict,
    counters_to_dict,
    event_from_dict,
    outcome_from_record,
    outcome_to_record,
    report_from_dict,
    report_to_dict,
)
from repro.runtime.registry import REGISTRY

#: A device small enough that DG-MICRO runs produce several partitions.
STRESS_FPGA = FpgaConfig(bram_bytes=8 * 1024, batch_size=128,
                         max_ports=32)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("DG-MICRO")


def run_backend(name, dataset, query="q0", **ctx_kwargs):
    ctx = RunContext(**ctx_kwargs)
    out = REGISTRY.get(name).run(
        ctx, get_query(query).graph, dataset.graph
    )
    return out, ctx


def truncate_journal(path, keep_records):
    """Keep the header plus the first ``keep_records`` records."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + keep_records]))


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
counts = st.integers(min_value=0, max_value=10**9)

reports = st.builds(
    KernelReport,
    variant=st.sampled_from(["basic", "task", "sep", "dram"]),
    clock_mhz=st.sampled_from([150.0, 300.0]),
    compute_cycles=finite,
    load_cycles=finite,
    flush_cycles=finite,
    rounds=counts,
    total_partials=counts,
    total_edge_tasks=counts,
    total_pops=counts,
    embeddings=st.integers(min_value=0, max_value=10**6),
    num_csts=st.integers(min_value=0, max_value=100),
    buffer_peaks=st.dictionaries(
        st.integers(min_value=0, max_value=8), counts, max_size=4
    ),
    results=st.one_of(
        st.none(),
        st.lists(
            st.tuples(counts, counts, counts), max_size=5
        ),
    ),
)

events = st.builds(
    FaultEvent,
    kind=st.sampled_from([
        "pcie_error", "kernel_timeout", "device_unavailable",
        "bram_soft_error",
    ]),
    scope=st.tuples(st.just("partition"), st.integers(0, 50)),
    attempt=st.integers(0, 5),
    action=st.sampled_from(["retry", "repartition", "cpu_fallback"]),
    backoff_seconds=finite,
    device=st.one_of(st.none(), st.integers(0, 3)),
)

counters_st = st.builds(
    CpuMatchCounters,
    recursive_calls=counts,
    extensions_generated=counts,
    edge_checks=counts,
    embeddings=counts,
)

outcomes = st.builds(
    PartitionOutcome,
    reports=st.lists(reports, max_size=3),
    segments=st.lists(st.tuples(finite, finite), max_size=4),
    pcie_seconds=finite,
    overhead_seconds=finite,
    host_overhead_seconds=finite,
    backoff_wall_seconds=finite,
    events=st.lists(events, max_size=3),
    fallbacks=st.lists(
        st.tuples(
            st.lists(st.tuples(counts, counts), max_size=3),
            counters_st,
        ),
        max_size=2,
    ),
)


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(report=reports)
    def test_kernel_report(self, report):
        assert report_from_dict(report_to_dict(report)) == report

    @settings(max_examples=50, deadline=None)
    @given(event=events)
    def test_fault_event(self, event):
        assert event_from_dict(event.to_dict()) == event

    @settings(max_examples=50, deadline=None)
    @given(c=counters_st)
    def test_counters(self, c):
        assert counters_from_dict(counters_to_dict(c)) == c

    @settings(max_examples=50, deadline=None)
    @given(outcome=outcomes, index=st.integers(0, 100))
    def test_outcome_through_json(self, outcome, index):
        # Through an actual JSON encode/decode, as the journal does —
        # floats must round-trip exactly (repr shortest round-trip).
        record = json.loads(json.dumps(
            outcome_to_record(index, outcome, keep_results=True)
        ))
        assert record["index"] == index
        back = outcome_from_record(record)
        assert back == outcome


# ----------------------------------------------------------------------
# Journal file semantics
# ----------------------------------------------------------------------


class TestRunJournal:
    def test_fresh_write_then_resume_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.ensure_header("f" * 64, backend="fast-sep")
        journal.append({"type": "cpu", "index": 0, "embeddings": 3,
                        "counters": counters_to_dict(CpuMatchCounters()),
                        "results": None})
        journal.close()

        resumed = RunJournal(path, resume=True)
        assert resumed.fingerprint == "f" * 64
        assert set(resumed.cpu_records()) == {0}
        resumed.ensure_header("f" * 64)
        resumed.append({"type": "cpu", "index": 1, "embeddings": 0,
                        "counters": counters_to_dict(CpuMatchCounters()),
                        "results": None})
        resumed.close()
        assert len(read_jsonl(path)) == 3  # header + 2 records

    def test_resume_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            RunJournal(tmp_path / "absent.jsonl", resume=True)

    def test_resume_without_header_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "cpu", "index": 0}\n')
        with pytest.raises(JournalError, match="no header"):
            RunJournal(path, resume=True)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"type": "header", "version": 99, '
                        '"fingerprint": "x"}\n')
        with pytest.raises(JournalError, match="version"):
            RunJournal(path, resume=True)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.ensure_header("a" * 64)
        journal.close()
        resumed = RunJournal(path, resume=True)
        with pytest.raises(JournalMismatchError, match="refusing"):
            resumed.ensure_header("b" * 64)
        assert JournalMismatchError.verdict == "RESUME-MISMATCH"

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        journal = RunJournal(path)
        journal.ensure_header("c" * 64)
        journal.append({"type": "cpu", "index": 0, "embeddings": 1,
                        "counters": counters_to_dict(CpuMatchCounters()),
                        "results": None})
        journal.close()
        # Simulate a crash mid-append: a torn, unterminated record.
        with open(path, "a") as handle:
            handle.write('{"type": "cpu", "index": 1, "emb')

        resumed = RunJournal(path, resume=True)
        assert set(resumed.cpu_records()) == {0}
        resumed.ensure_header("c" * 64)
        resumed.append({"type": "cpu", "index": 1, "embeddings": 2,
                        "counters": counters_to_dict(CpuMatchCounters()),
                        "results": None})
        resumed.close()
        # The torn tail was truncated away, not spliced into the append.
        records = read_jsonl(path)
        assert [r["index"] for r in records if r["type"] == "cpu"] == [0, 1]

    def test_append_before_header_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "x.jsonl")
        with pytest.raises(JournalError, match="header"):
            journal.append({"type": "cpu"})


# ----------------------------------------------------------------------
# In-process resume equivalence
# ----------------------------------------------------------------------


def strip_wall(metrics_dict):
    """Metrics payload minus wall-clock times (machine-dependent) and
    journal bookkeeping (differs between fresh and resumed by design,
    as does the pool's chunk count: a resume dispatches fewer tasks)."""

    def clean(obj):
        if isinstance(obj, dict):
            return {
                k: clean(v) for k, v in obj.items()
                if k not in ("wall_seconds", "journaled", "journal_path",
                             "resumed_partitions", "pool_chunks")
            }
        return obj

    return clean(metrics_dict)


class TestResumeEquivalence:
    @pytest.mark.parametrize("workers,buffers", [(1, 1), (3, 2)])
    def test_partial_resume_bit_identical(self, dataset, tmp_path,
                                          workers, buffers):
        def ctx_kwargs(journal):
            return dict(
                fpga=STRESS_FPGA,
                executor=ExecutorConfig(workers=workers, buffers=buffers),
                journal=journal,
            )

        path = tmp_path / "run.jsonl"
        baseline, _ = run_backend("fast-sep", dataset,
                                  fpga=STRESS_FPGA,
                                  executor=ExecutorConfig(
                                      workers=workers, buffers=buffers))
        full, ctx = run_backend("fast-sep", dataset,
                                **ctx_kwargs(RunJournal(path)))
        ctx.journal.close()
        assert full.embeddings == baseline.embeddings
        assert full.seconds == baseline.seconds

        # Crash after 2 completed partitions, then resume.
        truncate_journal(path, 2)
        resumed, rctx = run_backend(
            "fast-sep", dataset,
            **ctx_kwargs(RunJournal(path, resume=True)),
        )
        rctx.journal.close()
        assert resumed.embeddings == baseline.embeddings
        assert resumed.seconds == baseline.seconds
        assert strip_wall(resumed.metrics) == strip_wall(baseline.metrics)
        execute = resumed.metrics["stages"]["execute"]
        assert execute["resumed_partitions"] == 2

    def test_faulted_resume_continues_ladder(self, dataset, tmp_path):
        plan = FaultPlan(seed=11, rates={"kernel_timeout": 0.5,
                                         "pcie_error": 0.3})
        baseline, _ = run_backend("fast-sep", dataset,
                                  fpga=STRESS_FPGA, fault_plan=plan)
        assert baseline.health["fault_events"]  # the schedule fired

        path = tmp_path / "faulted.jsonl"
        full, ctx = run_backend("fast-sep", dataset, fpga=STRESS_FPGA,
                                fault_plan=plan,
                                journal=RunJournal(path))
        ctx.journal.close()
        truncate_journal(path, 3)
        resumed, rctx = run_backend(
            "fast-sep", dataset, fpga=STRESS_FPGA, fault_plan=plan,
            journal=RunJournal(path, resume=True),
        )
        rctx.journal.close()
        assert resumed.embeddings == baseline.embeddings
        assert resumed.seconds == baseline.seconds
        # The health report — including ladder events replayed from the
        # journal — must be bit-identical to the uninterrupted run.
        assert resumed.health == baseline.health

    def test_resume_rejects_different_run(self, dataset, tmp_path):
        path = tmp_path / "q0.jsonl"
        _, ctx = run_backend("fast-sep", dataset, query="q0",
                             fpga=STRESS_FPGA, journal=RunJournal(path))
        ctx.journal.close()
        with pytest.raises(JournalMismatchError):
            run_backend("fast-sep", dataset, query="q1",
                        fpga=STRESS_FPGA,
                        journal=RunJournal(path, resume=True))

    def test_multi_fpga_device_resume(self, dataset, tmp_path):
        baseline, _ = run_backend("multi-fpga", dataset,
                                  fpga=STRESS_FPGA)
        path = tmp_path / "multi.jsonl"
        _, ctx = run_backend("multi-fpga", dataset, fpga=STRESS_FPGA,
                             journal=RunJournal(path))
        ctx.journal.close()
        truncate_journal(path, 2)  # two partitions survived the crash
        resumed, rctx = run_backend(
            "multi-fpga", dataset, fpga=STRESS_FPGA,
            journal=RunJournal(path, resume=True),
        )
        rctx.journal.close()
        assert resumed.embeddings == baseline.embeddings
        assert resumed.seconds == baseline.seconds
        assert strip_wall(resumed.metrics) == strip_wall(baseline.metrics)
        execute = resumed.metrics["stages"]["execute"]
        assert execute["resumed_partitions"] == 2

        # The slowest device's prefix is what a deadline is checked
        # against, not the sum over devices: a budget just above the
        # modeled total lets the run finish.
        done, _ = run_backend(
            "multi-fpga", dataset, fpga=STRESS_FPGA,
            cancellation=CancellationToken(baseline.seconds * 1.001),
        )
        assert done.seconds == baseline.seconds

        # A deadline halfway through the slowest device's queue cancels
        # mid-execute with the completed partitions journaled; resuming
        # without it finishes the run bit-identically.
        budget = (baseline.seconds
                  - baseline.metrics["stages"]["execute"]["modeled_seconds"]
                  / 2)
        cut = RunJournal(tmp_path / "deadline.jsonl")
        with pytest.raises(DeadlineExceededError, match="execute"):
            run_backend("multi-fpga", dataset, fpga=STRESS_FPGA,
                        journal=cut,
                        cancellation=CancellationToken(budget))
        cut.close()
        journaled = len(read_jsonl(cut.path)) - 1
        assert 0 < journaled < execute["num_csts"]
        resumed, rctx = run_backend(
            "multi-fpga", dataset, fpga=STRESS_FPGA,
            journal=RunJournal(cut.path, resume=True),
        )
        rctx.journal.close()
        assert strip_wall(resumed.metrics) == strip_wall(baseline.metrics)
        assert (resumed.metrics["stages"]["execute"]["resumed_partitions"]
                == journaled)


# ----------------------------------------------------------------------
# Device-health ledger
# ----------------------------------------------------------------------


def flaky_ledger(device=0, faults=40, launches=50):
    """A ledger whose history marks ``device`` as residency-flaky."""
    ledger = DeviceHealthLedger()
    stats = ledger.device(device)
    stats.runs = 10
    stats.launches = launches
    stats.faults = {"kernel_timeout": faults}
    return ledger


class TestDeviceHealthLedger:
    def test_empty_ledger_is_neutral(self):
        ledger = DeviceHealthLedger()
        assert ledger.penalty(0) == 0.0
        assert not ledger.flaky(0)
        assert ledger.delta_s_scale(0) == 1.0

    def test_fault_rate_and_penalty(self):
        ledger = flaky_ledger()
        assert ledger.penalty(0) == pytest.approx(0.8)
        assert ledger.flaky(0)
        assert ledger.delta_s_scale(0) == DeviceHealthLedger.DELTA_S_SHRINK

    def test_dead_runs_weigh_heavier(self):
        ledger = DeviceHealthLedger()
        stats = ledger.device(1)
        stats.runs = 4
        stats.dead_runs = 1
        assert ledger.penalty(1) == pytest.approx(
            DeviceHealthLedger.DEAD_WEIGHT * 0.25
        )

    def test_non_residency_faults_do_not_shrink_delta_s(self):
        ledger = DeviceHealthLedger()
        stats = ledger.device(0)
        stats.launches = 10
        stats.faults = {"pcie_error": 9}
        assert ledger.flaky(0)
        assert ledger.delta_s_scale(0) == 1.0

    def test_record_run_attributes_device_dead_to_dead_device(self):
        ledger = DeviceHealthLedger()
        health = HealthReport()
        health.mark_device(0, "dead")
        health.mark_device(1, "ok")
        health.record(FaultEvent(
            kind="device_dead", scope=("device", 0), attempt=0,
            action="failover", device=1,
        ))
        ledger.record_run(health)
        assert ledger.device(0).dead_runs == 1
        assert ledger.device(0).faults == {"device_dead": 1}
        assert ledger.device(1).faults == {}

    def test_record_run_skips_empty_reports(self):
        ledger = DeviceHealthLedger()
        ledger.record_run(HealthReport())
        assert ledger.devices == {}

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = flaky_ledger()
        ledger.save(path)
        back = DeviceHealthLedger.load(path)
        assert back.to_dict() == ledger.to_dict()
        assert back.penalty(0) == ledger.penalty(0)

    def test_load_missing_file_is_empty(self, tmp_path):
        ledger = DeviceHealthLedger.load(tmp_path / "none.json")
        assert ledger.devices == {}
        assert ledger.path == tmp_path / "none.json"

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "future.json"
        atomic_write_json(path, {"version": 99, "devices": {}})
        with pytest.raises(JournalError, match="version"):
            DeviceHealthLedger.load(path)

    def test_context_folds_run_into_ledger(self, dataset, tmp_path):
        path = tmp_path / "ledger.json"
        plan = FaultPlan(seed=11, rates={"kernel_timeout": 0.5,
                                         "pcie_error": 0.3})
        out, ctx = run_backend(
            "fast-sep", dataset, fpga=STRESS_FPGA, fault_plan=plan,
            health_ledger=DeviceHealthLedger(path),
        )
        assert out.health["fault_events"]
        assert path.exists()
        back = DeviceHealthLedger.load(path)
        assert back.device(0).launches > 0
        assert sum(back.device(0).faults.values()) == len(
            out.health["fault_events"]
        )


class TestLedgerSteering:
    def test_placement_shifts_away_from_flaky_device(self, dataset):
        clean, _ = run_backend("multi-fpga", dataset, fpga=STRESS_FPGA)
        sched = clean.metrics["stages"]["schedule"]
        clean_split = sched["csts_per_device"]
        assert clean_split[0] > 0  # min-load spreads over both devices

        steered, _ = run_backend(
            "multi-fpga", dataset, fpga=STRESS_FPGA,
            health_ledger=flaky_ledger(device=0),
        )
        ssched = steered.metrics["stages"]["schedule"]
        steered_split = ssched["csts_per_device"]
        # Device 0's inflated effective load shifts work to the healthy
        # device 1 — without changing the total count. Compare shares,
        # not raw counts: the ledger also pre-shrinks delta_S, so the
        # steered run has more (smaller) partitions overall.
        clean_share = clean_split[0] / sum(clean_split)
        steered_share = steered_split[0] / sum(steered_split)
        assert steered_share < clean_share
        assert steered.embeddings == clean.embeddings
        assert ssched["device_penalties"][0] > 0

    def test_degraded_device_pre_shrinks_delta_s(self, dataset):
        clean, _ = run_backend("fast-sep", dataset, fpga=STRESS_FPGA)
        shrunk, _ = run_backend(
            "fast-sep", dataset, fpga=STRESS_FPGA,
            health_ledger=flaky_ledger(device=0),
        )
        clean_parts = clean.metrics["stages"]["partition"]["num_partitions"]
        shrunk_parts = shrunk.metrics["stages"]["partition"]["num_partitions"]
        assert shrunk_parts > clean_parts  # halved delta_S → more pieces
        assert shrunk.embeddings == clean.embeddings
        sched = shrunk.metrics["stages"]["schedule"]
        assert sched["delta_s_scale"] == DeviceHealthLedger.DELTA_S_SHRINK


# ----------------------------------------------------------------------
# Bounded stage cache
# ----------------------------------------------------------------------


class TestStageCacheLru:
    def test_eviction_beyond_max_entries(self):
        cache = StageCache(max_entries=2)
        cache.get_or_build("cst", ("a",), lambda: 1)
        cache.get_or_build("cst", ("b",), lambda: 2)
        cache.get_or_build("cst", ("c",), lambda: 3)
        assert len(cache) == 2
        stats = cache.stats()["cst"]
        assert stats["evictions"] == 1
        assert stats["misses"] == 3

    def test_hit_refreshes_recency(self):
        cache = StageCache(max_entries=2)
        cache.get_or_build("cst", ("a",), lambda: 1)
        cache.get_or_build("cst", ("b",), lambda: 2)
        cache.get_or_build("cst", ("a",), lambda: 1)  # refresh "a"
        cache.get_or_build("cst", ("c",), lambda: 3)  # evicts "b"
        _, was_cached = cache.get_or_build("cst", ("a",), lambda: 99)
        assert was_cached
        _, was_cached = cache.get_or_build("cst", ("b",), lambda: 99)
        assert not was_cached  # "b" was the LRU victim

    def test_eviction_counts_per_namespace(self):
        cache = StageCache(max_entries=1)
        cache.get_or_build("cst", ("a",), lambda: 1)
        cache.get_or_build("partition", ("p",), lambda: 2)  # evicts cst
        stats = cache.stats()
        assert stats["cst"]["evictions"] == 1
        assert stats["partition"]["evictions"] == 0

    def test_eviction_counters_reach_metrics(self, dataset):
        ctx = RunContext(fpga=STRESS_FPGA,
                         cache=StageCache(max_entries=1))
        out = REGISTRY.get("fast-sep").run(
            ctx, get_query("q0").graph, dataset.graph
        )
        cst_stats = out.metrics["cache"]["cst"]
        assert "evictions" in cst_stats


class TestLedgerLocking:
    """record_and_save is a locked load→merge→save transaction, so
    concurrent processes folding runs into one ledger lose nothing."""

    def test_record_and_save_merges_with_disk_state(self, tmp_path):
        from repro.runtime.context import RunMetrics

        path = tmp_path / "ledger.json"
        # Two in-memory ledgers against the same path, each folding a
        # run: the second save must merge, not clobber, the first.
        for _ in range(2):
            ledger = DeviceHealthLedger(path)
            metrics = RunMetrics(backend="fast-sep")
            metrics.stage("execute").extra["num_csts"] = 5
            metrics.health.device_status[0] = "ok"
            ledger.record_and_save(metrics)
        back = DeviceHealthLedger.load(path)
        assert back.device(0).launches == 10
        assert back.device(0).runs == 2

    def test_record_and_save_requires_a_path(self):
        from repro.runtime.context import RunMetrics

        with pytest.raises(JournalError):
            DeviceHealthLedger().record_and_save(
                RunMetrics(backend="fast-sep")
            )

    def test_concurrent_processes_lose_no_runs(self, tmp_path):
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        path = tmp_path / "ledger.json"
        script = textwrap.dedent("""
            import sys
            from repro.runtime.context import RunMetrics
            from repro.runtime.journal import DeviceHealthLedger

            for _ in range(10):
                ledger = DeviceHealthLedger(sys.argv[1])
                metrics = RunMetrics(backend="fast-sep")
                metrics.stage("execute").extra["num_csts"] = 1
                metrics.health.device_status[0] = "ok"
                ledger.record_and_save(metrics)
        """)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path)],
                env={"PYTHONPATH": repo_src, "PATH": "/usr/bin:/bin"},
            )
            for _ in range(3)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        back = DeviceHealthLedger.load(path)
        assert back.device(0).runs == 30
        assert back.device(0).launches == 30
