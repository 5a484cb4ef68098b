"""Tests for the tracing and metrics-exposition layer.

Four properties anchor the layer (docs/observability.md):

* **Schema** — exported Chrome trace-event JSON validates, loads as
  plain JSON, and carries both clock-domain processes.
* **Exactness** — per-stage span sums equal the ``RunMetrics`` totals
  on both clocks, for every FAST variant, multi-FPGA, and a faulted
  run; module-lane spans tile the kernel's cycle account exactly.
* **Determinism** — the modeled half of a trace is bit-identical at
  any ``--workers``/``pool`` (``--buffers`` changes the timeline's
  *shape* but stays deterministic per buffer count).
* **Neutrality** — enabling tracing changes no embedding counts,
  modeled seconds, or health bits; disabling it allocates no spans.

The module-lane layout is the paper's Fig. 5: FAST-SEP rounds run all
four kernel modules concurrently, FAST-BASIC strictly serializes them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np
import pytest

from repro.cst.builder import build_cst
from repro.experiments.harness import (
    HarnessConfig,
    make_context,
    tight_config,
)
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import VARIANTS, FastEngine, module_spans
from repro.fpga.report import ROUND_COLUMNS, KernelReport
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.obs import build_run_registry
from repro.runtime.executor import overlap_schedule, overlap_timeline
from repro.runtime.registry import REGISTRY
from repro.runtime.tracing import (
    CLOCK_PIDS,
    MODELED,
    MODULE_OF_LANE,
    WALL,
    Tracer,
    check_trace_invariants,
    summarize_trace,
    trace_device_lanes,
    trace_lanes,
    validate_chrome_trace,
    validate_prometheus_text,
)
from repro.serve import MatchServer, ServeConfig

FAST_BACKENDS = ("fast-dram", "fast-basic", "fast-task", "fast-sep")

TIGHT_FPGA = FpgaConfig(bram_bytes=48 * 1024, batch_size=64, max_ports=16)


def traced_run(backend, query, data, **kwargs):
    """One traced run; returns ``(outcome, ctx)``."""
    kwargs.setdefault("trace", True)
    kwargs.setdefault("use_cache", False)
    ctx = make_context(HarnessConfig(**kwargs))
    out = REGISTRY.get(backend).run(ctx, query, data)
    return out, ctx


def modeled_events(ctx):
    """Deterministic view of a trace's modeled clock domain."""
    return [
        (ev["name"], ev["ph"], ev["ts"], ev.get("dur"))
        for ev in ctx.tracer.to_chrome_trace()["traceEvents"]
        if ev.get("cat") == MODELED
    ]


class TestTracerCore:
    def test_disabled_by_default_and_allocation_free(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.span("t", "s", 0.0, 1.0)
        tracer.instant("t", "i", 0.0)
        tracer.count("c")
        tracer.on_journal_append({"type": "x"})
        assert tracer.spans == []
        assert tracer.instants == []
        assert tracer.counters == {}

    def test_enabled_records(self):
        tracer = Tracer(enabled=True)
        tracer.span("lane", "work", 1.0, 2.0, clock=MODELED, k=1)
        tracer.instant("lane", "tick", 0.5)
        tracer.count("events", 3)
        tracer.count("events")
        assert len(tracer.spans) == 1
        assert tracer.spans[0].args == {"k": 1}
        assert tracer.counters == {"events": 4.0}

    def test_chrome_trace_schema_and_clock_processes(self):
        tracer = Tracer(enabled=True)
        tracer.span("a", "s1", 0.0, 1.0, clock=MODELED)
        tracer.span("a", "s2", 0.0, 1.0, clock=WALL)
        tracer.instant("b", "i1", 2.0)
        payload = tracer.to_chrome_trace()
        assert validate_chrome_trace(payload) == []
        names = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names == {"wall clock", "modeled clock"}
        # Same track name on different clocks -> different pids.
        lanes = trace_lanes(payload)
        assert (MODELED, "a") in lanes and (WALL, "a") in lanes

    def test_trace_microsecond_units(self):
        tracer = Tracer(enabled=True)
        tracer.span("a", "s", 1.5, 0.25, clock=MODELED)
        (ev,) = [
            e for e in tracer.to_chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        ]
        assert ev["ts"] == pytest.approx(1.5e6)
        assert ev["dur"] == pytest.approx(0.25e6)

    def test_write_chrome_trace_is_valid_json_file(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.span("a", "s", 0.0, 1.0)
        path = tmp_path / "out.trace.json"
        tracer.write_chrome_trace(path)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_validator_rejects_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        assert validate_chrome_trace(
            {"traceEvents": [
                {"ph": "X", "name": "s", "pid": 1, "tid": 1,
                 "ts": -1.0, "dur": 1.0},
            ]}
        ) != []

    def test_summarize_trace_ranks_by_duration(self):
        tracer = Tracer(enabled=True)
        tracer.span("lane", "slow", 0.0, 3.0, clock=MODELED)
        tracer.span("lane", "fast", 0.0, 1.0, clock=MODELED)
        rows = summarize_trace(tracer.to_chrome_trace(), top=1)
        assert len(rows) == 1
        assert rows[0][2] == "slow"


class TestOverlapSchedule:
    def test_timeline_matches_schedule_tail(self):
        segments = [(1.0, 2.0), (0.5, 3.0), (2.0, 0.5), (1.0, 1.0)]
        for buffers in (1, 2, 3, 8):
            schedule = overlap_schedule(segments, buffers)
            assert schedule[-1][3] == overlap_timeline(segments, buffers)

    def test_schedule_respects_resource_serialization(self):
        segments = [(1.0, 2.0), (0.5, 3.0), (2.0, 0.5)]
        schedule = overlap_schedule(segments, buffers=2)
        for i in range(1, len(schedule)):
            # Transfers serialize on the link, kernels on the device.
            assert schedule[i][0] >= schedule[i - 1][1] - 1e-12
            assert schedule[i][2] >= schedule[i - 1][3] - 1e-12
        for t_start, t_end, k_start, k_end in schedule:
            assert t_end >= t_start and k_start >= t_end - 1e-12

    def test_empty_schedule(self):
        assert overlap_schedule([], 2) == []


class TestModuleSpans:
    """Reports record round rows; the expansion tiles the cycle
    account, and merges shift launches without touching them."""

    @staticmethod
    def _launches(micro_graph, queries, variant="sep", n=1):
        engine = FastEngine(TIGHT_FPGA, variant, trace_modules=True)
        return [engine.run(build_cst(queries[k].graph, micro_graph))
                for k in range(n)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_spans_tile_total_cycles_exactly(self, variant, micro_graph,
                                             queries):
        (report,) = self._launches(micro_graph, queries, variant)
        (launch,) = report.launch_rows
        rows = np.frombuffer(launch.rows, dtype=np.int64).reshape(
            -1, len(ROUND_COLUMNS)
        )
        pops, new, tasks, _, flush = rows.sum(axis=0).tolist()
        assert len(rows) == report.rounds
        assert (pops, new, tasks, flush) == (
            report.total_pops, report.total_partials,
            report.total_edge_tasks, report.flush_cycles,
        )
        assert launch.load_cycles == report.load_cycles
        assert launch.slr_crossing_cycles == report.slr_crossing_cycles
        assert launch.offsets == ()
        spans = module_spans(TIGHT_FPGA, variant, report.launch_rows)
        assert spans
        assert max(end for _, _, end in spans) == (
            pytest.approx(report.total_cycles)
        )
        for lane, start, end in spans:
            assert lane in MODULE_OF_LANE
            assert 0.0 <= start < end

    def test_off_by_default_allocates_nothing(self, micro_graph, queries):
        cst = build_cst(queries[0].graph, micro_graph)
        report = FastEngine(TIGHT_FPGA, "sep").run(cst)
        assert report.launch_rows is None

    def test_merge_shifts_onto_serial_clock(self, micro_graph, queries):
        a, b = self._launches(micro_graph, queries, n=2)
        (a0,), (b0,) = a.launch_rows, b.launch_rows
        spans_a = module_spans(TIGHT_FPGA, "sep", [a0])
        spans_b = module_spans(TIGHT_FPGA, "sep", [b0])
        offset = a.total_cycles
        a.merge(b)
        assert a.launch_rows == [a0, b0._replace(offsets=(offset,))]
        assert b.launch_rows == [b0]
        assert module_spans(TIGHT_FPGA, "sep", a.launch_rows) == [
            *spans_a,
            *((lane, s + offset, e + offset) for lane, s, e in spans_b),
        ]
        assert a.total_cycles == offset + b.total_cycles

    def test_merge_never_moves_recorded_lanes(self, micro_graph, queries):
        """A deferred entry keeps the launches it was given: merging
        its report onward (a device into the run's total) builds new
        launch tuples instead."""
        (device,) = self._launches(micro_graph, queries)
        tracer = Tracer(enabled=True)
        trace_device_lanes(tracer, 0, [], device, TIGHT_FPGA)
        before = modeled_digest(tracer.to_chrome_trace())
        total = KernelReport(variant="sep", clock_mhz=device.clock_mhz,
                             compute_cycles=1000.0)
        total.merge(device)
        (entry,) = tracer.spans
        assert entry.launches == tuple(device.launch_rows)
        assert total.launch_rows[0].offsets == (1000.0,)
        assert modeled_digest(tracer.to_chrome_trace()) == before

    def test_journal_roundtrip_preserves_spans(self, micro_graph, queries):
        from repro.runtime.journal import report_from_dict, report_to_dict

        a, b = self._launches(micro_graph, queries, n=2)
        a.merge(b)
        record = json.loads(json.dumps(report_to_dict(a)))
        assert "module_spans" not in record
        back = report_from_dict(record)
        assert back == a
        assert module_spans(TIGHT_FPGA, "sep", back.launch_rows) == (
            module_spans(TIGHT_FPGA, "sep", a.launch_rows)
        )
        plain = KernelReport(variant="sep", clock_mhz=300.0)
        assert report_from_dict(report_to_dict(plain)).launch_rows is None


class TestFigure5Layout:
    """The module lanes reproduce the paper's per-variant dataflow."""

    def _module_lanes(self, backend, query, data):
        _, ctx = traced_run(backend, query, data)
        lanes = trace_lanes(ctx.tracer.to_chrome_trace())
        mods = {}
        for (clock, track), events in lanes.items():
            if clock != MODELED or "/module/" not in track:
                continue
            lane = track.split("/")[-1]
            if lane in ("load", "flush"):
                continue
            mods[lane] = [(ev["ts"], ev["ts"] + ev["dur"]) for ev in events]
        return mods

    def test_sep_overlaps_all_four_modules(self, micro_graph, queries):
        mods = self._module_lanes("fast-sep", queries[0].graph, micro_graph)
        by_start: dict[float, set[str]] = {}
        for lane, spans in mods.items():
            for start, _ in spans:
                by_start.setdefault(round(start, 6), set()).add(lane)
        concurrent = max(
            (
                {MODULE_OF_LANE[lane] for lane in lanes}
                for lanes in by_start.values()
            ),
            key=len,
        )
        # All four Fig. 5 modules running in at least one round.
        assert concurrent == {
            "generator", "visited_validator", "edge_validator",
            "synchronizer",
        }

    def test_basic_serializes_all_modules(self, micro_graph, queries):
        mods = self._module_lanes(
            "fast-basic", queries[0].graph, micro_graph
        )
        spans = sorted(
            (start, end) for lane in mods.values() for start, end in lane
        )
        assert len(spans) > 4
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start >= prev_end - 1e-9

    def test_task_overlaps_but_keeps_two_phases(self, micro_graph,
                                                queries):
        mods = self._module_lanes("fast-task", queries[0].graph,
                                  micro_graph)
        # Phase A: t_v generation and visited validation share starts.
        tv = {round(s, 6) for s, _ in mods.get("generator_tv", [])}
        visited = {round(s, 6) for s, _ in mods.get("visited_validator", [])}
        assert tv & visited
        # Phase B lanes never start with phase A in the same round:
        # every t_n span begins at or after its round's phase A ends.
        ends_a = sorted(
            max(e1, e2) for (_, e1), (_, e2)
            in zip(mods["generator_tv"], mods["visited_validator"])
        )
        starts_b = sorted(s for s, _ in mods.get("generator_tn", []))
        for start, end_a in zip(starts_b, ends_a):
            assert start >= end_a - 1e-9


class TestInvariants:
    """Span sums equal RunMetrics totals, for every execution shape."""

    @pytest.mark.parametrize("backend", [*FAST_BACKENDS, "multi-fpga"])
    def test_span_sums_equal_metrics(self, backend, micro_graph, queries):
        _, ctx = traced_run(backend, queries[0].graph, micro_graph)
        trace = ctx.tracer.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        assert check_trace_invariants(
            trace, ctx.current_metrics.to_payload()
        ) == []

    def test_span_sums_under_faults_and_buffers(self, micro_graph,
                                                queries):
        _, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            fault_seed=11, workers=3, buffers=3,
        )
        trace = ctx.tracer.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        assert check_trace_invariants(
            trace, ctx.current_metrics.to_payload()
        ) == []

    def test_invariant_checker_catches_drift(self, micro_graph, queries):
        _, ctx = traced_run("fast-sep", queries[0].graph, micro_graph)
        payload = ctx.current_metrics.to_payload()
        payload["stages"]["execute"]["modeled_seconds"] *= 2.0
        assert check_trace_invariants(
            ctx.tracer.to_chrome_trace(), payload
        ) != []

    def test_overlap_timeline_surfaced_in_payload(self, micro_graph,
                                                  queries):
        # A *plain* (untraced) run carries the same overlap timeline
        # the trace draws — the two views agree by construction.
        _, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            trace=False, buffers=3,
        )
        payload = ctx.current_metrics.to_payload()
        execute = payload["stages"]["execute"]
        assert "overlap_timeline" in execute
        assert 0.0 < execute["overlap_timeline"] <= execute["fpga_seconds"]

    def test_multi_fpga_overlap_timeline_per_device(self, mini_graph,
                                                    queries):
        ctx = make_context(HarnessConfig(
            use_cache=False, buffers=2, fpga=TIGHT_FPGA,
        ))
        REGISTRY.get("multi-fpga").run(ctx, queries[0].graph, mini_graph)
        execute = ctx.current_metrics.to_payload()["stages"]["execute"]
        timelines = execute["overlap_timeline"]
        assert isinstance(timelines, dict) and timelines
        assert all(v >= 0.0 for v in timelines.values())


class TestDeterminismAndNeutrality:
    @pytest.mark.parametrize("backend", ["fast-sep", "multi-fpga"])
    def test_modeled_trace_independent_of_workers(self, backend,
                                                  micro_graph, queries):
        base = None
        for workers in (1, 2, 4):
            _, ctx = traced_run(
                backend, queries[0].graph, micro_graph,
                workers=workers, buffers=2, fault_seed=11,
            )
            events = modeled_events(ctx)
            if base is None:
                base = events
                assert base  # the modeled domain is populated
            else:
                assert events == base

    def test_modeled_trace_deterministic_across_runs(self, micro_graph,
                                                     queries):
        runs = [
            modeled_events(
                traced_run(
                    "fast-sep", queries[0].graph, micro_graph,
                    buffers=3, fault_seed=7,
                )[1]
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("backend", [*FAST_BACKENDS, "multi-fpga"])
    def test_tracing_changes_nothing(self, backend, micro_graph, queries):
        results = []
        for trace in (False, True):
            out, ctx = traced_run(
                backend, queries[0].graph, micro_graph,
                trace=trace, fault_seed=11, workers=2, buffers=2,
            )
            results.append((
                out.embeddings,
                out.seconds,
                ctx.current_metrics.health.to_dict(),
            ))
        assert results[0] == results[1]

    def test_disabled_tracer_allocates_no_spans(self, micro_graph,
                                                queries):
        _, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph, trace=False,
        )
        assert not ctx.tracer.enabled
        assert ctx.tracer.spans == []
        assert ctx.tracer.instants == []
        assert ctx.tracer.counters == {}


class TestFaultAndJournalLanes:
    def test_fault_instants_on_faulted_run(self, micro_graph, queries):
        out, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            fault_seed=11, fpga=TIGHT_FPGA,
        )
        health = ctx.current_metrics.health
        fault_instants = [
            i for i in ctx.tracer.instants if i.track == "faults"
        ]
        assert len(fault_instants) == len(health.events)
        assert all(i.clock == MODELED for i in fault_instants)

    def test_journal_appends_traced(self, tmp_path, micro_graph, queries):
        journal = tmp_path / "run.jsonl"
        _, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            journal_path=str(journal), fpga=TIGHT_FPGA,
        )
        ctx.journal.close()
        assert ctx.tracer.counters.get("journal_appends", 0) > 0
        appends = [
            i for i in ctx.tracer.instants if i.track == "journal"
        ]
        assert appends and all(i.clock == WALL for i in appends)

    def test_serve_journal_appends_scoped_per_request(self, tmp_path):
        """The server's tracer, not the job context's own, hears each
        job journal's appends: one ``journal`` instant per record,
        carrying the request that wrote it."""
        server = MatchServer(ServeConfig(
            capacity_s=100.0, trace=True, state_dir=str(tmp_path),
            harness=tight_config(HarnessConfig(use_cache=False)),
        ))
        try:
            server.run([
                json.dumps({"id": rid, "dataset": "DG-MICRO",
                            "query": "q0"})
                for rid in ("r1", "r2")
            ], io.StringIO())
        finally:
            server.close()
        appended = {
            rid: len((tmp_path / f"job-{seq:06d}-{rid}.jsonl")
                     .read_text().splitlines()) - 1  # the header
            for seq, rid in ((1, "r1"), (2, "r2"))
        }
        assert all(n > 0 for n in appended.values())
        scoped: dict[str, int] = {}
        for instant in server.tracer.instants:
            if instant.track == "journal":
                assert instant.clock == WALL
                rid = instant.args["request_id"]
                scoped[rid] = scoped.get(rid, 0) + 1
        assert scoped == appended
        assert server.tracer.counters["journal_appends"] == (
            sum(appended.values())
        )

    def test_resume_counts_replays(self, tmp_path, micro_graph, queries):
        journal = tmp_path / "run.jsonl"
        out, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            journal_path=str(journal), fpga=TIGHT_FPGA,
        )
        ctx.journal.close()
        out2, ctx2 = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            resume_path=str(journal), fpga=TIGHT_FPGA,
        )
        ctx2.journal.close()
        assert out2.embeddings == out.embeddings
        assert ctx2.tracer.counters.get("journal_replays", 0) > 0


class TestPrometheus:
    def _exposition(self, micro_graph, queries, **kwargs):
        out, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph, **kwargs
        )
        return out, build_run_registry(
            ctx.current_metrics.to_payload(), ctx.tracer.counters
        ).render()

    def test_exposition_parses(self, micro_graph, queries):
        _, text = self._exposition(micro_graph, queries)
        assert validate_prometheus_text(text) == []

    def test_exposition_covers_required_families(self, micro_graph,
                                                 queries):
        out, text = self._exposition(micro_graph, queries)
        assert (
            f'fast_embeddings_found_total{{backend="fast-sep"}} '
            f"{out.embeddings}"
        ) in text
        for needle in (
            "fast_stage_duration_seconds_bucket",
            "fast_stage_duration_seconds_sum",
            "fast_stage_duration_seconds_count",
            'stage="execute"',
            "fast_partitions_total",
            "fast_cache_events_total",
            "fast_run_seconds",
        ):
            assert needle in text, needle

    def test_exposition_under_faults_has_recovery_counters(
        self, micro_graph, queries
    ):
        _, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph,
            fault_seed=11, fpga=TIGHT_FPGA,
        )
        text = build_run_registry(
            ctx.current_metrics.to_payload(), ctx.tracer.counters
        ).render()
        assert validate_prometheus_text(text) == []
        assert "fast_recovery_actions_total" in text
        assert "fast_backoff_seconds_total" in text

    def test_exposition_without_tracing(self, micro_graph, queries):
        # --metrics-out must work on an untraced run: the exposition
        # derives from the metrics payload, not from spans.
        _, ctx = traced_run(
            "fast-sep", queries[0].graph, micro_graph, trace=False,
        )
        text = build_run_registry(
            ctx.current_metrics.to_payload()
        ).render()
        assert validate_prometheus_text(text) == []
        assert "fast_embeddings_found_total" in text

    def test_validator_rejects_malformed_text(self):
        assert validate_prometheus_text("not a metric line!") != []
        assert validate_prometheus_text('m{bad-label="x"} 1') != []
        assert validate_prometheus_text("ok_metric 1.5\n") == []

    def test_histogram_buckets_are_cumulative_and_finite_sum(
        self, micro_graph, queries
    ):
        _, text = self._exposition(micro_graph, queries)
        counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("fast_stage_duration_seconds_bucket")
            and 'stage="execute"' in line and 'clock="modeled"' in line
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 1.0
        assert math.isfinite(counts[-1])


def modeled_digest(payload):
    """Digest of the modeled clock domain of an exported trace.

    Every pid-2 event in export order, with its lane's thread name (not
    its tid), phase, ``ts``/``dur`` and args; floats hash by ``repr``,
    so one bit of drift anywhere changes the digest. Returns the digest
    and the number of module-lane spans it covers.
    """
    events = payload["traceEvents"]
    lanes = {
        (ev["pid"], ev["tid"]): ev["args"]["name"] for ev in events
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    rows = [
        [lanes[(ev["pid"], ev["tid"])], ev["name"], ev["ph"], ev["ts"],
         ev.get("dur"), ev["args"]]
        for ev in events
        if ev["pid"] == CLOCK_PIDS[MODELED] and ev["ph"] != "M"
    ]
    blob = json.dumps(rows, sort_keys=True).encode()
    return (hashlib.sha256(blob).hexdigest()[:16],
            sum("/module/" in row[0] for row in rows))


def report_spans(report, config):
    """A report's module spans on its serial cycle clock."""
    return module_spans(config, report.variant, report.launch_rows)


class TestModeledTraceDigests:
    """The modeled half of a trace, pinned bit for bit.

    Digests were recorded when module lanes were still built eagerly
    in the workers, so they pin the export-time expansion of the
    recorded round rows to the same floats on every path: one launch
    per partition, merge offsets nested across devices, pooled
    windows, lanes replayed from a journal, and serve requests.
    """

    @staticmethod
    def _digest(backend, dataset, query, **kwargs):
        _, ctx = traced_run(backend, get_query(query).graph,
                            load_dataset(dataset).graph, **kwargs)
        if ctx.journal is not None:
            ctx.journal.close()
        return modeled_digest(ctx.tracer.to_chrome_trace())

    def test_fast_sep_mini_q1(self):
        assert self._digest("fast-sep", "DG-MINI", "q1", buffers=2) == (
            "be74fd01b6ca62a3", 1388,
        )

    def test_multi_fpga(self):
        assert self._digest("multi-fpga", "DG-MINI", "q1") == (
            "a54218f673a81617", 1388,
        )

    def test_pooled_workers_2(self):
        assert self._digest(
            "fast-sep", "DG-MICRO", "q0", fpga=TIGHT_FPGA, workers=2,
            pool="process", buffers=2, fault_seed=11,
        ) == ("b01724ec467ba577", 655)

    def test_killed_then_resumed_from_journal(self, tmp_path):
        """A run killed after its first nine partition records: the
        journal is cut back to them (a SIGKILL leaves exactly such a
        prefix) and the resumed run draws their lanes from it."""
        journal = tmp_path / "run.jsonl"
        self._digest("fast-sep", "DG-MICRO", "q0", fpga=TIGHT_FPGA,
                     journal_path=str(journal))
        lines = journal.read_text().splitlines(keepends=True)
        assert len(lines) == 20
        journal.write_text("".join(lines[:10]))
        assert self._digest(
            "fast-sep", "DG-MICRO", "q0", fpga=TIGHT_FPGA,
            resume_path=str(journal),
        ) == ("7db689076d1d0c6a", 655)

    def test_two_serve_requests(self, tmp_path):
        server = MatchServer(ServeConfig(
            capacity_s=100.0, trace=True, state_dir=str(tmp_path),
            harness=tight_config(HarnessConfig(
                use_cache=False, workers=2, pool="process",
            )),
        ))
        try:
            server.run([
                json.dumps({"id": "r1", "dataset": "DG-MINI",
                            "query": "q1"}),
                json.dumps({"id": "r2", "dataset": "DG-MICRO",
                            "query": "q0"}),
            ], io.StringIO())
        finally:
            server.close()
        payload = server.tracer.to_chrome_trace()
        assert modeled_digest(payload) == ("a9f1adc652069fcf", 3679)
        scoped = {
            (ev["args"] or {}).get("request_id")
            for ev in payload["traceEvents"]
            if ev["pid"] == CLOCK_PIDS[MODELED] and ev["ph"] == "X"
        }
        assert scoped == {"r1", "r2"}

    def test_nested_merge_offsets(self, micro_graph):
        """Launches merged per device, then devices merged into one
        total, as the multi-FPGA execute stage does: each span carries
        both offsets, added in merge order. An SLR-split device puts a
        crossing span at the end of every launch."""
        csts = [build_cst(get_query(q).graph, micro_graph)
                for q in ("q0", "q1", "q2")]
        half = max(c.size_bytes() for c in csts) // 2 + 32
        cfg = FpgaConfig(
            bram_bytes=2 * half, batch_size=64, slr_count=2,
            slr_bram_bytes=(half, half), slr_crossing_penalty_cycles=6.5,
        )
        engine = FastEngine(cfg, "task", trace_modules=True)
        launches = [engine.run(c) for c in csts]
        devices = []
        for group in (launches[:2], launches[2:]):
            device = KernelReport(variant="task", clock_mhz=cfg.clock_mhz)
            for report in group:
                device.merge(report)
            devices.append(device)
        total = KernelReport(variant="task", clock_mhz=cfg.clock_mhz)
        for device in devices:
            total.merge(device)
        spans = report_spans(total, cfg)
        assert len(spans) == 4236
        assert sum(lane == "slr_crossing" for lane, _, _ in spans) == 3
        blob = json.dumps(spans).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == "d0db315c440c399f"
