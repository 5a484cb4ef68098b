"""Observability-plane tests: registry, logs, SLO, live endpoint.

The acceptance properties of ISSUE 10:

* every ``fast_*`` family is declared once in
  ``repro.obs.registry.FAMILIES``, recording against an undeclared
  name raises, and the declared set cross-checks against the
  docs/observability.md family tables (the metrics-name lint);
* a serve session with ``--metrics-port`` answers live ``/metrics``
  scrapes that pass ``validate_prometheus_text`` while jobs run, and
  ``/healthz`` walks starting -> serving -> draining;
* worker-side pool spans merge into the request trace without
  touching the modeled clock: the modeled half of the trace is
  bit-identical at any ``--workers`` count;
* the structured JSONL log and the SLO tracker are deterministic
  functions of the request trace.
"""

from __future__ import annotations

import io
import json
import re
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.harness import (
    HarnessConfig,
    make_context,
    tight_config,
)
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.obs.logs import LEVELS, JsonLogger
from repro.obs.registry import (
    FAMILIES,
    FamilySpec,
    MetricsRegistry,
    build_run_registry,
    exposition_families,
    run_families,
    serve_families,
)
from repro.obs.slo import SloTracker, quantile
from repro.runtime.registry import REGISTRY
from repro.runtime.tracing import (
    MODELED,
    WALL,
    Tracer,
    validate_prometheus_text,
)
from repro.serve import MatchServer, ServeConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``fast_``-prefixed string literals in src/ that are not metric
#: family names: the serve-family prefix constant and a figure-series
#: key. Anything else must be declared in FAMILIES.
LINT_ALLOWLIST = {"fast_serve", "fast_series"}


# -- declared families -------------------------------------------------


class TestFamilySpecs:
    def test_no_duplicate_names(self):
        names = [spec.name for spec in FAMILIES]
        assert len(names) == len(set(names))

    def test_counters_carry_total_suffix(self):
        for spec in FAMILIES:
            if spec.mtype == "counter":
                assert spec.suffix == "_total", spec.name
            else:
                assert spec.suffix == "", spec.name

    def test_histograms_declare_buckets(self):
        for spec in FAMILIES:
            assert (spec.buckets is not None) == (
                spec.mtype == "histogram"
            ), spec.name

    def test_prefixes(self):
        for spec in run_families():
            assert spec.name.startswith("fast_")
            assert not spec.name.startswith("fast_serve_")
        for spec in serve_families():
            assert spec.name.startswith("fast_serve_")


class TestMetricsRegistry:
    def test_undeclared_family_raises(self):
        reg = MetricsRegistry(serve_families())
        with pytest.raises(ValueError, match="not declared"):
            reg.inc("fast_serve_bogus")
        with pytest.raises(ValueError, match="not declared"):
            reg.set("fast_run_info", value=1.0)  # run family, serve reg

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry(run_families())
        with pytest.raises(ValueError, match="is a counter"):
            reg.observe("fast_embeddings_found", value=1.0)
        with pytest.raises(ValueError, match="is a histogram"):
            reg.inc("fast_stage_duration_seconds")

    def test_duplicate_declaration_raises(self):
        spec = FamilySpec("fast_x", "gauge", "x")
        with pytest.raises(ValueError, match="duplicate"):
            MetricsRegistry([spec, spec])

    def test_inc_set_value_reset(self):
        reg = MetricsRegistry(serve_families())
        labels = {"status": "OK"}
        assert reg.value("fast_serve_jobs", labels) is None
        reg.inc("fast_serve_jobs", labels)
        reg.inc("fast_serve_jobs", labels, value=2.0)
        assert reg.value("fast_serve_jobs", labels) == 3.0
        reg.set("fast_serve_queue_depth_peak", value=7.0)
        reg.set("fast_serve_queue_depth_peak", value=4.0)
        assert reg.value("fast_serve_queue_depth_peak") == 4.0
        reg.reset()
        assert reg.value("fast_serve_jobs", labels) is None
        reg.inc("fast_serve_jobs", labels)  # families stay declared
        assert reg.value("fast_serve_jobs", labels) == 1.0

    def test_render_grammar(self):
        reg = MetricsRegistry(serve_families())
        reg.inc("fast_serve_jobs", {"status": "OK"}, value=3)
        reg.set("fast_serve_slo_burn_rate", {"priority": "1"}, 0.25)
        text = reg.render()
        assert validate_prometheus_text(text) == []
        assert "# HELP fast_serve_jobs " in text
        assert "# TYPE fast_serve_jobs counter" in text
        assert 'fast_serve_jobs_total{status="OK"} 3' in text
        assert 'fast_serve_slo_burn_rate{priority="1"} 0.25' in text
        # Empty families are omitted entirely.
        assert "fast_serve_backlog_seconds" not in text

    def test_render_sorts_labels(self):
        reg = MetricsRegistry(serve_families())
        reg.set("fast_serve_slo_latency_seconds",
                {"quantile": "p99", "priority": "0"}, 1.0)
        assert ('fast_serve_slo_latency_seconds'
                '{priority="0",quantile="p99"} 1' in reg.render())

    def test_histogram_cumulative_buckets(self):
        spec = FamilySpec("fast_h", "histogram", "h",
                          buckets=(1.0, 2.0))
        reg = MetricsRegistry([spec])
        for v in (0.5, 1.5, 1.5, 5.0):
            reg.observe("fast_h", {"k": "a"}, v)
        text = reg.render()
        assert validate_prometheus_text(text) == []
        assert 'fast_h_bucket{k="a",le="1"} 1' in text
        assert 'fast_h_bucket{k="a",le="2"} 3' in text
        assert 'fast_h_bucket{k="a",le="+Inf"} 4' in text
        assert 'fast_h_sum{k="a"} 8.5' in text
        assert 'fast_h_count{k="a"} 4' in text

    def test_thread_safety(self):
        reg = MetricsRegistry(serve_families())

        def hammer():
            for _ in range(500):
                reg.inc("fast_serve_jobs", {"status": "OK"})
                reg.render()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("fast_serve_jobs", {"status": "OK"}) == 2000.0


class TestBuildRunRegistry:
    PAYLOAD = {
        "backend": "fast-share",
        "stages": {
            "build": {"modeled_seconds": 0.25, "wall_seconds": 0.5},
            "execute": {
                "modeled_seconds": 1.0, "wall_seconds": 2.0,
                "pool": "process", "workers": 4,
                "cst_plane": "shm", "pool_warm": True,
                "pool_spawned": 4, "pool_chunks": 9, "num_csts": 3,
            },
        },
        "totals": {"modeled_seconds": 1.25, "wall_seconds": 2.5},
        "health": {"retries": 2, "degraded": False,
                   "backoff_seconds": 0.1},
        "cache": {"cst": {"hits": 1, "misses": 2}},
    }

    def test_exposition_lines(self):
        counters = {"journal_appends": 3}
        text = build_run_registry(self.PAYLOAD, counters).render()
        assert validate_prometheus_text(text) == []
        assert 'fast_run_info{backend="fast-share"} 1' in text
        assert 'fast_pool_chunks_total{backend="fast-share"} 9' in text
        assert ('fast_tracer_events_total'
                '{backend="fast-share",name="journal_appends"} 3'
                in text)

    def test_exposition_families(self):
        text = build_run_registry(self.PAYLOAD).render()
        families = exposition_families(text)
        assert "fast_run_info" in families
        assert "fast_stage_duration_seconds" in families
        assert "fast_tracer_events" not in families  # no counters given
        assert exposition_families("") == set()


# -- metrics-name lint -------------------------------------------------


class TestMetricsNameLint:
    def test_declared_families_documented(self):
        """Every declared family appears (short name + suffix) in the
        docs/observability.md family tables."""
        docs = (REPO_ROOT / "docs" / "observability.md").read_text()
        for spec in FAMILIES:
            if spec.name.startswith("fast_serve_"):
                short = spec.name[len("fast_serve_"):]
            else:
                short = spec.name[len("fast_"):]
            assert f"`{short}{spec.suffix}`" in docs, (
                f"{spec.name} missing from docs/observability.md"
            )

    def test_source_literals_are_declared(self):
        """Every ``fast_*`` string literal in src/ is a declared
        family name (or an allowlisted non-metric)."""
        declared = {spec.name for spec in FAMILIES}
        declared |= {spec.name + spec.suffix for spec in FAMILIES}
        pattern = re.compile(r"[\"'](fast_[a-z0-9_]+)[\"']")
        offenders = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for name in pattern.findall(path.read_text()):
                if name in declared or name in LINT_ALLOWLIST:
                    continue
                offenders.append(f"{path.name}: {name}")
        assert not offenders, (
            "undeclared fast_* literals (declare in "
            f"repro.obs.registry or allowlist): {offenders}"
        )


# -- structured logs ---------------------------------------------------


class TestJsonLogger:
    def test_disabled_without_sink(self):
        log = JsonLogger()
        assert not log.enabled
        log.info("event")  # no-op, no error
        log.close()

    def test_record_shape(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonLogger(path)
        assert log.enabled
        log.info("job_finished", request_id="r1", status="OK")
        log.warning("request_shed")
        log.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == [
            "job_finished", "request_shed",
        ]
        first, second = records
        assert first["level"] == "info"
        assert first["request_id"] == "r1"
        assert first["status"] == "OK"
        assert isinstance(first["ts"], float)
        # Every record carries the request_id key, null when unscoped.
        assert second["request_id"] is None

    def test_level_threshold(self):
        sink = io.StringIO()
        log = JsonLogger(sink, level="warning")
        log.debug("dropped")
        log.info("dropped")
        log.warning("kept")
        log.error("kept_too")
        events = [json.loads(line)["event"]
                  for line in sink.getvalue().splitlines()]
        assert events == ["kept", "kept_too"]

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            JsonLogger(io.StringIO(), level="loud")
        log = JsonLogger(io.StringIO())
        with pytest.raises(ValueError, match="unknown log level"):
            log.log("loud", "event")

    def test_borrowed_stream_not_closed(self):
        sink = io.StringIO()
        log = JsonLogger(sink)
        log.info("event")
        log.close()
        log.close()  # idempotent
        assert not sink.closed
        assert json.loads(sink.getvalue())["event"] == "event"

    def test_path_sink_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for n in range(2):
            log = JsonLogger(path)
            log.info(f"run{n}")
            log.close()
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["run0", "run1"]

    def test_levels_table(self):
        assert sorted(LEVELS, key=LEVELS.get) == [
            "debug", "info", "warning", "error",
        ]


# -- SLO tracking ------------------------------------------------------


class TestSloTracker:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window"):
            SloTracker(window=0)
        with pytest.raises(ValueError, match="budget"):
            SloTracker(budget=0.0)
        with pytest.raises(ValueError, match="budget"):
            SloTracker(budget=1.5)

    def test_quantile_convention(self):
        # Matches ServeReport.p99: ceil, 1-based (q=99 of one value
        # is that value).
        assert quantile([], 99) == 0.0
        assert quantile([3.0], 99) == 3.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 99) == 4.0

    def test_burn_rate_math(self):
        slo = SloTracker(target_s=1.0, budget=0.5)
        slo.observe(0, 0.5, "OK")        # hit
        slo.observe(0, 2.0, "OK")        # latency miss
        slo.observe(0, None, "SHED")     # completion miss
        slo.observe(0, 0.5, "DEGRADED")  # hit
        # 2 misses / 4 windowed, over budget 0.5 -> burn rate 1.0.
        assert slo.burn_rate(0) == 1.0
        # Quantiles only see completed requests' latencies.
        assert slo.quantile(0, 99) == 2.0
        assert slo.burn_rate(9) == 0.0  # unseen priority

    def test_window_rolls(self):
        slo = SloTracker(target_s=1.0, window=2, budget=1.0)
        slo.observe(0, None, "SHED")
        slo.observe(0, 0.1, "OK")
        slo.observe(0, 0.2, "OK")  # evicts the SHED miss
        assert slo.burn_rate(0) == 0.0
        snap = slo.snapshot()["0"]
        assert snap["window_jobs"] == 2
        assert snap["observed"] == 3

    def test_per_priority_targets(self):
        slo = SloTracker(target_s=1.0, targets={2: 0.1})
        slo.observe(0, 0.5, "OK")  # hit against default target
        slo.observe(2, 0.5, "OK")  # miss against the tight target
        assert slo.burn_rate(0) == 0.0
        assert slo.burn_rate(2) > 0.0
        assert slo.priorities() == [0, 2]

    def test_snapshot_shape(self):
        slo = SloTracker()
        slo.observe(1, 0.001, "OK")
        snap = slo.snapshot()
        assert set(snap) == {"1"}
        assert set(snap["1"]) == {
            "p50_modeled_latency_s", "p99_modeled_latency_s",
            "burn_rate", "target_s", "window_jobs", "observed",
        }


# -- live endpoint -----------------------------------------------------


def request_line(job_id, dataset="DG-MICRO", query="q0", **fields):
    return json.dumps(
        {"id": job_id, "dataset": dataset, "query": query, **fields}
    )


def live_config(**overrides):
    defaults = dict(
        capacity_s=1.0, harness=tight_config(), metrics_port=0
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def fetch(port, path):
    """(status, body) for one loopback GET; no exception on 4xx/5xx."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


class TestLiveEndpoint:
    def test_healthz_transitions_and_mid_run_scrape(self):
        server = MatchServer(live_config())
        assert server.http_port is not None
        seen = {}

        def source():
            # Runs on the serve thread after the loop entered
            # "serving": the mid-soak scrape, deterministic by
            # construction.
            seen["state"] = server.health_state
            seen["healthz"] = fetch(server.http_port, "/healthz")
            seen["metrics"] = fetch(server.http_port, "/metrics")
            for n in range(3):
                yield request_line(f"r{n}")

        assert server.health_state == "starting"
        code, body = fetch(server.http_port, "/healthz")
        assert code == 503
        assert json.loads(body)["state"] == "starting"

        sink = io.StringIO()
        report = server.run(source(), sink)
        assert report.statuses.get("OK", 0) + \
            report.statuses.get("DEGRADED", 0) + \
            report.statuses.get("SHED", 0) == 3

        assert seen["state"] == "serving"
        code, body = seen["healthz"]
        assert code == 200
        health = json.loads(body)
        assert health["state"] == "serving"
        assert set(health) == {"state", "jobs_done", "queued"}
        code, text = seen["metrics"]
        assert code == 200
        assert validate_prometheus_text(text) == []

        # Input hit EOF: draining answers 503 until close.
        assert server.health_state == "draining"
        code, body = fetch(server.http_port, "/healthz")
        assert code == 503
        assert json.loads(body)["state"] == "draining"

        # The live scrape's family set is a subset of the end-of-run
        # snapshot (same registry; more samples land by the end).
        end_text = server.metrics_text()
        assert validate_prometheus_text(end_text) == []
        assert exposition_families(text) <= exposition_families(end_text)
        assert "fast_serve_jobs_total" in end_text
        assert "fast_serve_slo_burn_rate" in end_text
        server.close()

    def test_concurrent_scrapes_during_soak(self):
        server = MatchServer(live_config())
        stop = threading.Event()
        scrapes, errors = [], []

        def scraper():
            while not stop.is_set():
                code, text = fetch(server.http_port, "/metrics")
                if code != 200:
                    errors.append(f"HTTP {code}")
                    continue
                errs = validate_prometheus_text(text)
                if errs:
                    errors.append(str(errs))
                scrapes.append(text)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        try:
            sink = io.StringIO()
            lines = [request_line(f"r{n}") for n in range(20)]
            server.run(lines, sink)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not errors
        assert scrapes  # the exporter answered while jobs ran
        server.close()

    def test_unknown_route_404(self):
        server = MatchServer(live_config())
        code, _ = fetch(server.http_port, "/nope")
        assert code == 404
        server.close()

    def test_no_port_no_server(self):
        server = MatchServer(live_config(metrics_port=None))
        assert server.http_port is None
        server.close()

    def test_slo_gauges_in_exposition(self):
        server = MatchServer(live_config())
        sink = io.StringIO()
        server.run(
            [request_line("r0", priority=1), request_line("r1")],
            sink,
        )
        text = server.metrics_text()
        server.close()
        assert validate_prometheus_text(text) == []
        for family in ("fast_serve_slo_latency_seconds",
                       "fast_serve_slo_burn_rate",
                       "fast_serve_slo_window_jobs"):
            assert family in exposition_families(text)
        assert ('fast_serve_slo_latency_seconds'
                '{priority="1",quantile="p99"}' in text)


# -- worker-span trace merge -------------------------------------------


def traced_run(workers):
    """One fast-share run through the warm process pool, traced."""
    config = tight_config(HarnessConfig(
        use_cache=False, trace=True, pool="process", workers=workers,
    ))
    ctx = make_context(config)
    try:
        result = REGISTRY.get("fast-share").run(
            ctx, get_query("q1").graph, load_dataset("DG-MINI").graph
        )
        payload = ctx.tracer.to_chrome_trace()
    finally:
        ctx.close()
    return result, payload


class TestWorkerSpanMerge:
    def test_modeled_clock_identical_across_worker_counts(self):
        result1, trace1 = traced_run(1)
        result4, trace4 = traced_run(4)
        assert result1.embeddings == result4.embeddings
        modeled1 = [ev for ev in trace1["traceEvents"]
                    if ev.get("cat") == MODELED]
        modeled4 = [ev for ev in trace4["traceEvents"]
                    if ev.get("cat") == MODELED]
        assert modeled1 == modeled4
        assert modeled1  # the filter actually selected something

        # The pooled run grew wall-only worker lanes and spans.
        names4 = {ev["name"] for ev in trace4["traceEvents"]
                  if ev.get("cat") == WALL}
        assert "pool-task" in names4
        lanes4 = {ev["args"]["name"]
                  for ev in trace4["traceEvents"]
                  if ev.get("name") == "thread_name"}
        assert any(lane.startswith("pool/worker") for lane in lanes4)
        for ev in trace4["traceEvents"]:
            if ev.get("name") == "pool-task":
                assert ev["cat"] == WALL
                assert "task" in ev["args"]
                assert "attempt" in ev["args"]

    def test_pool_spans_filed_under_dispatching_request(self):
        """Every pool lane entry belongs to the job that dispatched it:
        a multi-FPGA job's device-queue spans must not spill into the
        next job that shares the server's warm pool."""
        server = MatchServer(ServeConfig(
            capacity_s=100.0, trace=True,
            harness=tight_config(HarnessConfig(
                use_cache=False, workers=2, pool="process",
            )),
        ))
        try:
            server.run([
                request_line("fast1", "DG-MINI", "q1"),
                request_line("multi", "DG-MINI", "q1",
                             backend="multi-fpga"),
                request_line("fast2", "DG-MINI", "q1"),
            ], io.StringIO())
        finally:
            server.close()
        jobs = {"fast1", "multi", "fast2"}
        tasks: dict[str, list[int]] = {}
        for span in server.tracer.spans:
            if not span.track.startswith("pool/"):
                continue
            request = (span.args or {}).get("request_id")
            assert request in jobs, span
            if span.name == "pool-task":
                tasks.setdefault(request, []).append(span.args["task"])
        for instant in server.tracer.instants:
            if instant.track == "pool":
                assert (instant.args or {}).get("request_id") in jobs
        # Each job's pool-task spans cover its own tasks exactly once;
        # the multi-FPGA job dispatched one window per worker of each
        # device queue.
        assert set(tasks) == jobs
        for request, ids in tasks.items():
            assert sorted(ids) == list(range(len(ids))), request
        solo = REGISTRY.run(
            "multi-fpga", get_query("q1").graph,
            load_dataset("DG-MINI").graph,
            ctx=make_context(tight_config(HarnessConfig(use_cache=False))),
        )
        queues = solo.metrics["stages"]["execute"]["device_launches"]
        assert len(queues) > 1 and min(queues.values()) > 1
        assert len(tasks["multi"]) == 2 * len(queues)

    def test_request_id_stamping(self):
        tracer = Tracer(enabled=True)
        tracer.span("lane", "before", 0.0, 1.0, clock=MODELED)
        tracer.set_request("r7")
        assert tracer.request_id == "r7"
        tracer.span("lane", "scoped", 1.0, 1.0, clock=MODELED)
        tracer.instant("lane", "mark", 1.5, clock=WALL)
        tracer.span("lane", "explicit", 2.0, 1.0, clock=MODELED,
                    request_id="other")
        tracer.set_request(None)
        tracer.span("lane", "after", 3.0, 1.0, clock=MODELED)
        by_name = {s.name: (s.args or {}) for s in tracer.spans}
        assert "request_id" not in by_name["before"]
        assert by_name["scoped"]["request_id"] == "r7"
        assert by_name["explicit"]["request_id"] == "other"
        assert "request_id" not in by_name["after"]
        assert tracer.instants[0].args["request_id"] == "r7"
