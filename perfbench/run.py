"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload shatter --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced timed
phase, every timing scaled to the nominal host by the host-speed
probes taken alongside it. ``--trace 1`` runs an untraced phase and
then the same ops again with outside-in spans around each layer
(layers.py), and prints the per-layer metrics, unscaled. The last
stdout line is the result object; the line before it holds the run's
details (machine block, host speed, unscaled figures, set-up samples,
latency quantiles, modeled time). See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from layers import (
    LAYER_PATCHES,
    SETUP_PATCHES,
    STAGE_FUNCTIONS,
    Patches,
    SpanRecorder,
)
from procstat import (
    host_probes,
    host_scale,
    loadavg,
    machine_block,
    peak_rss_mib,
    quantile,
    stop_processes,
    tail_quantile,
)

ROOT = Path(__file__).resolve().parent.parent
#: Per-run serve state (journals, manifest); removed at exit.
STATE_ROOT = ROOT / ".bench_state"
#: Set-ups per run; ``setup_s`` is the fastest, scaled to the nominal
#: host. A set-up is short enough that one busy second of the host
#: moves it, and the fastest of five moved least between runs.
SETUP_REPS = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("shatter", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ops_per_s(phase) -> float:
    """Ops completed per second the program was busy: its capacity.

    On the open loop the server idles between requests, so ops over
    the phase's wall time would only echo the offered rate.
    """
    return (phase.attempted - phase.failed) / phase.busy


def _class_median(phase) -> float:
    """Mean over the op classes of each class's median latency, so that
    every class of the serve mix counts alike."""
    by_cls: dict = {}
    for tag, seconds in phase.latency.items():
        by_cls.setdefault(phase.cls[tag], []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_cls.values())


def _raw(phase) -> dict:
    """The phase's figures in the host's own seconds."""
    return {
        "ops_per_s": _ops_per_s(phase),
        "op_p50_ms": _class_median(phase) * 1e3,
        "cpu_ms_per_op": phase.cpu / phase.attempted * 1e3,
    }


def _setup_scaled(setup_samples, setup_probes) -> list[float]:
    """Each set-up's seconds on the nominal host, scaled by the probes
    taken just before and just after it."""
    return [
        seconds * host_scale(setup_probes[i] + setup_probes[i + 1])
        for i, seconds in enumerate(setup_samples)
    ]


def end_to_end(phase, setup_samples, setup_probes, rss: float) -> dict:
    """Every timing on the nominal host (NOTES.md, "Noise")."""
    raw = _raw(phase)
    scale = host_scale(phase.probes)
    return {
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "cpu_ms_per_op": (raw["cpu_ms_per_op"] * scale, "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "setup_s": (min(_setup_scaled(setup_samples, setup_probes)), "s"),
    }


def per_layer(rec, setup_rec, phase, base) -> dict:
    """Per-op layer figures of the traced ``phase`` (see NOTES.md)."""
    n = phase.attempted
    c = phase.counters
    stages = [rec.stat(fn) for fn in STAGE_FUNCTIONS]
    op_wall = rec.stat("op").total
    # Runner and registry glue: time under an op outside every stage
    # and every other named layer.
    unattributed = rec.stat("op").self_time + rec.stat("host.runtime").self_time
    engine = rec.stat("fpga.engine")
    rounds = rec.facts["fpga.engine.rounds"]
    journal = rec.stat("runtime.journal")
    waits = [
        lat - rec.service[tag] for tag, lat in phase.latency.items()
        if tag in rec.service
    ]
    services = [rec.service[t] for t in phase.latency if t in rec.service]
    lookups = c["cst_hits"] + c["cst_misses"]
    batches = rec.facts["serve.batches"]
    out = {
        "ldbc.generate_s": (setup_rec.stat("ldbc.generate").total, "s"),
        "runtime.pool.start_s": (
            setup_rec.first.get("runtime.pool.start", 0.0), "s",
        ),
        "query.plan_ms": (rec.stat("plan_stage").self_time / n * 1e3, "ms"),
        "cst.builder.ms": (rec.stat("cst.builder").self_time / n * 1e3, "ms"),
        "serve.cst_hit_rate": (
            c["cst_hits"] / lookups if lookups else 0.0, "ratio",
        ),
        "cst.partition.ms": (
            rec.stat("cst.partition").self_time / n * 1e3, "ms",
        ),
        "cst.partition.parts": (rec.facts["cst.partition.parts"] / n, "count"),
        "cst.partition.splits": (
            rec.facts["cst.partition.splits"] / n, "count",
        ),
        "host.scheduler.ms": (
            rec.stat("host.scheduler").self_time / n * 1e3, "ms",
        ),
        "host.scheduler.cpu_parts": (
            rec.facts["host.scheduler.cpu_parts"] / n, "count",
        ),
        "fpga.engine.ms": (engine.self_time / n * 1e3, "ms"),
        "fpga.engine.launches": (engine.calls / n, "count"),
        "fpga.engine.rounds": (rounds / n, "count"),
        "fpga.engine.us_per_round": (
            engine.total / rounds * 1e6 if rounds else 0.0, "us",
        ),
        "host.cpu_matcher.ms": (
            rec.stat("host.cpu_matcher").self_time / n * 1e3, "ms",
        ),
        "runtime.stages.execute_ms": (
            rec.stat("execute_stage").total / n * 1e3, "ms",
        ),
        "runtime.stages.self_ms": (
            sum(s.self_time for s in stages) / n * 1e3, "ms",
        ),
        "runtime.stages.unattributed_ms": (unattributed / n * 1e3, "ms"),
        **{
            f"runtime.stages.{stage}.gap_us": (
                rec.stage_gap[stage] / n * 1e6, "us",
            )
            for stage in STAGE_FUNCTIONS.values()
        },
        "bench.layer_coverage": (
            1.0 - unattributed / op_wall if op_wall else 0.0, "ratio",
        ),
        "runtime.pool.chunks": (c.get("pool_chunks", 0) / n, "count"),
        "runtime.pool.dispatch_ms": (
            rec.stat("runtime.pool").total / n * 1e3, "ms",
        ),
        "runtime.pool.worker_cpu_ms": (phase.worker_cpu / n * 1e3, "ms"),
        "runtime.pool.retries": (c.get("pool_retries", 0), "count"),
        "runtime.journal.appends": (journal.calls / n, "count"),
        "runtime.journal.ms": (journal.total / n * 1e3, "ms"),
        "runtime.tracing.events": (c.get("tracer_events", 0) / n, "count"),
        "serve.service_ms_p50": (
            statistics.median(services) * 1e3 if services else 0.0, "ms",
        ),
        "serve.queue_wait_ms_p50": (
            statistics.median(waits) * 1e3 if waits else 0.0, "ms",
        ),
        "serve.queue_wait_ms_p90": (
            quantile(waits, 0.9) * 1e3 if waits else 0.0, "ms",
        ),
        "serve.batch_jobs_mean": (
            rec.facts["serve.batch_jobs"] / batches if batches else 0.0,
            "count",
        ),
        "serve.admission.shed": (c.get("shed", 0), "count"),
        "loadgen.late_ms_p90": (
            quantile(phase.late, 0.9) * 1e3 if phase.late else 0.0, "ms",
        ),
        "bench.trace_overhead": (
            _ops_per_s(phase) / host_scale(phase.probes)
            / (_ops_per_s(base) / host_scale(base.probes)),
            "ratio",
        ),
    }
    return out


def details(args, machine, phases, setup_samples, setup_probes) -> dict:
    main = phases[0]
    latencies = list(main.latency.values())
    p90 = tail_quantile(latencies, 0.9)
    modeled = sorted(main.modeled)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**machine, "loadavg_end": loadavg()},
        # The host's speed during the main phase, and the factor that
        # scales its timings to the nominal host.
        "host_probe_ms": {
            "n": len(main.probes),
            "mean": statistics.fmean(main.probes) * 1e3,
            "min": min(main.probes) * 1e3,
            "max": max(main.probes) * 1e3,
        },
        "host_scale": host_scale(main.probes),
        # Unscaled figures, in the host's own seconds.
        "raw": _raw(main),
        "setup_samples_s": setup_samples,
        "setup_scaled_s": _setup_scaled(setup_samples, setup_probes),
        "ops": [p.attempted for p in phases],
        "latency_samples": len(latencies),
        "latency_ms": {
            f"p{q}": quantile(latencies, q / 100) * 1e3 for q in (10, 25, 50, 75)
        },
        # Ops completed over the phase's wall time: on serve, the
        # offered rate unless the server fell behind.
        "completed_per_s": (main.attempted - main.failed) / main.wall,
        "busy_share": main.busy / main.wall,
        # Reported only with at least ten samples beyond it.
        "op_p90_ms": p90 * 1e3 if p90 is not None else None,
        # Simulated FPGA + host time: identical on every run by design.
        "modeled_ms_per_op": (
            sum(modeled) / len(modeled) * 1e3 if modeled else None
        ),
        "loadgen_late_ms_p90": (
            quantile(main.late, 0.9) * 1e3 if main.late else None
        ),
    }


def run(args) -> tuple[dict, dict]:
    # The set-up clock starts here, after interpreter start and imports.
    import workloads

    machine = machine_block()
    workload = workloads.make_workloads(STATE_ROOT)[args.workload]
    setup_rec = SpanRecorder()
    setup_samples: list[float] = []
    # Host-speed probes before the first set-up and after each one.
    setup_probes = [host_probes()]
    state = None
    warm_ok = True
    try:
        for _ in range(1 if args.trace else SETUP_REPS):
            if state is not None:
                workload.close(state)
                state = None
            t0 = time.perf_counter()
            if args.trace:
                with Patches(setup_rec, SETUP_PATCHES):
                    state, ok = workload.setup(setup_rec)
            else:
                state, ok = workload.setup()
            setup_samples.append(time.perf_counter() - t0)
            setup_probes.append(host_probes())
            warm_ok = warm_ok and ok
        n = workload.n_ops(args.seconds)
        phases = [workload.timed(state, n, args.seed, tag="u")]
        if args.trace:
            rec = SpanRecorder()
            with Patches(rec, LAYER_PATCHES):
                phases.append(
                    workload.timed(state, n, args.seed, rec=rec, tag="t")
                )
            metrics = per_layer(rec, setup_rec, phases[1], phases[0])
        else:
            metrics = end_to_end(
                phases[0], setup_samples, setup_probes, peak_rss_mib(),
            )
    finally:
        if state is not None:
            workload.close(state)
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass  # absent, or another run's state is still there
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return details(args, machine, phases, setup_samples, setup_probes), result


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    main_pid = os.getpid()

    def on_term(signum, frame):
        # Forked workers inherit this handler: they die as by default.
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    # A terminated run still closes its workload and stops its
    # processes on the way out.
    signal.signal(signal.SIGTERM, on_term)
    try:
        detail, result = run(args)
    finally:
        stop_processes()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
