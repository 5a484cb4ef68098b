"""Command-line interface.

Seven subcommands mirror the common workflows::

    python -m repro match    --dataset DG-MINI --query q1 [--backend fast-share]
    python -m repro compare  --dataset DG-MINI --query q2 [--algorithms ...]
    python -m repro serve    [--requests trace.jsonl] [--state-dir DIR]
    python -m repro info     --dataset DG01
    python -m repro backends
    python -m repro devices
    python -m repro trace-summary out.trace.json

``match`` runs any registered backend on one query (``--variant`` is a
shorthand for the five FAST variants), ``compare`` pits any set of
registered backends against each other, ``info`` prints Table III-style
dataset statistics, ``backends`` lists every registered backend with
its declared capabilities, and ``devices`` lists the FPGA device
catalog (docs/devices.md).

``match`` and ``compare`` take ``--device`` (load the FPGA config from
a catalog part instead of the simulator default) and ``--split-policy``
(how Algorithm 2 picks split vertices); ``match`` additionally takes
``--fleet`` (a heterogeneous multi-FPGA pool such as ``u200,u280x2``
for ``--backend multi-fpga``). Unknown parts or malformed catalog
files exit with the usage code 2.

``match`` and ``compare`` accept ``--fault-seed`` / ``--max-retries``
to run under an injected-fault schedule (docs/robustness.md), and
``--workers`` / ``--buffers`` for concurrent partition execution and
the modeled double-buffered overlap pipeline (docs/runtime.md).
``match`` additionally takes ``--journal`` (record a crash-safe run
journal), ``--resume`` (replay a journal's completed partitions and
finish the rest), ``--health-ledger`` (persistent device-health
history steering scheduling), ``--trace`` (export the run as a
Perfetto-loadable Chrome trace-event JSON timeline), and
``--metrics-out`` (write the run's metrics as Prometheus text
exposition); ``trace-summary`` prints the slowest spans of a recorded
trace without opening Perfetto (docs/observability.md covers all
three).

``serve`` runs the long-lived matching service (docs/serving.md): it
reads newline-JSON requests from stdin, ``--requests FILE``, or a TCP
socket (``--listen HOST:PORT``), answers each with one terminal-status
response line on stdout (or the socket), and keeps hot CSTs resident
across requests. ``--capacity`` / ``--queue-factor`` tune admission
control, ``--breaker-threshold`` / ``--breaker-cooldown`` the
per-device circuit breaker, and ``--state-dir`` enables crash-safe
recovery of accepted jobs.

Failure verdicts exit with a one-line
message and a distinct code instead of a traceback: 3 = OOM, 4 = INF,
5 = OVERFLOW, 6 = fatal runtime error, 7 = resume fingerprint
mismatch, 8 = server startup failure (bad bind, unrecoverable state
dir); 1 stays the embedding-count-disagreement code of ``compare``,
2 the usage-error code. The README's exit-code table consolidates
these.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.common.errors import (
    BackendError,
    DeviceError,
    JournalMismatchError,
    ReproError,
    ResourceExhausted,
)
from repro.common.io import atomic_write_text
from repro.common.tables import render_kv, render_table
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.catalog import load_catalog
from repro.host.runtime import RUNNER_VARIANTS, FastRunResult
from repro.ldbc.datasets import DATASET_SCALES, MICRO_SCALES, load_dataset
from repro.ldbc.queries import QUERY_NAMES, get_query
from repro.obs import build_run_registry
from repro.runtime.registry import REGISTRY, RunOutcome
from repro.runtime.tracing import summarize_trace, validate_chrome_trace

_ALL_DATASETS = sorted({**DATASET_SCALES, **MICRO_SCALES})

#: Distinct exit code per modeled resource-exhaustion verdict.
VERDICT_EXIT_CODES = {"OOM": 3, "INF": 4, "OVERFLOW": 5}

#: Exit code for fatal (non-verdict) runtime failures, e.g. every
#: device in a multi-FPGA pool dying.
EXIT_FATAL = 6

#: Exit code when ``--resume`` is given a journal whose recorded run
#: fingerprint does not match the requested run.
EXIT_RESUME_MISMATCH = 7

#: Exit code when the matching server cannot start: bad listen
#: address, unrecoverable state directory, or invalid serve config.
EXIT_SERVE = 8


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="SEED",
                        help="inject deterministic device faults from "
                             "this seed (see docs/robustness.md)")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="transient-fault retry budget per "
                             "partition (default: 3)")
    parser.add_argument("--host-fault-seed", type=int, default=None,
                        metavar="SEED",
                        help="inject deterministic HOST faults (worker "
                             "kills/stalls/shm loss) into the warm "
                             "process pool from this seed; wall-clock "
                             "only (docs/robustness.md)")


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="warm process-pool width for independent "
                             "CST partitions (1 = inline; wall-clock "
                             "only; default: 1)")
    parser.add_argument("--buffers", type=int, default=1, metavar="N",
                        help="on-card staging buffers of the modeled "
                             "transfer/compute overlap pipeline "
                             "(default: 1 = no overlap)")
    parser.add_argument("--pool-watchdog", type=float, default=30.0,
                        metavar="SECONDS",
                        help="wall-clock silence budget before an "
                             "in-flight warm-pool dispatch is hedged "
                             "(stall-kill at twice this; 0 disables; "
                             "default: 30)")
    parser.add_argument("--cache-max-entries", type=int, default=256,
                        metavar="N",
                        help="bound on resident stage-cache entries "
                             "(CSTs + partitions, LRU-evicted beyond "
                             "this; default: 256)")


def _add_journal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="record a crash-safe run journal at PATH "
                             "(see docs/robustness.md)")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume an interrupted run from its "
                             "journal (replays completed partitions, "
                             "executes the rest)")
    parser.add_argument("--health-ledger", default=None, metavar="PATH",
                        help="persistent device-health ledger steering "
                             "scheduling away from flaky devices")


def _add_device_flags(
    parser: argparse.ArgumentParser, fleet: bool = False
) -> None:
    parser.add_argument("--device", default=None, metavar="PART",
                        help="catalog part to load the FPGA config "
                             "from, e.g. u250 (see `repro devices`; "
                             "default: the sim-small simulator part)")
    if fleet:
        parser.add_argument("--fleet", default=None, metavar="SPEC",
                            help="heterogeneous multi-FPGA pool for "
                                 "--backend multi-fpga, e.g. "
                                 "u200,u280x2 (docs/devices.md)")
    parser.add_argument("--split-policy", default="order",
                        choices=("order", "degree"),
                        help="split-vertex choice of Algorithm 2: "
                             "matching order position (paper) or "
                             "highest degree first (default: order)")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="export the run as Chrome trace-event "
                             "JSON at PATH (load in Perfetto or "
                             "chrome://tracing; docs/observability.md)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the run's metrics as Prometheus "
                             "text exposition at PATH")


def _harness_config(args: argparse.Namespace, **kwargs) -> HarnessConfig:
    return HarnessConfig(
        fault_seed=args.fault_seed,
        max_retries=args.max_retries,
        workers=args.workers,
        buffers=args.buffers,
        pool_watchdog_s=getattr(args, "pool_watchdog", 30.0),
        host_fault_seed=getattr(args, "host_fault_seed", None),
        cache_max_entries=getattr(args, "cache_max_entries", 256),
        journal_path=getattr(args, "journal", None),
        resume_path=getattr(args, "resume", None),
        health_ledger_path=getattr(args, "health_ledger", None),
        trace=getattr(args, "trace", None) is not None,
        device=getattr(args, "device", None),
        fleet=getattr(args, "fleet", None),
        split_policy=getattr(args, "split_policy", "order"),
        **kwargs,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FAST (ICDE 2021) subgraph matching reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser("match", help="run one backend on one query")
    match.add_argument("--dataset", default="DG-MINI",
                       choices=_ALL_DATASETS)
    match.add_argument("--query", default="q1", choices=list(QUERY_NAMES))
    match.add_argument("--variant", default="share",
                       choices=list(RUNNER_VARIANTS),
                       help="FAST variant shorthand (ignored when "
                            "--backend is given)")
    match.add_argument("--backend", default=None,
                       help="any registered backend name "
                            "(see `repro backends`)")
    match.add_argument("--delta", type=float, default=0.1,
                       help="CPU workload share threshold")
    _add_fault_flags(match)
    _add_executor_flags(match)
    _add_journal_flags(match)
    _add_trace_flags(match)
    _add_device_flags(match, fleet=True)

    compare = sub.add_parser("compare",
                             help="registered backends on one query")
    compare.add_argument("--dataset", default="DG-MINI",
                         choices=_ALL_DATASETS)
    compare.add_argument("--query", default="q2",
                         choices=list(QUERY_NAMES))
    compare.add_argument("--algorithms", nargs="+",
                         default=["CFL", "DAF", "CECI", "FAST"],
                         metavar="BACKEND",
                         help="registered backend names or aliases")
    _add_fault_flags(compare)
    _add_executor_flags(compare)
    _add_device_flags(compare)

    serve = sub.add_parser(
        "serve",
        help="long-lived matching service over newline-JSON requests",
    )
    serve.add_argument("--backend", default="fast-share",
                       help="backend for requests that name none "
                            "(default: fast-share)")
    serve.add_argument("--requests", default=None, metavar="FILE",
                       help="read requests from FILE instead of stdin "
                            "(one JSON object per line)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve over a TCP socket instead of "
                            "stdin/stdout (one connection at a time)")
    serve.add_argument("--capacity", type=float, default=0.01,
                       metavar="SECONDS",
                       help="admission token-bucket capacity in "
                            "estimated modeled seconds (default: 0.01)")
    serve.add_argument("--queue-factor", type=float, default=4.0,
                       metavar="X",
                       help="queue headroom as a multiple of capacity "
                            "before shedding (default: 4.0)")
    serve.add_argument("--default-cost", type=float, default=0.001,
                       metavar="SECONDS",
                       help="estimated modeled cost of a never-seen "
                            "(backend, dataset, query) triple "
                            "(default: 0.001)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       metavar="N",
                       help="consecutive device failures that open "
                            "its circuit breaker (default: 3)")
    serve.add_argument("--breaker-cooldown", type=int, default=8,
                       metavar="N",
                       help="served jobs before an open breaker "
                            "half-opens for a probe (default: 8)")
    serve.add_argument("--no-cpu-fallback", action="store_true",
                       help="answer FATAL instead of rerouting "
                            "breaker-open jobs to the exact-CPU "
                            "fallback backend")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="crash-safe service manifest + per-job "
                            "journals; restarting with the same DIR "
                            "resumes accepted jobs (docs/serving.md)")
    _add_fault_flags(serve)
    _add_executor_flags(serve)
    _add_trace_flags(serve)
    _add_device_flags(serve, fleet=True)
    serve.add_argument("--health-ledger", default=None, metavar="PATH",
                       help="persistent device-health ledger shared "
                            "with standalone runs (scales admission "
                            "capacity)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live /metrics and /healthz over "
                            "loopback HTTP while running (0 picks an "
                            "ephemeral port, printed to stderr)")
    serve.add_argument("--log-json", default=None, metavar="FILE",
                       help="append structured JSONL event records "
                            "(one object per line, each carrying the "
                            "owning request id) to FILE")

    info = sub.add_parser("info", help="dataset statistics (Table III)")
    info.add_argument("--dataset", default="DG01", choices=_ALL_DATASETS)

    sub.add_parser("backends",
                   help="list registered backends and capabilities")

    sub.add_parser("devices",
                   help="list the FPGA device catalog (docs/devices.md)")

    summary = sub.add_parser(
        "trace-summary",
        help="slowest spans of a recorded trace, per lane",
    )
    summary.add_argument("trace_file", metavar="TRACE.json",
                         help="Chrome trace-event JSON written by "
                              "`repro match --trace`")
    summary.add_argument("--top", type=int, default=5, metavar="N",
                         help="spans shown per lane (default: 5)")
    summary.add_argument("--request", default=None, metavar="ID",
                         help="only spans of this serve request id "
                              "(matches the request_id span arg)")
    return parser


def _health_summary(health: dict) -> str | None:
    """One-cell health digest, or None for a clean, fault-free run."""
    if not health:
        return None
    if not health.get("degraded") and not health.get("retries"):
        return None
    return (
        f"degraded={health.get('degraded', False)} "
        f"retries={health.get('retries', 0)} "
        f"repartitions={health.get('repartitions', 0)} "
        f"fallbacks={health.get('fallbacks', 0)} "
        f"failovers={health.get('failovers', 0)}"
    )


def _fast_rows(result: FastRunResult) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = [
        ("embeddings", result.embeddings),
        ("total_ms", result.total_seconds * 1e3),
        ("build_ms", result.build_seconds * 1e3),
        ("partition_ms", result.partition_seconds * 1e3),
        ("pcie_ms", result.pcie_seconds * 1e3),
        ("kernel_ms", result.kernel_seconds * 1e3),
        ("cpu_share_ms", result.cpu_share_seconds * 1e3),
        ("partitions", result.num_partitions),
        ("cpu_csts", result.num_cpu_csts),
        ("N (partials)", result.kernel_report.total_partials),
        ("M (edge tasks)", result.kernel_report.total_edge_tasks),
    ]
    if result.metrics is not None:
        cst = result.metrics.cache.get("cst", {})
        rows.append((
            "cst_cache",
            f"{cst.get('hits', 0)} hits / {cst.get('misses', 0)} misses",
        ))
        health = _health_summary(result.metrics.health.to_dict())
        if health is not None:
            rows.append(("health", health))
        exe = result.metrics.stages.get("execute")
        if exe is not None and exe.extra.get("resumed_partitions"):
            rows.append((
                "resumed_partitions", exe.extra["resumed_partitions"]
            ))
    return rows


def _outcome_rows(out: RunOutcome) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = [
        ("verdict", out.verdict),
        ("embeddings", out.embeddings if out.ok else "-"),
        ("time_ms", out.seconds * 1e3 if out.ok else "-"),
    ]
    stages = out.metrics.get("stages", {})
    for name, stage in stages.items():
        rows.append((
            f"{name}_modeled_ms", stage.get("modeled_seconds", 0.0) * 1e3
        ))
    health = _health_summary(out.health)
    if health is not None:
        rows.append(("health", health))
    resumed = stages.get("execute", {}).get("resumed_partitions")
    if resumed:
        rows.append(("resumed_partitions", resumed))
    if out.detail:
        rows.append(("detail", out.detail))
    return rows


def _verdict_exit(backend: str, verdict: str, detail: str = "") -> int:
    """One-line verdict message on stderr plus its distinct exit code."""
    line = f"{backend}: {verdict}"
    if detail:
        line = f"{line} ({detail})"
    print(line, file=sys.stderr)
    return VERDICT_EXIT_CODES.get(verdict, EXIT_FATAL)


def cmd_match(args: argparse.Namespace) -> int:
    name = args.backend or f"fast-{args.variant}"
    try:
        spec = REGISTRY.get(name)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset)
    query = get_query(args.query)
    try:
        # Catalog problems (unknown part, malformed device JSON,
        # bad fleet spec) are usage errors, not runtime failures.
        ctx = make_context(_harness_config(args, delta=args.delta))
    except DeviceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"{spec.name}: fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    try:
        out = spec.run(ctx, query.graph, dataset.graph)
    except JournalMismatchError as exc:
        # The journal was recorded for a different run (query, dataset,
        # backend, or config changed); replaying it would corrupt
        # counts, so refuse with a distinct exit code.
        print(f"{spec.name}: RESUME-MISMATCH: {exc}", file=sys.stderr)
        return EXIT_RESUME_MISMATCH
    except ResourceExhausted as exc:
        return _verdict_exit(spec.name, exc.verdict, str(exc))
    except ReproError as exc:
        print(f"{spec.name}: fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        # Closes the journal and unlinks any shared-memory segments the
        # run's CST arena created.
        ctx.close()
    if args.trace is not None:
        ctx.tracer.write_chrome_trace(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics_out is not None:
        atomic_write_text(
            args.metrics_out,
            build_run_registry(
                ctx.current_metrics.to_payload(), ctx.tracer.counters
            ).render(),
        )
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    rows = (
        _fast_rows(out.raw) if isinstance(out.raw, FastRunResult)
        else _outcome_rows(out)
    )
    print(render_kv(
        f"{spec.name} {args.query} on {args.dataset}", rows
    ))
    if not out.ok:
        return _verdict_exit(spec.name, out.verdict, out.detail)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        specs = [REGISTRY.get(name) for name in args.algorithms]
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ctx = make_context(_harness_config(args))
    except DeviceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    dataset = load_dataset(args.dataset)
    query = get_query(args.query)
    rows = []
    counts = set()
    failure_code = 0
    try:
        for name, spec in zip(args.algorithms, specs):
            try:
                out = spec.run(ctx, query.graph, dataset.graph)
            except ResourceExhausted as exc:
                rows.append([name, exc.verdict, "-"])
                failure_code = failure_code or VERDICT_EXIT_CODES.get(
                    exc.verdict, EXIT_FATAL
                )
                continue
            except ReproError as exc:
                print(f"{name}: fatal: {exc}", file=sys.stderr)
                rows.append([name, "FATAL", "-"])
                failure_code = failure_code or EXIT_FATAL
                continue
            if out.ok:
                counts.add(out.embeddings)
                time_cell = f"{out.seconds * 1e3:.3f}"
                if out.degraded:
                    time_cell = f"{time_cell}*"  # recovered (degraded)
                rows.append([name, time_cell, out.embeddings])
            else:
                rows.append([name, out.verdict, "-"])
                failure_code = failure_code or VERDICT_EXIT_CODES.get(
                    out.verdict, EXIT_FATAL
                )
    finally:
        ctx.close()
    print(render_table(
        ["algorithm", "time_ms", "embeddings"], rows,
        title=f"{args.query} on {args.dataset}",
    ))
    if len(counts) > 1:
        print(f"warning: embedding count disagreement: {counts}",
              file=sys.stderr)
        return 1
    return failure_code


def _serve_sockets(server, host: str, port: int) -> "ServeReport":
    """Accept TCP connections one at a time until interrupted."""
    import socket

    from repro.common.errors import ServeError

    try:
        listener = socket.create_server((host, port))
    except OSError as exc:
        raise ServeError(f"cannot bind {host}:{port}: {exc}") from exc
    report = None
    try:
        print(f"serving on {host}:{port} (ctrl-c to stop)",
              file=sys.stderr)
        while True:
            conn, peer = listener.accept()
            with conn:
                source = conn.makefile("r", encoding="utf-8")
                sink = conn.makefile("w", encoding="utf-8")
                try:
                    report = server.run(source, sink)
                except BrokenPipeError:
                    pass  # client went away mid-response; keep serving
                finally:
                    source.close()
                    try:
                        sink.close()
                    except BrokenPipeError:
                        pass
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return report


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.common.errors import ServeError
    from repro.serve import MatchServer, ServeConfig

    try:
        harness = _harness_config(args)
    except DeviceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = ServeConfig(
        backend=args.backend,
        cpu_fallback=not args.no_cpu_fallback,
        capacity_s=args.capacity,
        queue_factor=args.queue_factor,
        default_cost_s=args.default_cost,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        state_dir=args.state_dir,
        health_ledger_path=args.health_ledger,
        trace=args.trace is not None,
        metrics_port=args.metrics_port,
        log_json=args.log_json,
        harness=harness,
    )
    try:
        server = MatchServer(config)
    except ServeError as exc:
        print(f"serve: SERVE-FAILED: {exc}", file=sys.stderr)
        return EXIT_SERVE
    except DeviceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if server.http_port is not None:
        print(f"metrics on http://127.0.0.1:{server.http_port}/metrics",
              file=sys.stderr)
    try:
        if args.listen is not None:
            host, _, port_text = args.listen.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                print(f"error: bad --listen address {args.listen!r} "
                      f"(expected HOST:PORT)", file=sys.stderr)
                return 2
            try:
                report = _serve_sockets(server, host or "127.0.0.1", port)
            except ServeError as exc:
                print(f"serve: SERVE-FAILED: {exc}", file=sys.stderr)
                return EXIT_SERVE
        else:
            if args.requests is not None:
                path = Path(args.requests)
                if not path.exists():
                    print(f"error: no such request file: {path}",
                          file=sys.stderr)
                    return 2
                with path.open() as source:
                    report = server.run(source, sys.stdout)
            else:
                report = server.run(sys.stdin, sys.stdout)
    finally:
        server.close()
    if args.trace is not None:
        server.write_trace(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics_out is not None:
        server.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if report is not None:
        summary = " ".join(
            f"{status}={count}"
            for status, count in report.statuses.items()
        )
        print(
            f"served {report.total} requests: {summary} "
            f"(queue_peak={report.queue_peak}, "
            f"recovered={report.recovered})",
            file=sys.stderr,
        )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    info = dataset.summary()
    print(render_kv(f"dataset {args.dataset}", list(info.items())))
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    rows = []
    for spec in REGISTRY.specs():
        caps = spec.capabilities()
        rows.append([
            spec.name,
            spec.family,
            spec.cost_domain,
            "yes" if spec.needs_cst else "no",
            "/".join(caps["verdicts"]),
            ", ".join(spec.aliases),
        ])
    print(render_table(
        ["backend", "family", "cost_domain", "needs_cst", "verdicts",
         "aliases"],
        rows,
        title=f"{len(rows)} registered backends",
    ))
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
    try:
        catalog = load_catalog()
    except DeviceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for name in catalog.names():
        info = catalog.get(name).summary()
        rows.append([
            info["part"],
            info["display_name"],
            info["family"],
            info["memory"],
            info["pcie"],
            info["clock_mhz"],
            info["bram_kib"],
            info["slrs"],
            info["max_ports"],
        ])
    print(render_table(
        ["part", "name", "family", "memory", "pcie", "clock_mhz",
         "bram_kib", "slrs", "ports"],
        rows,
        title=f"{len(rows)} catalogued devices",
    ))
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    path = Path(args.trace_file)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    errors = validate_chrome_trace(payload)
    if errors:
        print(f"error: {path} is not a valid trace: {errors[0]}",
              file=sys.stderr)
        return 2
    rows = summarize_trace(
        payload, top=args.top, request_id=args.request
    )
    if not rows:
        if args.request is not None:
            print(f"trace contains no spans for request "
                  f"{args.request!r}", file=sys.stderr)
        else:
            print("trace contains no spans", file=sys.stderr)
        return 0
    scope = (
        f" (request {args.request})" if args.request is not None else ""
    )
    print(render_table(
        ["clock", "lane", "span", "start_ms", "duration_ms"], rows,
        title=f"top {args.top} spans per lane of {path.name}{scope}",
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "match": cmd_match,
        "compare": cmd_compare,
        "serve": cmd_serve,
        "info": cmd_info,
        "backends": cmd_backends,
        "devices": cmd_devices,
        "trace-summary": cmd_trace_summary,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
