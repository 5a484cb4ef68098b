"""Tracing overhead benchmark.

Quantifies the cost of the span tracer (docs/observability.md) on a
partition-stressed FAST-SEP run:

``trace_overhead``
    Wall-time ratio of a traced run and its Chrome-trace export over
    an untraced run. Tracing records spans at stage, partition and
    device granularity, and per-round module occupancy as round rows
    that the export expands into spans, so the export is timed too;
    this is the worst-case figure, and it must stay small because
    recording is append-to-list plus a lock.

``traced_spans``
    Complete events in the traced run's export, module spans
    included.

``disabled_spans``
    Span/instant objects allocated by a run with tracing *disabled*
    (the default). Must be exactly zero — the off switch is an early
    return before any allocation.

Standalone usage::

    python benchmarks/bench_tracing_overhead.py [--out BENCH.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.common.io import atomic_write_json
from repro.experiments.harness import HarnessConfig, make_context, tight_config
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.registry import REGISTRY

DATASET = "DG-MINI"
QUERY = "q1"
BACKEND = "fast-sep"

#: Allowed traced/untraced wall ratio. Tracing adds per-launch round
#: rows inside the kernel loop and expands them at export, so some
#: overhead is real; beyond this the tracer is leaking work into the
#: hot path.
MAX_TRACE_OVERHEAD = 2.5


def _run(trace: bool, repeats: int = 3):
    """Best-of-``repeats`` warm-cache wall time of one configuration."""
    config = tight_config(HarnessConfig(trace=trace, buffers=2))
    dataset = load_dataset(DATASET)
    query = get_query(QUERY)
    spec = REGISTRY.get(BACKEND)
    best_wall, out, ctx = float("inf"), None, None
    for _ in range(repeats):
        ctx = make_context(config)
        t0 = time.perf_counter()
        out = spec.run(ctx, query.graph, dataset.graph)
        ctx.tracer.to_chrome_trace()
        best_wall = min(best_wall, time.perf_counter() - t0)
    return best_wall, out, ctx


def collect(repeats: int = 3) -> dict:
    plain_wall, plain, plain_ctx = _run(trace=False, repeats=repeats)
    traced_wall, traced, traced_ctx = _run(trace=True, repeats=repeats)
    if traced.embeddings != plain.embeddings:
        raise AssertionError(
            f"tracing changed counts: {traced.embeddings} "
            f"vs {plain.embeddings}"
        )
    if traced.seconds != plain.seconds:
        raise AssertionError(
            f"tracing changed modeled seconds: {traced.seconds} "
            f"vs {plain.seconds}"
        )
    disabled_spans = (
        len(plain_ctx.tracer.spans) + len(plain_ctx.tracer.instants)
    )
    return {
        "dataset": DATASET,
        "query": QUERY,
        "backend": BACKEND,
        "embeddings": plain.embeddings,
        "plain_wall_seconds": plain_wall,
        "traced_wall_seconds": traced_wall,
        "trace_overhead": traced_wall / plain_wall,
        "traced_spans": sum(
            ev["ph"] == "X"
            for ev in traced_ctx.tracer.to_chrome_trace()["traceEvents"]
        ),
        "disabled_spans": disabled_spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="additionally write the payload to PATH "
                             "(atomic whole-file replacement)")
    args = parser.parse_args(argv)
    payload = collect(repeats=args.repeats)
    print(json.dumps(payload, indent=2))
    if args.out is not None:
        atomic_write_json(args.out, payload)
    print(
        f"trace overhead {payload['trace_overhead']:.3f}x over "
        f"{payload['traced_spans']} spans "
        f"({payload['disabled_spans']} allocated when disabled)",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# pytest entry (collected by `pytest benchmarks/`)
# ----------------------------------------------------------------------


def test_tracing_overhead_bounded(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, collect, 1)
    assert payload["disabled_spans"] == 0
    assert payload["traced_spans"] > 0
    assert payload["trace_overhead"] < MAX_TRACE_OVERHEAD
    print(
        f"\ntrace overhead: {payload['trace_overhead']:.3f}x "
        f"({payload['traced_spans']} spans)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
