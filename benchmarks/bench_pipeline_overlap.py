"""Pipeline-overlap benchmark: serial vs. overlapped vs. pooled.

Measures the execute stage's operating points on a partition-stressed
device (so the run actually has a long stream of FPGA partitions to
pipeline):

``serial``
    ``workers=1, buffers=1`` — the original flat model and inline loop.
``overlapped``
    ``workers=1, buffers=2`` — modeled double-buffered transfer/compute
    overlap, still inline.
``process``
    ``workers=4, buffers=2`` — the warm worker pool fed by the
    zero-copy shared-memory CST plane (one placed partition set per
    run over named segments; see docs/runtime.md).

Standalone usage (CI's perf-smoke job runs ``--check``)::

    python benchmarks/bench_pipeline_overlap.py            # print JSON
    python benchmarks/bench_pipeline_overlap.py --write    # refresh baseline
    python benchmarks/bench_pipeline_overlap.py --check    # gate vs baseline

``--check`` gates correctness, not speed: every mode must find the
committed baseline's embedding count, the pooled run must reproduce
the overlapped run's modeled seconds exactly, and the double-buffered
model may never exceed the serial one. Wall times are recorded for
reading only. The device is deliberately tiny (4 KB BRAM, 4 ports) so
DG-MINI/q1 shatters into ~1.3k partitions, a long partition stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.common.io import atomic_write_json
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.config import FpgaConfig
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.registry import REGISTRY

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_overlap.json"

DATASET = "DG-MINI"
QUERY = "q1"
BACKEND = "fast-share"

#: Far below ``tight_config``: 4 KB of BRAM and a 4-port Edge
#: Validator shatter DG-MINI/q1 into ~1.3k partitions.
BENCH_FPGA = FpgaConfig(bram_bytes=4 * 1024, batch_size=16, max_ports=4)

#: The operating points, in reporting order.
MODES: dict[str, dict] = {
    "serial": {"workers": 1, "buffers": 1},
    "overlapped": {"workers": 1, "buffers": 2},
    "process": {"workers": 4, "buffers": 2},
}


def _measure_mode(knobs: dict, repeats: int) -> dict:
    """Best-of-``repeats`` wall time of one warm-cache run."""
    config = HarnessConfig(fpga=BENCH_FPGA, **knobs)
    dataset = load_dataset(DATASET)
    query = get_query(QUERY)
    spec = REGISTRY.get(BACKEND)
    ctx = make_context(config)
    try:
        # Warm the CST/partition cache (and fork the pool) so the
        # timed runs are dominated by the execute stage.
        out = spec.run(ctx, query.graph, dataset.graph)
        best_wall = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = spec.run(ctx, query.graph, dataset.graph)
            best_wall = min(best_wall, time.perf_counter() - t0)
    finally:
        ctx.close()
    execute = out.metrics["stages"]["execute"]
    return {
        **knobs,
        "wall_seconds": best_wall,
        "modeled_seconds": out.seconds,
        "execute_modeled_seconds": execute["modeled_seconds"],
        "pool": execute.get("pool"),
        "cst_plane": execute.get("cst_plane"),
        "fpga_partitions": execute.get("num_csts", 0),
        "embeddings": out.embeddings,
    }


def collect(repeats: int = 3) -> dict:
    """Measure every mode and derive the headline ratios."""
    modes = {
        name: _measure_mode(knobs, repeats)
        for name, knobs in MODES.items()
    }
    counts = {m["embeddings"] for m in modes.values()}
    if len(counts) != 1:
        raise AssertionError(
            f"embedding counts diverged across modes: {counts}"
        )
    serial, overlapped = modes["serial"], modes["overlapped"]
    return {
        "dataset": DATASET,
        "query": QUERY,
        "backend": BACKEND,
        "cpus": os.cpu_count(),
        "modes": modes,
        "overlap_modeled_ratio": (
            overlapped["modeled_seconds"] / serial["modeled_seconds"]
        ),
    }


def check(payload: dict, baseline: dict) -> list[str]:
    """Gate failures of ``payload`` against the committed baseline."""
    failures: list[str] = []
    modes = payload["modes"]
    if modes["process"]["modeled_seconds"] != (
        modes["overlapped"]["modeled_seconds"]
    ):
        failures.append(
            "the worker pool changed modeled seconds: "
            f"{modes['process']['modeled_seconds']!r} vs "
            f"{modes['overlapped']['modeled_seconds']!r} inline"
        )
    if payload["overlap_modeled_ratio"] > 1.0 + 1e-9:
        failures.append(
            "overlapped modeled time exceeds the serial model "
            f"(ratio {payload['overlap_modeled_ratio']:.6f})"
        )
    if payload["modes"]["serial"]["embeddings"] != (
        baseline["modes"]["serial"]["embeddings"]
    ):
        failures.append(
            f"embedding count changed: "
            f"{payload['modes']['serial']['embeddings']} vs baseline "
            f"{baseline['modes']['serial']['embeddings']}"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if counts or modeled seconds "
                             "disagree with the committed baseline "
                             "or across modes")
    parser.add_argument("--write", action="store_true",
                        help="refresh the committed baseline JSON")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    payload = collect(repeats=args.repeats)
    print(json.dumps(payload, indent=2))
    if args.write:
        # Atomic: an interrupt mid-write leaves the old baseline intact
        # instead of truncated JSON.
        atomic_write_json(BASELINE_PATH, payload)
        print(f"wrote {BASELINE_PATH}", file=sys.stderr)
    if args.check:
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check(payload, baseline)
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"OK: overlap modeled ratio "
            f"{payload['overlap_modeled_ratio']:.6f}",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------------
# pytest entry (collected by `pytest benchmarks/`)
# ----------------------------------------------------------------------


def test_overlap_modes_agree_and_never_slower_modeled(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, collect, 1)
    modes = payload["modes"]
    counts = {m["embeddings"] for m in modes.values()}
    assert len(counts) == 1, counts
    # The double-buffered model can only hide time, never add it.
    assert payload["overlap_modeled_ratio"] <= 1.0 + 1e-9
    # The worker count may not leak into the modeled domain.
    assert modes["process"]["modeled_seconds"] == (
        modes["overlapped"]["modeled_seconds"]
    )
    assert modes["process"]["pool"] == "process"
    assert modes["process"]["cst_plane"] == "shm"
    print(
        "\n" + ", ".join(
            f"{name}: {m['wall_seconds']:.3f} s" for name, m in modes.items()
        ) + f" ({payload['cpus']} cpus)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
