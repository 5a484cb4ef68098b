"""The two workloads: ``shatter`` and ``serve``.

Each workload runs one op shape, so a run's ops are samples of one
distribution, and runs a fixed number of ops derived from
``--seconds``, so a faster program finishes sooner instead of doing
more work. Every op is checked against the embedding count and modeled
seconds pinned below for its (dataset, query, device) class; a
mismatch, an exception from the program, or a ``SHED``, ``FATAL`` or
``DEADLINE`` response counts as a failed op. Why each workload exists
is recorded in NOTES.md.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from procstat import (
    host_probe,
    host_probes,
    worker_cpu_delta,
    worker_cpu_seconds,
)
from repro.common.errors import ReproError
from repro.experiments.harness import HarnessConfig, make_context, tight_config
from repro.fpga.config import FpgaConfig
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.registry import REGISTRY
from repro.serve.server import MatchServer, ServeConfig

BACKEND = "fast-share"

#: 4 KB of BRAM and a 4-port Edge Validator shatter DG-MINI/q1 into
#: ~1.5k partitions (the ``bench_pipeline_overlap`` device).
SHATTER_DEVICE = FpgaConfig(bram_bytes=4 * 1024, batch_size=16, max_ports=4)

#: (dataset, query, device) class -> (embeddings, modeled seconds).
#: Counts agree with the brute-force oracle (test_perfbench.py); the
#: modeled seconds are the simulator's, deterministic and exact.
EXPECTED: dict[tuple[str, str, str], tuple[int, float]] = {
    ("DG-MINI", "q1", "shatter"): (4051, 0.002463923952380951),
    ("DG-MINI", "q0", "tight-b2"): (6540, 0.00045072985714285715),
    ("DG-MINI", "q3", "tight-b2"): (773, 0.0004757128095238095),
    ("DG-MINI", "q5", "tight-b2"): (14728, 0.0006653221904761905),
    ("DG-MINI", "q7", "tight-b2"): (131, 0.0007739859285714286),
    ("DG-SMALL", "q0", "tight-b2"): (9684, 0.0009389043333333333),
    ("DG-SMALL", "q3", "tight-b2"): (1217, 0.0007785380476190477),
}

#: The serve request classes. Warm service times sit within about 2x
#: of each other, so one op shape still describes the mix.
SERVE_CLASSES = (
    ("DG-MINI", "q0"), ("DG-MINI", "q3"), ("DG-MINI", "q5"),
    ("DG-MINI", "q7"), ("DG-SMALL", "q0"), ("DG-SMALL", "q3"),
)

#: Open-loop arrival rate of ``serve``, about half the capacity
#: measured on a 2-CPU host (see NOTES.md for why not higher).
SERVE_RATE = 2.5
#: Admission capacity in modeled seconds: ~50x the modeled cost of
#: the dearest class, so nothing sheds at SERVE_RATE.
SERVE_CAPACITY_S = 0.05
#: Delay from the generator's start to the first request's due time.
SERVE_LEAD_S = 0.05

#: The idle server probes the host's speed only when its next request
#: is due at least this far ahead, so that a probe never delays one.
PROBE_GAP_S = 0.1


@dataclass
class Phase:
    """What one timed phase did."""

    #: Op tag (index or request id) -> latency seconds, completed ops.
    latency: dict = field(default_factory=dict)
    #: Op tag -> (dataset, query) class of the op.
    cls: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: First op start (or first due time) to last op completion.
    wall: float = 0.0
    #: Seconds the program was working on ops: the summed op times on
    #: the closed loop; on the open loop, the server's run minus its
    #: blocking reads of its input (and the probes made while idle).
    busy: float = 0.0
    #: CPU of this process and every pool worker over the ops, probes
    #: excluded.
    cpu: float = 0.0
    #: CPU of the pool workers alone over the phase.
    worker_cpu: float = 0.0
    #: Modeled seconds of each op that passed the check.
    modeled: list[float] = field(default_factory=list)
    #: Generator lateness (send time - due time), open loop only.
    late: list[float] = field(default_factory=list)
    #: Host-speed probe seconds taken during and around the phase.
    probes: list[float] = field(default_factory=list)
    #: Program counters over the phase (cache, pool, tracer, ...).
    counters: dict = field(default_factory=dict)


def _check(cls: tuple[str, str, str], embeddings, modeled) -> bool:
    return (embeddings, modeled) == EXPECTED[cls]


class ClosedLoop:
    """One caller, one (dataset, query) class, inline execute.

    Each op builds a fresh ``RunContext``, so it pays the whole
    pipeline as a one-shot ``repro match`` does.
    """

    def __init__(
        self, name: str, dataset: str, query: str, device: FpgaConfig,
        nominal_op_s: float,
    ) -> None:
        self.cls = (dataset, query, name)
        self.config = HarnessConfig(fpga=device, use_cache=False)
        self.nominal_op_s = nominal_op_s

    def n_ops(self, seconds: float) -> int:
        return max(3, round(seconds / self.nominal_op_s))

    def setup(self, rec=None):
        dataset, query, _ = self.cls
        with rec.span("ldbc.generate") if rec else nullcontext():
            data = load_dataset(dataset, use_cache=False)
        state = (data, get_query(query), REGISTRY.get(BACKEND))
        warm = self._op(state)
        return state, _check(self.cls, warm.embeddings, warm.seconds)

    def _op(self, state):
        data, query, spec = state
        ctx = make_context(self.config)
        try:
            return spec.run(ctx, query.graph, data.graph)
        finally:
            ctx.close()

    def timed(self, state, n: int, seed: int, rec=None, tag: str = "") -> Phase:
        phase = Phase(attempted=n)
        hits = misses = 0
        start = time.perf_counter()
        for i in range(n):
            phase.probes += host_probes()
            if rec is not None:
                rec.tag = i
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with rec.span("op") if rec else nullcontext():
                    out = self._op(state)
            except ReproError:
                out = None
            seconds = time.perf_counter() - t0
            phase.busy += seconds
            phase.cpu += time.process_time() - c0
            if out is None or not _check(self.cls, out.embeddings, out.seconds):
                phase.failed += 1
                continue
            phase.latency[i] = seconds
            phase.cls[i] = self.cls[:2]
            phase.modeled.append(out.seconds)
            cst = out.metrics["cache"].get("cst", {})
            hits += cst.get("hits", 0)
            misses += cst.get("misses", 0)
        phase.probes += host_probes()
        phase.wall = time.perf_counter() - start
        phase.counters = {"cst_hits": hits, "cst_misses": misses}
        return phase

    def close(self, state) -> None:
        pass


class _TimedReader:
    """The server's end of the request pipe. A read that blocks is the
    server waiting for work, so the time spent in reads is idle time.
    While idle, the server thread also probes the host's speed."""

    def __init__(self, stream, due: list[float], probes: list[float]) -> None:
        self.stream = stream
        self.due = due
        self.probes = probes
        self.idle = 0.0
        #: CPU the probes burned, which is not the server's.
        self.probe_cpu = 0.0
        self.lines = 0

    def fileno(self) -> int:
        return self.stream.fileno()

    def readline(self) -> str:
        t0 = time.perf_counter()
        if self.lines < len(self.due) and (
            self.due[self.lines] - t0 > PROBE_GAP_S
        ):
            c0 = time.process_time()
            self.probes.append(host_probe())
            self.probe_cpu += time.process_time() - c0
        line = self.stream.readline()
        self.idle += time.perf_counter() - t0
        if line:
            self.lines += 1
        return line


class _Sink:
    """Response stream of the server: timestamps each response by id."""

    def __init__(self) -> None:
        self.at: dict[str, float] = {}
        self.responses: dict[str, dict] = {}

    def write(self, text: str) -> int:
        now = time.perf_counter()
        for line in text.splitlines():
            if line.strip():
                response = json.loads(line)
                self.at[response["id"]] = now
                self.responses[response["id"]] = response
        return len(text)

    def flush(self) -> None:
        pass


def _generate(wfd: int, lines: list[bytes], due: list[float],
              sent: list[float]) -> None:
    """Write each request line at its due time, then close the pipe."""
    try:
        for i, line in enumerate(lines):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            os.write(wfd, line)
            sent[i] = time.perf_counter()
    except BrokenPipeError:
        pass  # the server stopped reading; the harness reports it
    finally:
        os.close(wfd)


@dataclass
class _ServeState:
    server: MatchServer
    sink: _Sink
    state_dir: str


class Serve:
    """An in-process ``MatchServer`` fed through a pipe, the path
    ``repro serve`` takes on stdin, by an open-loop generator thread."""

    def __init__(self, state_root: Path) -> None:
        self.state_root = state_root
        self.harness = replace(
            tight_config(HarnessConfig(use_cache=False)),
            workers=2, buffers=2, pool="process",
        )

    def n_ops(self, seconds: float) -> int:
        per_round = len(SERVE_CLASSES)
        return per_round * max(1, round(seconds * SERVE_RATE / per_round))

    def setup(self, rec=None):
        self.state_root.mkdir(parents=True, exist_ok=True)
        state_dir = tempfile.mkdtemp(prefix="serve-", dir=self.state_root)
        try:
            server = MatchServer(ServeConfig(
                backend=BACKEND,
                capacity_s=SERVE_CAPACITY_S,
                state_dir=state_dir,
                trace=True,
                harness=self.harness,
            ))
        except BaseException:
            shutil.rmtree(state_dir, ignore_errors=True)
            raise
        state = _ServeState(server, _Sink(), state_dir)
        try:
            # Every class once: loads both datasets, forks the pool,
            # fills the CST cache and teaches admission the costs.
            warm = [
                json.dumps({"id": f"warm{i}", "dataset": d, "query": q})
                for i, (d, q) in enumerate(SERVE_CLASSES)
            ]
            server.run(warm, state.sink)
            ok = all(
                self._passes(state.sink.responses.get(f"warm{i}"), d, q)
                for i, (d, q) in enumerate(SERVE_CLASSES)
            )
        except BaseException:
            self.close(state)
            raise
        return state, ok

    @staticmethod
    def _passes(response, dataset: str, query: str) -> bool:
        return (
            response is not None
            and response["status"] == "OK"
            and _check(
                (dataset, query, "tight-b2"),
                response.get("embeddings"), response.get("modeled_seconds"),
            )
        )

    def _counters(self, server: MatchServer) -> dict:
        cst = server.cache.stats().get("cst", {})
        pool = server._pool.stats if server._pool is not None else None
        tracer = server.tracer
        return {
            "cst_hits": cst.get("hits", 0),
            "cst_misses": cst.get("misses", 0),
            "pool_chunks": pool.chunks if pool else 0,
            "pool_retries": (
                pool.respawns + pool.redispatches + pool.hedges
                + pool.quarantines + pool.shm_fallbacks
            ) if pool else 0,
            "tracer_events": len(tracer.spans) + len(tracer.instants),
            "shed": server.admission.decisions.get("shed", 0),
        }

    def timed(self, state: _ServeState, n: int, seed: int, rec=None,
              tag: str = "") -> Phase:
        # A balanced multiset of classes in a seeded order: the mix is
        # the same on every seed, the arrival sequence is not.
        classes = list(SERVE_CLASSES) * (n // len(SERVE_CLASSES))
        random.Random(seed).shuffle(classes)
        ids = [f"{tag}{i:05d}" for i in range(n)]
        lines = [
            (json.dumps({"id": rid, "dataset": d, "query": q}) + "\n").encode()
            for rid, (d, q) in zip(ids, classes)
        ]
        before = self._counters(state.server)
        probes = host_probes()
        cpu0 = time.process_time()
        workers0 = worker_cpu_seconds()
        rfd, wfd = os.pipe()
        start = time.perf_counter() + SERVE_LEAD_S
        due = [start + i / SERVE_RATE for i in range(n)]
        reader = _TimedReader(os.fdopen(rfd, "r", encoding="utf-8"), due, probes)
        sent = [0.0] * n
        thread = threading.Thread(
            target=_generate, args=(wfd, lines, due, sent), name="loadgen",
        )
        thread.start()
        t_run = time.perf_counter()
        try:
            state.server.run(reader, state.sink)
            busy = time.perf_counter() - t_run - reader.idle
        finally:
            reader.stream.close()
            thread.join()
        worker_cpu = worker_cpu_delta(workers0, worker_cpu_seconds())
        cpu = time.process_time() - cpu0 - reader.probe_cpu + worker_cpu
        after = self._counters(state.server)
        probes += host_probes()

        phase = Phase(attempted=n, busy=busy, cpu=cpu, worker_cpu=worker_cpu,
                      probes=probes)
        phase.counters = {k: after[k] - before[k] for k in after}
        phase.late = [s - d for s, d in zip(sent, due)]
        last = start
        for rid, (d, q), t_due in zip(ids, classes, due):
            response = state.sink.responses.get(rid)
            if not self._passes(response, d, q):
                phase.failed += 1
                continue
            done = state.sink.at[rid]
            phase.latency[rid] = done - t_due
            phase.cls[rid] = (d, q)
            phase.modeled.append(response["modeled_seconds"])
            last = max(last, done)
        phase.wall = last - start
        return phase

    def close(self, state: _ServeState) -> None:
        try:
            state.server.close()
        finally:
            shutil.rmtree(state.state_dir, ignore_errors=True)


def make_workloads(state_root: Path) -> dict:
    return {
        "shatter": ClosedLoop(
            "shatter", "DG-MINI", "q1", SHATTER_DEVICE, nominal_op_s=1.25,
        ),
        "serve": Serve(state_root),
    }
