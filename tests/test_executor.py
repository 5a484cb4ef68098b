"""Overlapped/double-buffered partition executor tests.

Two headline properties:

* ``workers`` is invisible to everything except wall-clock time —
  embedding counts, result sets, modeled seconds, and the health
  record are bit-identical between inline and warm-pool execution
  for every FAST variant and the multi-FPGA runner, with and without
  an active fault plan, across a seed matrix;
* ``buffers=1`` reproduces the original flat overlap arithmetic
  exactly, and raising ``buffers`` can only lower modeled time.
"""

from __future__ import annotations

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.common.errors import DeadlineExceededError, DeviceError
from repro.common.io import read_jsonl
from repro.experiments.harness import HarnessConfig, make_context, tight_config
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import FastEngine
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.obs.logs import JsonLogger
from repro.runtime import stages
from repro.runtime.context import CancellationToken, RunContext
from repro.runtime.executor import (
    ExecutorConfig,
    dispatch_partitions,
    overlap_timeline,
)
from repro.runtime.faults import (
    HOST_FAULT_KINDS,
    FaultPlan,
    HostFaultPlan,
    RetryPolicy,
)
from repro.runtime.journal import RunJournal
from repro.runtime.pool import PoolConfig, WorkerPool
from repro.runtime.registry import REGISTRY

FAST_VARIANTS = (
    "fast-dram", "fast-basic", "fast-task", "fast-sep", "fast-share",
)
ALL_BACKENDS = FAST_VARIANTS + ("multi-fpga",)

#: Seed matrix; CI appends one more via REPRO_FAULT_SEED.
SEEDS = [3, 5, 11]
_env_seed = os.environ.get("REPRO_FAULT_SEED")
if _env_seed is not None and int(_env_seed) not in SEEDS:
    SEEDS.append(int(_env_seed))

#: Small device so DG-MICRO actually produces a stream of partitions.
STRESS_FPGA = FpgaConfig(bram_bytes=8 * 1024, batch_size=128,
                         max_ports=32)

_seconds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_segments = st.lists(st.tuples(_seconds, _seconds), max_size=30)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("DG-MICRO")


@pytest.fixture(scope="module")
def worker_pool():
    """One warm pool for the whole module, injected into every pooled
    context, so the suite forks its workers once instead of per case."""
    pool = WorkerPool(PoolConfig(workers=4))
    yield pool
    pool.close()


@pytest.fixture
def run_backend(worker_pool):
    def run(name, dataset, query="q0", *, workers=1, buffers=1,
            fpga=None, fault_plan=None, retry_policy=None, **kwargs):
        ctx = RunContext(
            fpga=fpga or STRESS_FPGA,
            fault_plan=fault_plan,
            retry_policy=retry_policy or RetryPolicy(),
            executor=ExecutorConfig(workers=workers, buffers=buffers),
        )
        if workers > 1:
            ctx.worker_pool = worker_pool  # injected: close() spares it
        q = get_query(query)
        try:
            return REGISTRY.get(name).run(
                ctx, q.graph, dataset.graph, **kwargs
            )
        finally:
            ctx.close()

    return run


def square(i):
    return i * i


def boom(i):
    raise ValueError(f"task {i}")


# ----------------------------------------------------------------------
# overlap_timeline properties
# ----------------------------------------------------------------------


class TestOverlapTimeline:
    @given(_segments)
    def test_single_buffer_is_the_flat_serial_sum(self, segments):
        """At buffers=1 the recurrence collapses to the exact
        left-to-right sum ``((acc + w) + k)`` — bit-identical, not
        merely approximately equal."""
        acc = 0.0
        for write_s, kernel_s in segments:
            acc = (acc + write_s) + kernel_s
        assert overlap_timeline(segments, buffers=1) == acc

    @given(_segments, st.integers(min_value=1, max_value=8))
    def test_monotone_non_increasing_in_buffers(self, segments, buffers):
        assert overlap_timeline(segments, buffers + 1) <= (
            overlap_timeline(segments, buffers)
        )

    @given(_segments, st.integers(min_value=2, max_value=8))
    def test_bounded_below_by_both_resources(self, segments, buffers):
        """No amount of staging beats the serialized transfers, nor the
        first transfer plus the serialized kernels."""
        if not segments:
            return
        t = overlap_timeline(segments, buffers)
        writes = 0.0
        for w, _ in segments:
            writes += w
        kernels = segments[0][0]
        for _, k in segments:
            kernels += k
        assert t >= min(writes, kernels)  # safe under rounding
        assert t >= segments[0][0]

    def test_empty_timeline_is_zero(self):
        assert overlap_timeline([], buffers=4) == 0.0

    def test_two_buffers_overlap_a_balanced_pipeline(self):
        # 3 equal segments: serial = 6; double-buffered = w + 3k + ...
        segments = [(1.0, 1.0)] * 3
        assert overlap_timeline(segments, 1) == 6.0
        assert overlap_timeline(segments, 2) == 4.0

    def test_rejects_zero_buffers(self):
        with pytest.raises(DeviceError):
            overlap_timeline([(1.0, 1.0)], buffers=0)


# ----------------------------------------------------------------------
# ExecutorConfig / dispatch_partitions mechanics
# ----------------------------------------------------------------------


class TestExecutorMechanics:
    @pytest.mark.parametrize("bad", [
        {"workers": 0}, {"buffers": 0}, {"watchdog_s": -1.0},
    ])
    def test_config_validates(self, bad):
        with pytest.raises(DeviceError):
            ExecutorConfig(**bad)

    def test_harness_names_only_the_process_pool(self):
        assert HarnessConfig(pool="process").pool == "process"
        with pytest.raises(DeviceError):
            HarnessConfig(pool="thread")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_come_back_in_task_order(self, workers,
                                             worker_pool):
        ctx = RunContext(executor=ExecutorConfig(workers=workers))
        ctx.worker_pool = worker_pool
        seen = {}
        facts = dispatch_partitions(
            ctx, [(square, (i,)) for i in range(50)], seen.__setitem__,
        )
        ctx.close()
        assert [seen[i] for i in range(50)] == [i * i for i in range(50)]
        assert facts["pool"] == ("inline" if workers == 1 else "process")

    def test_worker_exceptions_propagate(self, worker_pool):
        ctx = RunContext(executor=ExecutorConfig(workers=4))
        ctx.worker_pool = worker_pool
        with pytest.raises(ValueError, match="task"):
            dispatch_partitions(
                ctx, [(boom, (i,)) for i in range(8)],
                lambda i, value: None,
            )
        ctx.close()

    def test_pool_events_logged_without_tracing(self):
        """Supervision events reach the JSONL log whether or not the
        run is traced."""
        stream = io.StringIO()
        ctx = RunContext(
            executor=ExecutorConfig(workers=2), log=JsonLogger(stream),
        )
        plan = HostFaultPlan(
            rates={kind: 0.0 for kind in HOST_FAULT_KINDS},
            targets={"worker_kill": {1: 1}},
        )
        pool = WorkerPool(PoolConfig(workers=2, host_faults=plan))
        ctx.worker_pool = pool
        try:
            dispatch_partitions(
                ctx, [(square, (i,)) for i in range(4)],
                lambda i, value: None,
            )
        finally:
            ctx.close()
            pool.close()
        assert not ctx.tracer.enabled
        events = {
            json.loads(line)["event"]
            for line in stream.getvalue().splitlines()
        }
        assert {"pool_respawn", "pool_redispatch"} <= events


# ----------------------------------------------------------------------
# Determinism: workers must be invisible outside wall-clock time
# ----------------------------------------------------------------------


class TestWorkerDeterminism:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fault_free_counts_and_seconds_identical(self, backend,
                                                     dataset, run_backend):
        serial = run_backend(backend, dataset)
        pooled = run_backend(backend, dataset, workers=4)
        assert pooled.embeddings == serial.embeddings
        assert pooled.seconds == serial.seconds

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulty_runs_identical_incl_health(self, backend, seed,
                                               dataset, run_backend):
        kwargs = dict(fault_plan=FaultPlan(seed=seed))
        serial = run_backend(backend, dataset, "q2", **kwargs)
        pooled = run_backend(backend, dataset, "q2", workers=4, **kwargs)
        assert pooled.embeddings == serial.embeddings
        assert pooled.seconds == serial.seconds
        assert pooled.health == serial.health

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hot_ladder_identical_under_pool(self, seed, dataset,
                                             run_backend):
        """Re-partition and CPU-fallback rungs engage; event order and
        counts still match serial exactly."""
        kwargs = dict(
            fault_plan=FaultPlan(seed=seed,
                                 rates={"kernel_timeout": 0.5},
                                 max_consecutive=6),
            retry_policy=RetryPolicy(max_retries=1),
        )
        serial = run_backend("fast-share", dataset, "q2", **kwargs)
        pooled = run_backend("fast-share", dataset, "q2", workers=4,
                             **kwargs)
        assert serial.health["retries"] > 0
        assert pooled.embeddings == serial.embeddings
        assert pooled.seconds == serial.seconds
        assert pooled.health == serial.health

    def test_collected_results_identical(self, dataset, run_backend):
        serial = run_backend("fast-share", dataset,
                             collect_results=True)
        pooled = run_backend("fast-share", dataset, workers=4,
                             collect_results=True)
        assert pooled.raw.results == serial.raw.results

    @pytest.mark.parametrize("seed", SEEDS)
    def test_supervised_process_pool_runs_natively(self, seed, dataset,
                                                   run_backend):
        """The supervised ladder runs inside worker processes over the
        shared-memory CST plane and matches serial bit-identically,
        health record included."""
        kwargs = dict(fault_plan=FaultPlan(seed=seed))
        serial = run_backend("fast-share", dataset, "q2", **kwargs)
        forked = run_backend("fast-share", dataset, "q2", workers=2,
                             **kwargs)
        assert forked.embeddings == serial.embeddings
        assert forked.seconds == serial.seconds
        assert forked.health == serial.health
        assert serial.metrics["stages"]["execute"]["pool"] == "inline"
        execute = forked.metrics["stages"]["execute"]
        assert execute["pool"] == "process"
        assert execute["cst_plane"] == "shm"

    def test_cpu_share_partitions_go_through_the_pool(
        self, worker_pool, monkeypatch,
    ):
        """A high delta routes a real CPU share; it reaches the pool as
        one window per worker, and modeled seconds stay identical."""
        data = load_dataset("DG-MINI")
        cfg = tight_config(HarnessConfig(delta=0.4))
        q = get_query("q1")
        serial_ctx = make_context(cfg)
        serial = REGISTRY.get("fast-share").run(
            serial_ctx, q.graph, data.graph
        )
        fpga_windows = []
        dispatch = stages.dispatch_partitions

        def spy(ctx, tasks, on_result):
            fpga_windows.append(
                sum(fn is stages._run_window for fn, _ in tasks)
            )
            return dispatch(ctx, tasks, on_result)

        monkeypatch.setattr(stages, "dispatch_partitions", spy)
        pooled_cfg = tight_config(HarnessConfig(delta=0.4, workers=4))
        pooled_ctx = make_context(pooled_cfg)
        pooled_ctx.worker_pool = worker_pool
        pooled = REGISTRY.get("fast-share").run(
            pooled_ctx, q.graph, data.graph
        )
        pooled_ctx.close()
        cpu_csts = serial.metrics["stages"]["schedule"]["cpu_csts"]
        assert cpu_csts > 0
        assert pooled.embeddings == serial.embeddings
        assert pooled.seconds == serial.seconds
        execute = pooled.metrics["stages"]["execute"]
        assert execute["pool"] == "process"
        assert execute["pool_chunks"] == fpga_windows[0] + min(4, cpu_csts)


class TestLockstepInline:
    """Every FPGA task is a window of one device queue, inline and in
    the pool alike: its clean partitions launch in one
    ``FastEngine.run_many`` call and faulted ones walk the ladder.
    Nothing modeled may differ between ``workers`` 1 and 2."""

    def test_mixed_clean_and_faulted_match_the_pool(
        self, dataset, worker_pool, tmp_path, monkeypatch,
    ):
        windows = {}
        dispatch = stages.dispatch_partitions

        def spy(ctx, tasks, on_result):
            # A window task's eighth argument holds its partitions.
            windows[ctx.executor.workers] = [
                set(args[7]) for fn, args in tasks
                if fn is stages._run_window
            ]
            return dispatch(ctx, tasks, on_result)

        monkeypatch.setattr(stages, "dispatch_partitions", spy)
        plan = FaultPlan(seed=5, rates={"kernel_timeout": 0.3})
        outs, records = {}, {}
        for workers in (1, 2):
            path = tmp_path / f"workers{workers}.jsonl"
            ctx = RunContext(
                fpga=STRESS_FPGA, fault_plan=plan,
                executor=ExecutorConfig(workers=workers),
                journal=RunJournal(path),
            )
            if workers > 1:
                ctx.worker_pool = worker_pool
            try:
                outs[workers] = REGISTRY.run(
                    "fast-share", get_query("q2").graph, dataset.graph,
                    ctx=ctx, collect_results=True,
                )
            finally:
                ctx.journal.close()
                ctx.close()
            # Inline runs journal in index order, pool runs in
            # completion order: compare the records as a set.
            records[workers] = sorted(
                json.dumps(rec, sort_keys=True) for rec in read_jsonl(path)
            )
        inline, pooled = outs[1], outs[2]
        faulted = {e["scope"][1] for e in inline.health["fault_events"]}
        # One window inline; at workers 2 the queue splits in two, and
        # each half holds clean and faulted partitions.
        assert len(windows[1]) == 1 and len(windows[2]) == 2
        for window in windows[2]:
            assert window & faulted and window - faulted
        assert pooled.metrics["stages"]["execute"]["pool"] == "process"
        assert inline.embeddings == pooled.embeddings
        assert inline.raw.results == pooled.raw.results
        assert inline.seconds == pooled.seconds
        assert inline.health == pooled.health
        assert records[1] == records[2]

    def test_cancellation_prefix_matches_the_pool(self, dataset, tmp_path):
        """on_done journals and checks the deadline once per partition
        of a window, so pooled windows cancel at the inline run's
        partition prefix with the same partition records journaled. A
        one-process pool completes the two windows in queue order,
        which makes the journals comparable record for record."""
        plan = FaultPlan(seed=5, rates={"kernel_timeout": 0.3})
        query = get_query("q2").graph
        baseline = REGISTRY.run(
            "fast-share", query, dataset.graph,
            ctx=RunContext(fpga=STRESS_FPGA, fault_plan=plan),
        )
        execute = baseline.metrics["stages"]["execute"]
        budget = baseline.seconds - execute["modeled_seconds"] / 2
        pool = WorkerPool(PoolConfig(workers=1))
        messages, records = {}, {}
        try:
            for workers in (1, 2):
                path = tmp_path / f"workers{workers}.jsonl"
                ctx = RunContext(
                    fpga=STRESS_FPGA, fault_plan=plan,
                    executor=ExecutorConfig(workers=workers),
                    journal=RunJournal(path),
                    cancellation=CancellationToken(budget),
                )
                if workers > 1:
                    ctx.worker_pool = pool
                try:
                    with pytest.raises(DeadlineExceededError,
                                       match="execute") as cancelled:
                        REGISTRY.run("fast-share", query, dataset.graph,
                                     ctx=ctx)
                finally:
                    ctx.journal.close()
                    ctx.close()
                messages[workers] = str(cancelled.value)
                records[workers] = [
                    rec for rec in read_jsonl(path)
                    if rec["type"] == "partition"
                ]
        finally:
            pool.close()
        assert messages[1] == messages[2]
        assert records[1] == records[2]
        assert 0 < len(records[1]) < execute["num_csts"]

    def test_cancellation_prefix_ignores_window_landing_order(
        self, dataset, monkeypatch,
    ):
        """Windows that land out of queue order cancel at the in-order
        partition prefix, because the budget is checked after each
        single advance of the prefix. A dispatcher stub runs the four
        windows of ``workers`` 4 and delivers them in queue order, then
        in reverse; the budget lands inside the execute stage."""
        query = get_query("q2").graph
        baseline = REGISTRY.run("fast-share", query, dataset.graph,
                                ctx=RunContext(fpga=STRESS_FPGA))
        execute = baseline.metrics["stages"]["execute"]
        budget = baseline.seconds - 0.3 * execute["modeled_seconds"]

        def landing(order):
            def dispatch(ctx, tasks, on_result):
                results = [fn(*args) for fn, args in tasks]
                for i in order(range(len(tasks))):
                    on_result(i, results[i])
                return {"pool": "inline", "cst_plane": "local"}
            return dispatch

        messages = {}
        for name, order in (("in order", list), ("reversed", reversed)):
            monkeypatch.setattr(stages, "dispatch_partitions", landing(order))
            ctx = RunContext(
                fpga=STRESS_FPGA, executor=ExecutorConfig(workers=4),
                cancellation=CancellationToken(budget),
            )
            try:
                with pytest.raises(DeadlineExceededError,
                                   match="execute partition prefix") as out:
                    REGISTRY.run("fast-share", query, dataset.graph,
                                 ctx=ctx)
            finally:
                ctx.close()
            messages[name] = str(out.value)
        assert messages["reversed"] == messages["in order"]

    def test_deadline_stops_within_one_window(
        self, dataset, tmp_path, monkeypatch,
    ):
        """Clean partitions launch one window at a time, so a deadline
        halfway through the queue cancels before later windows launch,
        with every launched partition but the rest of the last window
        journaled."""
        launched = []
        launch_many = FastEngine.run_many

        def spy(self, parts, members, *args, **kwargs):
            launched.append(len(members))
            return launch_many(self, parts, members, *args, **kwargs)

        monkeypatch.setattr(FastEngine, "run_many", spy)
        monkeypatch.setattr(FastEngine, "lockstep_window",
                            lambda self, plan: 2)
        query = get_query("q2").graph
        baseline = REGISTRY.run("fast-sep", query, dataset.graph,
                                ctx=RunContext(fpga=STRESS_FPGA))
        execute = baseline.metrics["stages"]["execute"]
        assert sum(launched) == execute["num_csts"] > 4
        launched.clear()
        path = tmp_path / "deadline.jsonl"
        ctx = RunContext(
            fpga=STRESS_FPGA, journal=RunJournal(path),
            cancellation=CancellationToken(
                baseline.seconds - execute["modeled_seconds"] / 2
            ),
        )
        try:
            with pytest.raises(DeadlineExceededError, match="execute"):
                REGISTRY.run("fast-sep", query, dataset.graph, ctx=ctx)
        finally:
            ctx.journal.close()
            ctx.close()
        journaled = len(read_jsonl(path)) - 1
        assert 0 < journaled <= sum(launched) < journaled + 2
        assert sum(launched) < execute["num_csts"]


# ----------------------------------------------------------------------
# Modeled overlap: buffers only ever help, buffers=1 is the old model
# ----------------------------------------------------------------------


class TestModeledOverlap:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_single_buffer_matches_legacy_model(self, backend, dataset,
                                                run_backend):
        """workers never perturb the buffers=1 model."""
        legacy = run_backend(backend, dataset)
        pooled = run_backend(backend, dataset, workers=4, buffers=1)
        assert pooled.seconds == legacy.seconds

    @pytest.mark.parametrize("name", ["DG-MICRO", "DG-MINI", "DG01"])
    def test_double_buffering_never_slower(self, name):
        """Table-3 datasets: modeled time with buffers=2 is <= the
        serial overlap model."""
        data = load_dataset(name)
        q = get_query("q1")
        serial = REGISTRY.get("fast-share").run(
            make_context(tight_config(HarnessConfig())),
            q.graph, data.graph,
        )
        overlapped = REGISTRY.get("fast-share").run(
            make_context(tight_config(HarnessConfig(buffers=2))),
            q.graph, data.graph,
        )
        assert overlapped.embeddings == serial.embeddings
        assert overlapped.seconds <= serial.seconds

    def test_more_buffers_monotone_on_real_run(self, dataset,
                                               run_backend):
        times = []
        for buffers in (1, 2, 4):
            out = run_backend("fast-share", dataset, "q1",
                              buffers=buffers)
            times.append(out.seconds)
        assert times[1] <= times[0]
        assert times[2] <= times[1]

    def test_fpga_seconds_reported_in_stage_metrics(self, dataset,
                                                    run_backend):
        out = run_backend("fast-share", dataset, buffers=2, workers=2)
        execute = out.metrics["stages"]["execute"]
        assert execute["buffers"] == 2
        assert execute["workers"] == 2
        assert execute["fpga_seconds"] > 0.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_overlap_composes_with_faults(self, seed, dataset,
                                          run_backend):
        """Double-buffering under a fault plan: counts stay exact and
        the overlapped model never exceeds the flat one."""
        kwargs = dict(fault_plan=FaultPlan(seed=seed))
        flat = run_backend("fast-share", dataset, "q2", **kwargs)
        piped = run_backend("fast-share", dataset, "q2", buffers=2,
                            workers=4, **kwargs)
        assert piped.embeddings == flat.embeddings
        assert piped.seconds <= flat.seconds


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------


class TestCliFlags:
    def test_match_accepts_workers_and_buffers(self, capsys):
        rc = cli_main([
            "match", "--dataset", "DG-MICRO", "--query", "q0",
            "--workers", "4", "--buffers", "2",
        ])
        assert rc == 0
        assert "embeddings" in capsys.readouterr().out

    def test_compare_accepts_workers_and_buffers(self, capsys):
        rc = cli_main([
            "compare", "--dataset", "DG-MICRO", "--query", "q0",
            "--algorithms", "FAST", "FAST-SEP",
            "--workers", "2", "--buffers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAST" in out


# Quiet hypothesis's shrink deadline on the CI's slower runners.
settings.register_profile("executor", deadline=None)
settings.load_profile("executor")
