"""Outside-in spans around the program's public layer entries.

The traced run patches each entry where its caller binds it (a stage
function in :mod:`repro.host.runtime`, ``build_cst`` in
:mod:`repro.runtime.stages`, ``FastEngine.run`` on its class, ...)
with a wrapper that times the call and records its self time: its
duration minus the part covered by wrapped calls nested inside it.
Nothing inside the program changes, and timed runs install nothing.

Spans of the parent process only: a pool worker forked before the
patches are installed runs the unwrapped kernel, so on ``serve`` the
kernel's share shows as ``execute_stage`` time plus worker CPU.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

#: Stage function in ``repro.host.runtime`` -> RunMetrics stage name.
STAGE_FUNCTIONS = {
    "plan_stage": "plan",
    "build_cst_stage": "build_cst",
    "partition_stage": "partition",
    "schedule_stage": "schedule",
    "execute_stage": "execute",
    "merge_stage": "merge",
}


@dataclass
class LayerStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class _Open:
    name: str
    children: float = 0.0
    by_name: Counter = field(default_factory=Counter)


class SpanRecorder:
    """Per-layer call counts, inclusive and self seconds, and facts.

    Only the serving thread enters wrapped code (the load generator
    never does), so one stack of open spans is enough.
    """

    def __init__(self) -> None:
        self.layers: dict[str, LayerStat] = {}
        self.facts: Counter = Counter()
        #: Seconds of the first call of each layer (setup probes).
        self.first: dict[str, float] = {}
        #: Backend-run seconds per op tag (a serve request id).
        self.service: dict[Any, float] = {}
        #: Summed (stage span - RunMetrics stage wall) per stage.
        self.stage_gap: Counter = Counter()
        self.tag: Any = None
        self._stack: list[_Open] = []

    def _close(self, node: _Open, seconds: float) -> None:
        stat = self.layers.setdefault(node.name, LayerStat())
        stat.calls += 1
        stat.total += seconds
        stat.self_time += seconds - node.children
        self.first.setdefault(node.name, seconds)
        if self._stack:
            parent = self._stack[-1]
            parent.children += seconds
            parent.by_name[node.name] += seconds

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as layer ``name``."""
        node = _Open(name)
        self._stack.append(node)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            seconds = time.perf_counter() - t0
            self._stack.pop()
            self._close(node, seconds)

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["SpanRecorder", _Open, float, tuple, Any], None]
        | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = _Open(name)
            self._stack.append(node)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._stack.pop()
                self._close(node, seconds)
            if observe is not None:
                observe(self, node, seconds, args, result)
            return result

        return wrapper

    def stat(self, name: str) -> LayerStat:
        return self.layers.get(name, LayerStat())


# -- facts read off return values --------------------------------------


def _partition_cst_facts(rec, node, seconds, args, stats) -> None:
    rec.facts["cst.partition.parts"] += stats.num_partitions
    rec.facts["cst.partition.splits"] += stats.num_splits


def _partition_list_facts(rec, node, seconds, args, result) -> None:
    _partition_cst_facts(rec, node, seconds, args, result[1])


def _scheduler_facts(rec, node, seconds, args, work) -> None:
    rec.facts["host.scheduler.cpu_parts"] += len(work.cpu_parts)


def _engine_facts(rec, node, seconds, args, report) -> None:
    rec.facts["fpga.engine.rounds"] += report.rounds


def _runner_facts(rec, node, seconds, args, result) -> None:
    # A served job runs under its request id; a closed-loop op under
    # the tag the benchmark set.
    ctx = args[0].context
    request = ctx.tracer.request_id if ctx is not None else None
    rec.service[rec.tag if request is None else request] = seconds
    for fn_name, stage in STAGE_FUNCTIONS.items():
        st = result.metrics.stages.get(stage)
        if st is not None:
            rec.stage_gap[stage] += node.by_name[fn_name] - st.wall_seconds


def _batch_facts(rec, node, seconds, args, batch) -> None:
    rec.facts["serve.batches"] += 1
    rec.facts["serve.batch_jobs"] += len(batch)


# -- patch sets ---------------------------------------------------------

#: (module, attribute path, layer name, observer). The attribute is
#: replaced where the calling code looks it up.
LAYER_PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    *(
        ("repro.host.runtime", fn, fn,
         _scheduler_facts if fn == "partition_stage" else None)
        for fn in STAGE_FUNCTIONS
    ),
    ("repro.host.runtime", "FastRunner.run", "host.runtime", _runner_facts),
    ("repro.runtime.stages", "build_cst", "cst.builder", None),
    ("repro.runtime.stages", "partition_cst", "cst.partition",
     _partition_cst_facts),
    ("repro.runtime.stages", "partition_to_list", "cst.partition",
     _partition_list_facts),
    ("repro.runtime.stages", "cst_embeddings", "host.cpu_matcher", None),
    # Algorithm 3 and its workload estimate. On fast-share they run
    # inside partition_cst (its sink and oversized-CST intercept), so
    # without these spans they would count as partitioning.
    ("repro.host.scheduler", "WorkloadScheduler.assign", "host.scheduler",
     None),
    ("repro.host.scheduler", "WorkloadScheduler.would_accept_cpu",
     "host.scheduler", None),
    ("repro.runtime.stages", "estimate_workload", "host.scheduler", None),
    ("repro.fpga.engine", "FastEngine.run", "fpga.engine", _engine_facts),
    ("repro.runtime.pool", "WorkerPool.run", "runtime.pool", None),
    ("repro.runtime.journal", "RunJournal.append", "runtime.journal", None),
    ("repro.serve.server", "fsync_append", "runtime.journal", None),
    ("repro.serve.server", "MatchServer._take_batch", "serve.batch",
     _batch_facts),
    ("repro.serve.server", "MatchServer._run_job", "op", None),
)

#: Set-up probes: dataset generation inside the server, and the pool's
#: first dispatch (fork through first completed chunk).
SETUP_PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.serve.server", "load_dataset", "ldbc.generate", None),
    ("repro.runtime.pool", "WorkerPool.run", "runtime.pool.start", None),
)


class Patches:
    """Install a patch set on a recorder; restore on exit."""

    def __init__(self, recorder: SpanRecorder, table) -> None:
        self.recorder = recorder
        self.table = table
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanRecorder:
        for module_name, path, layer, observe in self.table:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(layer, original, observe))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
