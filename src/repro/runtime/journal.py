"""Crash-safe run journal and device-health ledger.

Every CST partition is a complete, independently matchable search
space (paper Definition 2), which the robustness layer exploits for
recovery and the executor for concurrency. This module exploits it for
*durability*:

:class:`RunJournal`
    A write-ahead, append-only JSONL journal of one run's execute
    stage. The header pins a deterministic **run fingerprint** (query
    + dataset + backend + deltas + fault seed + executor config); each
    completed :class:`~repro.runtime.executor.PartitionOutcome` is
    appended as one durable record (single ``os.write`` + fsync, see
    :func:`repro.common.io.fsync_append`), so a SIGKILL never leaves a
    corrupt journal — at worst a torn final line, which loading
    discards. On resume the execute stage replays completed partitions
    bit-identically (counts, modeled seconds, fault events) and
    dispatches only the remaining worklist. The fault supervisor
    additionally journals ``ladder`` records at each rung decision, so
    a resumed run continues a partition's degradation ladder instead
    of restarting it.

:class:`DeviceHealthLedger`
    A small persistent accumulation of
    :class:`~repro.runtime.faults.HealthReport` history across runs,
    keyed by device index. The scheduler consumes it to steer
    partitions away from devices with high observed timeout/PCIe-error
    rates (multi-FPGA placement inflates a flaky device's effective
    load) and to pre-shrink the effective ``delta_S`` of partitions
    bound for degraded devices (smaller pieces, shorter kernel
    residency). Persisted with
    :func:`~repro.common.io.atomic_write_json`.

Journal format and resume semantics are documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.common.errors import JournalError, JournalMismatchError
from repro.common.io import (
    atomic_write_json,
    file_lock,
    fsync_append,
    read_jsonl,
)
from repro.fpga.report import KernelReport
from repro.graph.graph import Graph
from repro.host.cpu_matcher import CpuMatchCounters
from repro.runtime.executor import PartitionOutcome
from repro.runtime.faults import DEVICE_DEAD, FaultEvent, HealthReport

#: Journal schema version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Environment hook for crash-safety tests: after this many appended
#: records the journal SIGKILLs its own process mid-run.
CRASH_AFTER_ENV = "REPRO_JOURNAL_CRASH_AFTER"


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


def graph_digest(graph: Graph) -> str:
    """Stable content digest of a graph's CSR arrays and labels."""
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices, graph.labels):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def run_fingerprint(
    ctx: Any,
    plan: Any,
    data: Graph,
    engine_variant: str,
    work_shape: tuple[int, int, int],
    buffers: int,
    collect_results: bool,
    extra: tuple = (),
) -> str:
    """Deterministic fingerprint of everything a resumed run must match.

    Covers the query/data content, backend and engine variant, the
    matching order, delta threshold, device and cost-model
    configuration, retry policy, fault schedule, the modeled overlap
    depth (``buffers`` changes modeled seconds; ``workers`` does not
    and is deliberately excluded), and the partition worklist shape
    ``(fpga_parts, cpu_parts, total_bytes)``. Anything that could
    change a replayed count or modeled second is in here.
    """
    fplan = ctx.fault_plan
    fault_desc = None
    if fplan is not None:
        fault_desc = (
            fplan.seed,
            tuple(sorted(fplan.rates.items())),
            fplan.max_consecutive,
            tuple(sorted(fplan.dead_devices)),
        )
    items = (
        "fast-journal-v1",
        ctx.current_metrics.backend,
        engine_variant,
        graph_digest(plan.query.graph),
        graph_digest(data),
        tuple(plan.order),
        float(ctx.delta),
        repr(ctx.fpga),
        repr(ctx.cpu_cost),
        repr(ctx.retry_policy),
        fault_desc,
        int(buffers),
        bool(collect_results),
        tuple(int(x) for x in work_shape),
        tuple(extra),
    )
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Record (de)serialization
# ----------------------------------------------------------------------


def report_to_dict(report: KernelReport) -> dict[str, Any]:
    """JSON-safe encoding of one kernel report."""
    out: dict[str, Any] = {
        "variant": report.variant,
        "clock_mhz": report.clock_mhz,
        "compute_cycles": report.compute_cycles,
        "load_cycles": report.load_cycles,
        "flush_cycles": report.flush_cycles,
        "slr_crossing_cycles": report.slr_crossing_cycles,
        "rounds": report.rounds,
        "total_partials": report.total_partials,
        "total_edge_tasks": report.total_edge_tasks,
        "total_pops": report.total_pops,
        "embeddings": report.embeddings,
        "num_csts": report.num_csts,
        "buffer_peaks": {str(k): v for k, v in report.buffer_peaks.items()},
    }
    if report.results is not None:
        out["results"] = [list(r) for r in report.results]
    if report.module_spans is not None:
        out["module_spans"] = [
            [lane, start, end] for lane, start, end in report.module_spans
        ]
    return out


def report_from_dict(payload: Mapping[str, Any]) -> KernelReport:
    """Inverse of :func:`report_to_dict` (bit-identical round trip)."""
    results = payload.get("results")
    module_spans = payload.get("module_spans")
    return KernelReport(
        module_spans=(
            None if module_spans is None
            else [(lane, start, end) for lane, start, end in module_spans]
        ),
        variant=payload["variant"],
        clock_mhz=payload["clock_mhz"],
        compute_cycles=payload["compute_cycles"],
        load_cycles=payload["load_cycles"],
        flush_cycles=payload["flush_cycles"],
        slr_crossing_cycles=payload.get("slr_crossing_cycles", 0.0),
        rounds=payload["rounds"],
        total_partials=payload["total_partials"],
        total_edge_tasks=payload["total_edge_tasks"],
        total_pops=payload["total_pops"],
        embeddings=payload["embeddings"],
        num_csts=payload["num_csts"],
        buffer_peaks={
            int(k): v for k, v in payload.get("buffer_peaks", {}).items()
        },
        results=(
            None if results is None else [tuple(r) for r in results]
        ),
    )


def event_from_dict(payload: Mapping[str, Any]) -> FaultEvent:
    """Inverse of :meth:`FaultEvent.to_dict`."""
    return FaultEvent(
        kind=payload["kind"],
        scope=tuple(payload["scope"]),
        attempt=payload["attempt"],
        action=payload["action"],
        backoff_seconds=payload.get("backoff_seconds", 0.0),
        device=payload.get("device"),
    )


def counters_to_dict(counters: CpuMatchCounters) -> dict[str, int]:
    return {
        "recursive_calls": counters.recursive_calls,
        "extensions_generated": counters.extensions_generated,
        "edge_checks": counters.edge_checks,
        "embeddings": counters.embeddings,
    }


def counters_from_dict(payload: Mapping[str, int]) -> CpuMatchCounters:
    return CpuMatchCounters(
        recursive_calls=payload["recursive_calls"],
        extensions_generated=payload["extensions_generated"],
        edge_checks=payload["edge_checks"],
        embeddings=payload["embeddings"],
    )


def outcome_to_record(
    index: int, outcome: PartitionOutcome, keep_results: bool
) -> dict[str, Any]:
    """One ``partition`` journal record for a completed outcome."""
    return {
        "type": "partition",
        "index": index,
        "reports": [report_to_dict(r) for r in outcome.reports],
        "segments": [[w, k] for w, k in outcome.segments],
        "pcie_seconds": outcome.pcie_seconds,
        "overhead_seconds": outcome.overhead_seconds,
        "host_overhead_seconds": outcome.host_overhead_seconds,
        "backoff_wall_seconds": outcome.backoff_wall_seconds,
        "events": [e.to_dict() for e in outcome.events],
        "fallbacks": [
            {
                "embeddings": len(found),
                "counters": counters_to_dict(counters),
                "results": (
                    [list(r) for r in found] if keep_results else None
                ),
            }
            for found, counters in outcome.fallbacks
        ],
    }


def outcome_from_record(payload: Mapping[str, Any]) -> PartitionOutcome:
    """Rebuild a :class:`PartitionOutcome` from its journal record.

    Fallback embedding lists are reconstructed from stored results
    when present; otherwise placeholders of the recorded length stand
    in (only their length feeds the count, and results are stored
    whenever the run collects them — enforced via the fingerprint).
    """
    out = PartitionOutcome()
    out.reports = [report_from_dict(r) for r in payload["reports"]]
    out.segments = [(w, k) for w, k in payload["segments"]]
    out.pcie_seconds = payload["pcie_seconds"]
    out.overhead_seconds = payload["overhead_seconds"]
    out.host_overhead_seconds = payload["host_overhead_seconds"]
    out.backoff_wall_seconds = payload["backoff_wall_seconds"]
    out.events = [event_from_dict(e) for e in payload["events"]]
    for fb in payload["fallbacks"]:
        if fb["results"] is not None:
            found = [tuple(r) for r in fb["results"]]
        else:
            found = [()] * fb["embeddings"]
        out.fallbacks.append((found, counters_from_dict(fb["counters"])))
    return out


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


class RunJournal:
    """Write-ahead JSONL journal of one run's execute stage.

    Fresh mode (``resume=False``) truncates/creates the file and
    writes a header on first use; resume mode loads the existing
    records, validates the header fingerprint on
    :meth:`ensure_header`, truncates any torn tail, and continues
    appending after the last complete record. Appends are serialized
    under a lock (worker threads journal outcomes as they complete)
    and each is durable before the call returns.
    """

    def __init__(self, path: str | Path, resume: bool = False) -> None:
        self.path = Path(path)
        self.resume = resume
        #: Optional observer called with each record *after* it is
        #: durable (the tracer hooks this to count/stamp appends).
        #: Observation only — raising from it cannot un-write the
        #: record, and it runs on whichever thread appended.
        self.on_append: Any = None
        self._fd: int | None = None
        self._lock = threading.Lock()
        self._header: dict[str, Any] | None = None
        #: Records loaded from disk for replay (resume mode only).
        self._replay: list[dict[str, Any]] = []
        self._valid_bytes = 0
        self._appended = 0
        if resume:
            self._load()

    # -- loading -------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            raise JournalError(
                f"cannot resume: journal {self.path} does not exist"
            )
        records = read_jsonl(self.path)
        if not records or records[0].get("type") != "header":
            raise JournalError(
                f"cannot resume: journal {self.path} has no header record"
            )
        header = records[0]
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.path} has version {header.get('version')}, "
                f"expected {JOURNAL_VERSION}"
            )
        self._header = header
        self._replay = records[1:]
        # Byte offset of the last complete record, so appends after a
        # torn tail cannot splice two half-records together.
        with open(self.path, "rb") as handle:
            offset = 0
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                try:
                    json.loads(raw)
                except ValueError:
                    break
                offset += len(raw)
        self._valid_bytes = offset

    # -- writing -------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the header is written and appends are accepted."""
        return self._fd is not None

    @property
    def fingerprint(self) -> str | None:
        return self._header.get("fingerprint") if self._header else None

    def ensure_header(self, fingerprint: str, **meta: Any) -> None:
        """Open the journal for this run (validating on resume).

        Raises :class:`JournalMismatchError` when resuming against a
        journal whose header fingerprint differs — replaying another
        run's partitions would corrupt counts and modeled times.
        """
        with self._lock:
            if self._fd is not None:
                if self._header["fingerprint"] != fingerprint:
                    raise JournalMismatchError(
                        f"journal {self.path} is already bound to run "
                        f"{self._header['fingerprint'][:12]}..., cannot "
                        f"rebind to {fingerprint[:12]}..."
                    )
                return
            if self.resume:
                recorded = self._header["fingerprint"]
                if recorded != fingerprint:
                    raise JournalMismatchError(
                        f"journal {self.path} was recorded for run "
                        f"{recorded[:12]}... but this run fingerprints as "
                        f"{fingerprint[:12]}...; refusing to replay "
                        f"(query/dataset/backend/config changed?)"
                    )
                self._fd = os.open(self.path, os.O_WRONLY)
                os.ftruncate(self._fd, self._valid_bytes)
                os.lseek(self._fd, 0, os.SEEK_END)
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
            )
            self._header = {
                "type": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                **meta,
            }
            fsync_append(self._fd, self._header)

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (thread-safe).

        The ``REPRO_JOURNAL_CRASH_AFTER`` environment hook SIGKILLs
        the process after N appended records — the crash-safety tests
        use it to die mid-execute at a deterministic partition index.
        """
        with self._lock:
            if self._fd is None:
                raise JournalError("journal header not written yet")
            fsync_append(self._fd, record)
            self._appended += 1
            if self.on_append is not None:
                self.on_append(record)
            crash_after = os.environ.get(CRASH_AFTER_ENV)
            if crash_after and self._appended >= int(crash_after):
                os.kill(os.getpid(), signal.SIGKILL)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # -- replay accessors ----------------------------------------------

    def _by_index(self, record_type: str) -> dict[int, dict[str, Any]]:
        return {
            r["index"]: r
            for r in self._replay
            if r.get("type") == record_type
        }

    def partition_records(self) -> dict[int, dict[str, Any]]:
        """Completed FPGA-partition records, by partition index."""
        return self._by_index("partition")

    def cpu_records(self) -> dict[int, dict[str, Any]]:
        """Completed CPU-share records, by partition index."""
        return self._by_index("cpu")

    def ladder_records(self) -> dict[tuple, dict[str, Any]]:
        """Mid-ladder rung decisions, keyed by supervisor scope."""
        return {
            tuple(r["scope"]): r
            for r in self._replay
            if r.get("type") == "ladder"
        }


# ----------------------------------------------------------------------
# Device health ledger
# ----------------------------------------------------------------------


@dataclass
class DeviceHealth:
    """Accumulated health history of one device."""

    runs: int = 0
    launches: int = 0
    dead_runs: int = 0
    faults: dict[str, int] = field(default_factory=dict)

    def fault_rate(self, kinds: tuple[str, ...] | None = None) -> float:
        """Observed faults per launch (optionally restricted by kind)."""
        if self.launches <= 0:
            return 0.0
        total = sum(
            count for kind, count in self.faults.items()
            if kinds is None or kind in kinds
        )
        return total / self.launches

    @property
    def dead_rate(self) -> float:
        return self.dead_runs / self.runs if self.runs > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "launches": self.launches,
            "dead_runs": self.dead_runs,
            "faults": dict(sorted(self.faults.items())),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeviceHealth":
        return cls(
            runs=payload.get("runs", 0),
            launches=payload.get("launches", 0),
            dead_runs=payload.get("dead_runs", 0),
            faults=dict(payload.get("faults", {})),
        )


class DeviceHealthLedger:
    """Persistent per-device health history feeding the scheduler.

    ``penalty(device)`` inflates a device's effective load in the
    multi-FPGA min-workload placement (a flaky device's queue fills
    last); ``delta_s_scale(device)`` pre-shrinks the effective
    ``delta_S`` of partitions bound for a degraded device, so kernel
    residency drops before the watchdog can fire again. Placement
    never changes counts: every partition remains a complete search
    space wherever it runs.
    """

    VERSION = 1
    #: Fault-per-launch rate above which a device counts as degraded.
    FLAKY_THRESHOLD = 0.2
    #: Effective delta_S multiplier applied to degraded devices.
    DELTA_S_SHRINK = 0.5
    #: Weight of whole-device deaths relative to per-launch faults.
    DEAD_WEIGHT = 4.0
    #: Fault kinds that indicate on-card residency problems (the ones
    #: a smaller delta_S actually helps with).
    RESIDENCY_KINDS = ("kernel_timeout", "bram_soft_error")

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.devices: dict[int, DeviceHealth] = {}

    @classmethod
    def load(cls, path: str | Path) -> "DeviceHealthLedger":
        """Load from ``path`` (a missing file yields an empty ledger)."""
        ledger = cls(path)
        path = Path(path)
        if path.exists():
            payload = json.loads(path.read_text())
            if payload.get("version") != cls.VERSION:
                raise JournalError(
                    f"health ledger {path} has version "
                    f"{payload.get('version')}, expected {cls.VERSION}"
                )
            ledger.devices = {
                int(idx): DeviceHealth.from_dict(stats)
                for idx, stats in payload.get("devices", {}).items()
            }
        return ledger

    def save(self, path: str | Path | None = None) -> None:
        """Atomically persist (crash mid-save leaves the old file)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise JournalError("health ledger has no path to save to")
        atomic_write_json(target, self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.VERSION,
            "devices": {
                str(idx): stats.to_dict()
                for idx, stats in sorted(self.devices.items())
            },
        }

    def device(self, index: int) -> DeviceHealth:
        if index not in self.devices:
            self.devices[index] = DeviceHealth()
        return self.devices[index]

    # -- recording -----------------------------------------------------

    def record_run(
        self,
        health: HealthReport,
        launches_by_device: Mapping[int, int] | None = None,
    ) -> None:
        """Fold one run's health report into the history.

        Partition-level fault events carry no device index (they run
        on the single device 0); ``device_dead`` events attribute to
        the dead device named in their scope, not the failover target.
        """
        if not health.device_status and not health.events:
            return
        for idx, count in (launches_by_device or {}).items():
            self.device(idx).launches += int(count)
        for idx, status in health.device_status.items():
            stats = self.device(idx)
            stats.runs += 1
            # "open" (circuit-breaker exclusion) is not a new death
            # observation — only actual device loss raises dead_runs.
            if status == "dead":
                stats.dead_runs += 1
        for event in health.events:
            if event.kind == DEVICE_DEAD and len(event.scope) >= 2:
                dev = int(event.scope[1])
            elif event.device is not None:
                dev = int(event.device)
            else:
                dev = 0
            faults = self.device(dev).faults
            faults[event.kind] = faults.get(event.kind, 0) + 1

    def record_metrics(self, metrics: Any) -> None:
        """Record a finished run's :class:`RunMetrics`.

        Launch counts come from the schedule stage's per-device CST
        assignment (multi-FPGA) or the execute stage's kernel launch
        count (single device).
        """
        launches: dict[int, int] = {}
        sched = metrics.stages.get("schedule")
        if sched is not None and "csts_per_device" in sched.extra:
            launches = {
                i: int(n)
                for i, n in enumerate(sched.extra["csts_per_device"])
            }
        else:
            exe = metrics.stages.get("execute")
            if exe is not None and exe.extra.get("num_csts"):
                launches = {0: int(exe.extra["num_csts"])}
        self.record_run(metrics.health, launches)

    def record_and_save(self, metrics: Any) -> None:
        """Fold one run in and persist, as a single locked transaction.

        ``atomic_write_json`` makes each save atomic, but load →
        record → save is a read-modify-write: two processes sharing a
        ledger path can interleave and silently drop each other's
        runs. Under :func:`repro.common.io.file_lock` the whole
        transaction serializes — the on-disk state is re-read while
        the lock is held, this run is folded into *that*, and the
        result written back, so concurrent writers always sum. The
        in-memory view is refreshed to the merged state.
        """
        if self.path is None:
            raise JournalError("health ledger has no path to save to")
        with file_lock(self.path):
            merged = type(self).load(self.path)
            merged.record_metrics(metrics)
            merged.save()
            self.devices = merged.devices

    # -- scheduling policy ---------------------------------------------

    def penalty(self, index: int) -> float:
        """Effective-load inflation factor for one device (0 = clean)."""
        stats = self.devices.get(index)
        if stats is None:
            return 0.0
        return stats.fault_rate() + self.DEAD_WEIGHT * stats.dead_rate

    def flaky(self, index: int) -> bool:
        """Whether placement should steer away from this device."""
        return self.penalty(index) >= self.FLAKY_THRESHOLD

    def delta_s_scale(self, index: int) -> float:
        """Effective ``delta_S`` multiplier for work bound for a device."""
        stats = self.devices.get(index)
        if stats is None:
            return 1.0
        if stats.fault_rate(self.RESIDENCY_KINDS) >= self.FLAKY_THRESHOLD:
            return self.DELTA_S_SHRINK
        return 1.0

    def penalties(self, num_devices: int) -> tuple[float, ...]:
        """Per-device penalties for an ``num_devices``-wide placement."""
        return tuple(self.penalty(i) for i in range(num_devices))
