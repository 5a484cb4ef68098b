"""End-to-end tracing and metrics exposition for the staged runtime.

The paper argues every FAST speedup through timeline occupancy —
Equations 1-4 are statements about which kernel module occupies which
cycle, Fig. 5 about which modules run concurrently — yet a metrics
payload of per-stage totals cannot *show* any of that. This module is
the missing instrument: a zero-dependency span tracer threaded through
:class:`~repro.runtime.context.RunContext` and instrumented at every
layer (pipeline stages, the partition executor's overlap timeline, the
fault supervisor's ladder, journal appends/replays, multi-FPGA device
queues, and per-round kernel-module occupancy), with two exporters:

Chrome trace-event JSON (:meth:`Tracer.to_chrome_trace`)
    Loadable in Perfetto / ``chrome://tracing``. Two processes keep
    the clock domains apart: pid 1 is **real wall time** (what the
    host actually did), pid 2 is the **modeled clock** (the paper's
    timeline: modeled seconds derived from cycle counts, PCIe bytes,
    and operation counts — never from wall time, so modeled tracks
    are bit-deterministic under a fixed seed at any ``--workers``).
    One lane (tid) per track: stages, per-device pcie/kernel lanes,
    one lane per kernel module, host CPU share, faults, journal. The
    kernel-module lanes are recorded as one :class:`ModuleLanes` entry
    of round rows per device and run, and expanded into spans only
    here.

Prometheus text exposition (:func:`repro.obs.registry.build_run_registry`)
    The run's metrics payload — embeddings, partitions executed /
    retried / degraded, cache hit/miss/evictions, journal replays,
    per-stage second histograms — in the text format any Prometheus
    scraper or ``promtool`` ingests. This module keeps the shared text
    grammar helpers and :func:`validate_prometheus_text`.

Tracing is **off by default** and adds near-zero overhead when
disabled: every recording method early-returns on ``enabled`` and no
span objects are allocated (tested in ``tests/test_tracing.py``).
Enabling it never changes embedding counts, modeled seconds, or the
health report — the tracer only observes.

Exactness is enforced, not hoped for: :func:`validate_chrome_trace`
checks the exported event schema, and :func:`check_trace_invariants`
checks that per-stage span sums equal the run's
:class:`~repro.runtime.context.RunMetrics` totals (both clocks). See
``docs/observability.md``.
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

#: Clock domains. ``wall`` spans carry real host time relative to the
#: tracer's epoch; ``modeled`` spans carry modeled seconds (the same
#: domain every reported number lives in) and are deterministic.
WALL = "wall"
MODELED = "modeled"

#: Chrome trace-event pid per clock domain.
CLOCK_PIDS = {WALL: 1, MODELED: 2}

#: Kernel-module lanes the engine traces (Fig. 5's four modules, with
#: the generator's t_v and t_n halves on separate lanes so FAST-SEP's
#: duplicated generators are visible). ``load``/``flush`` cover the
#: CST stream-in and the result flush around the module rounds.
MODULE_LANES = (
    "generator_tv",
    "generator_tn",
    "visited_validator",
    "edge_validator",
    "synchronizer",
    "load",
    "flush",
    "slr_crossing",
)

#: Lane -> paper module (Fig. 5 names); load/flush are data movement,
#: as is the modeled cross-SLR access penalty (docs/devices.md).
MODULE_OF_LANE = {
    "generator_tv": "generator",
    "generator_tn": "generator",
    "visited_validator": "visited_validator",
    "edge_validator": "edge_validator",
    "synchronizer": "synchronizer",
    "load": "data_movement",
    "flush": "data_movement",
    "slr_crossing": "data_movement",
}


@dataclass
class Span:
    """One timed interval on one lane of one clock domain."""

    track: str
    name: str
    start: float
    duration: float
    clock: str = MODELED
    args: dict[str, Any] | None = None


@dataclass(frozen=True)
class ModuleLanes:
    """One device's kernel-module lanes of one run, not yet expanded.

    The launches' round rows (:class:`~repro.fpga.report.LaunchRows`)
    with what their expansion needs: the card's config and variant,
    the clock the cycles convert at, and the request in force when
    recorded. It takes one slot among a tracer's spans; the exporter
    replaces it in place by :meth:`spans`. ``track`` is the lanes'
    common prefix, so code that filters spans by track sees it too.
    """

    track: str
    config: Any
    variant: str
    launches: tuple
    clock_mhz: float
    args: dict[str, Any] | None = None

    def spans(self) -> list[Span]:
        """One modeled span per module occupancy interval, in the
        order the engine's cycle account lays them out."""
        from repro.fpga.engine import module_spans

        hz = self.clock_mhz * 1e6
        return [
            Span(
                track=f"{self.track}/{lane}", name=lane,
                start=start / hz, duration=(end - start) / hz,
                clock=MODELED,
                args={"module": MODULE_OF_LANE.get(lane, lane),
                      **(self.args or {})},
            )
            for lane, start, end in module_spans(
                self.config, self.variant, self.launches
            )
        ]


@dataclass
class Instant:
    """One zero-duration event (fault fired, journal record landed)."""

    track: str
    name: str
    ts: float
    clock: str = WALL
    args: dict[str, Any] | None = None


class Tracer:
    """Span/counter collector with wall and modeled clock domains.

    One tracer per :class:`~repro.runtime.context.RunContext`;
    disabled by default. Recording is thread-safe (journal appends
    fire from worker threads), but every *modeled* span is emitted
    from deterministic merge-phase code, so the modeled half of a
    trace is bit-identical across runs at any worker count.
    """

    __slots__ = ("enabled", "spans", "instants", "counters",
                 "_lock", "_epoch", "_request_id")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span | ModuleLanes] = []
        self.instants: list[Instant] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._request_id: str | None = None

    # -- recording -----------------------------------------------------

    def now_wall(self) -> float:
        """Seconds since the tracer's epoch (the wall-clock origin)."""
        return time.perf_counter() - self._epoch

    @property
    def request_id(self) -> str | None:
        """The serve request currently scoping recorded events."""
        return self._request_id

    def set_request(self, request_id: str | None) -> None:
        """Scope subsequent spans/instants to one serving request.

        While set, every recorded span and instant carries a
        ``request_id`` arg (unless the caller passed its own), so a
        serve trace with many interleaved requests can be sliced into
        per-request lanes (``repro trace-summary --request ID``). The
        server sets this around each job and clears it after; worker-
        side pool spans are merged back while it is still set, so they
        land in the owning request's scope.
        """
        self._request_id = request_id

    def span(
        self,
        track: str,
        name: str,
        start: float,
        duration: float,
        clock: str = MODELED,
        **args: Any,
    ) -> None:
        """Record one complete span (no-op when disabled)."""
        if not self.enabled:
            return
        if self._request_id is not None and "request_id" not in args:
            args["request_id"] = self._request_id
        with self._lock:
            self.spans.append(Span(
                track=track, name=name, start=start,
                duration=duration, clock=clock, args=args or None,
            ))

    def instant(
        self,
        track: str,
        name: str,
        ts: float,
        clock: str = WALL,
        **args: Any,
    ) -> None:
        """Record one instant event (no-op when disabled)."""
        if not self.enabled:
            return
        if self._request_id is not None and "request_id" not in args:
            args["request_id"] = self._request_id
        with self._lock:
            self.instants.append(Instant(
                track=track, name=name, ts=ts, clock=clock,
                args=args or None,
            ))

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment a named counter (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def module_lanes(self, track: str, config: Any, variant: str,
                     launches: Sequence, clock_mhz: float) -> None:
        """Record kernel-module lanes as one deferred entry (no-op when
        disabled); the export expands it (:class:`ModuleLanes`)."""
        if not self.enabled:
            return
        args = (
            None if self._request_id is None
            else {"request_id": self._request_id}
        )
        with self._lock:
            self.spans.append(ModuleLanes(
                track=track, config=config, variant=variant,
                launches=tuple(launches), clock_mhz=clock_mhz, args=args,
            ))

    def on_journal_append(self, record: Mapping[str, Any]) -> None:
        """Journal hook: one counter bump + wall instant per append."""
        if not self.enabled:
            return
        self.count("journal_appends")
        self.instant(
            "journal", f"append {record.get('type', '?')}",
            self.now_wall(), clock=WALL,
        )

    # -- export --------------------------------------------------------

    def _expanded(self) -> list[Span]:
        """The recorded spans, each :class:`ModuleLanes` entry replaced
        in place by its module spans."""
        spans: list[Span] = []
        for s in self.spans:
            if isinstance(s, ModuleLanes):
                spans.extend(s.spans())
            else:
                spans.append(s)
        return spans

    def _tracks(self, spans: Sequence[Span]) -> dict[tuple[str, str], int]:
        """Stable ``(clock, track) -> tid`` assignment (sorted) over
        the expanded ``spans`` and the instants."""
        seen = sorted(
            {(s.clock, s.track) for s in spans}
            | {(i.clock, i.track) for i in self.instants}
        )
        tids: dict[tuple[str, str], int] = {}
        per_pid: dict[str, int] = {}
        for clock, track in seen:
            per_pid[clock] = per_pid.get(clock, 0) + 1
            tids[(clock, track)] = per_pid[clock]
        return tids

    def to_chrome_trace(self) -> dict[str, Any]:
        """The trace as a Chrome trace-event (Perfetto-loadable) dict.

        ``ts``/``dur`` are microseconds, as the format requires: wall
        events are real microseconds since the tracer epoch, modeled
        events are modeled microseconds since run start — load either
        process in Perfetto and the lanes line up on its own clock.
        Kernel-module lanes are expanded from their round rows here.
        """
        spans = self._expanded()
        tids = self._tracks(spans)
        events: list[dict[str, Any]] = []
        for clock, pid in sorted(CLOCK_PIDS.items()):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{clock} clock"},
            })
        for (clock, track), tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M",
                "pid": CLOCK_PIDS[clock], "tid": tid,
                "args": {"name": track},
            })
        for s in spans:
            events.append({
                "name": s.name, "ph": "X", "cat": s.clock,
                "pid": CLOCK_PIDS[s.clock],
                "tid": tids[(s.clock, s.track)],
                "ts": s.start * 1e6, "dur": s.duration * 1e6,
                "args": s.args or {},
            })
        for i in self.instants:
            events.append({
                "name": i.name, "ph": "i", "cat": i.clock, "s": "t",
                "pid": CLOCK_PIDS[i.clock],
                "tid": tids[(i.clock, i.track)],
                "ts": i.ts * 1e6,
                "args": i.args or {},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "counters": dict(sorted(self.counters.items())),
            },
        }

    def write_chrome_trace(self, path: Any) -> None:
        """Atomically write the Chrome trace JSON to ``path``."""
        from repro.common.io import atomic_write_json

        atomic_write_json(path, self.to_chrome_trace(), indent=None)


def device_lane_prefix(device: int, part: str | None = None) -> str:
    """Lane-group prefix of one device's modeled lanes.

    ``device0`` when the part is anonymous (a bare
    :class:`~repro.fpga.config.FpgaConfig`), ``device1:u280`` when the
    run resolved the device from the catalog — heterogeneous-fleet
    traces label every lane group with its part name.
    """
    return f"device{device}" if part is None else f"device{device}:{part}"


def trace_device_lanes(
    tracer: Tracer,
    device: int,
    schedule: Sequence[tuple[float, float, float, float]],
    kernel: Any,
    config: Any,
    part: str | None = None,
) -> None:
    """Emit one device's modeled lanes from its overlap schedule.

    ``schedule`` is :func:`repro.runtime.executor.overlap_schedule`
    output — one ``(transfer_start, transfer_end, kernel_start,
    kernel_end)`` per launch — drawn as the ``pcie`` and ``kernel``
    lanes. ``kernel`` is the device's merged
    :class:`~repro.fpga.report.KernelReport`; its launches' round rows
    become one :class:`ModuleLanes` entry, which the export expands
    into per-round occupancy spans on the card's *serial* cycle clock
    (launches back to back, no PCIe gaps), converted to seconds at the
    report's clock and drawn one lane per kernel module of the card
    ``config`` — the view that reproduces Fig. 5. The single-FPGA
    execute stage emits device 0; the multi-FPGA runner one device per
    lane group, in device-index order, so traces stay deterministic.
    ``part`` labels the lane group with the device's catalog part name
    (see :func:`device_lane_prefix`).
    """
    if not tracer.enabled:
        return
    prefix = device_lane_prefix(device, part)
    for n, (t_start, t_end, k_start, k_end) in enumerate(schedule):
        tracer.span(f"{prefix}/pcie", f"transfer p{n}", t_start,
                    t_end - t_start, clock=MODELED, launch=n)
        if k_end > k_start:
            tracer.span(f"{prefix}/kernel", f"kernel p{n}", k_start,
                        k_end - k_start, clock=MODELED, launch=n)
    if kernel.launch_rows:
        tracer.module_lanes(f"{prefix}/module", config, kernel.variant,
                            kernel.launch_rows, kernel.clock_mhz)


# ----------------------------------------------------------------------
# Trace schema validation and invariants
# ----------------------------------------------------------------------

_VALID_PHASES = {"X", "i", "M", "C"}


def validate_chrome_trace(payload: Any) -> list[str]:
    """Schema errors of a Chrome trace-event payload (empty = valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for n, ev in enumerate(events):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: name is not a string")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} is not an integer")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts {ts!r} is not a number >= 0")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{where}: dur {dur!r} is not a number >= 0"
                )
    return errors


def trace_lanes(
    payload: Mapping[str, Any]
) -> dict[tuple[str, str], list[dict[str, Any]]]:
    """Complete ("X") events grouped by ``(clock, track)`` lane.

    Lane names come from the trace's own ``process_name`` /
    ``thread_name`` metadata, so this works on a trace loaded from
    disk, not only on a live :class:`Tracer`.
    """
    clocks: dict[int, str] = {}
    tracks: dict[tuple[int, int], str] = {}
    for ev in payload.get("traceEvents", []):
        if ev.get("ph") != "M":
            continue
        if ev.get("name") == "process_name":
            clocks[ev["pid"]] = ev["args"]["name"].split()[0]
        elif ev.get("name") == "thread_name":
            tracks[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    lanes: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for ev in payload.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        key = (
            clocks.get(ev["pid"], str(ev["pid"])),
            tracks.get((ev["pid"], ev["tid"]), str(ev["tid"])),
        )
        lanes.setdefault(key, []).append(ev)
    return lanes


def check_trace_invariants(
    payload: Mapping[str, Any],
    metrics_payload: Mapping[str, Any],
) -> list[str]:
    """Span-sum == RunMetrics invariant failures (empty = exact).

    For a single-run trace, the per-stage span durations on the
    ``stages`` lane must sum to the stage's recorded seconds in the
    metrics payload — on both clocks. Stage spans are emitted from
    per-bucket deltas, so the sums telescope exactly; the tolerance
    only absorbs the microsecond unit conversion of the export.
    """
    errors: list[str] = []
    lanes = trace_lanes(payload)
    stages = metrics_payload.get("stages", {})
    for clock, key in ((MODELED, "modeled_seconds"),
                       (WALL, "wall_seconds")):
        sums: dict[str, float] = {}
        for ev in lanes.get((clock, "stages"), []):
            sums[ev["name"]] = sums.get(ev["name"], 0.0) + ev["dur"]
        for name, st in stages.items():
            want = st.get(key, 0.0) * 1e6
            got = sums.get(name, 0.0)
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6):
                errors.append(
                    f"{clock} span sum of stage {name!r} is {got:.6f}us "
                    f"but RunMetrics records {want:.6f}us"
                )
        extra = set(sums) - set(stages)
        if extra:
            errors.append(
                f"{clock} stages lane has spans for unknown stages "
                f"{sorted(extra)}"
            )
    return errors


def summarize_trace(
    payload: Mapping[str, Any],
    top: int = 10,
    request_id: str | None = None,
) -> list[list[Any]]:
    """Top-``top`` slowest spans per lane, as table rows.

    Rows are ``[clock, track, span name, start_ms, dur_ms]``, lanes in
    sorted order, spans within a lane by descending duration — the
    quick-triage view ``repro trace-summary`` prints. With
    ``request_id`` only spans carrying that ``request_id`` arg are
    summarized (the per-request slice of a serve trace).
    """
    rows: list[list[Any]] = []
    for (clock, track), events in sorted(trace_lanes(payload).items()):
        if request_id is not None:
            events = [
                ev for ev in events
                if (ev.get("args") or {}).get("request_id") == request_id
            ]
        ranked = sorted(
            events, key=lambda ev: (-ev["dur"], ev["ts"], ev["name"])
        )
        for ev in ranked[:top]:
            rows.append([
                clock, track, ev["name"],
                f"{ev['ts'] / 1e3:.6f}", f"{ev['dur'] / 1e3:.6f}",
            ])
    return rows


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: Histogram bucket bounds (seconds) for per-stage durations.
STAGE_SECONDS_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _labels(pairs: Mapping[str, Any]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{k}="{str(v)}"' for k, v in sorted(pairs.items())
    )
    return "{" + inner + "}"


_PROM_METRIC_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$"
)
_PROM_COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def validate_prometheus_text(text: str) -> list[str]:
    """Format errors of a Prometheus text exposition (empty = valid)."""
    errors: list[str] = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT_RE.match(line):
                errors.append(f"line {n}: malformed comment {line!r}")
            continue
        if not _PROM_METRIC_RE.match(line):
            errors.append(f"line {n}: malformed sample {line!r}")
    return errors
