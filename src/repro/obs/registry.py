"""Declared-family metrics registry: one source for every exporter.

So that an end-of-run ``--metrics-out`` file and a live scrape cannot
silently diverge, every ``fast_*`` Prometheus family is *declared once* in
:data:`FAMILIES` (name, type, help, suffix, buckets) and every sample
flows through a :class:`MetricsRegistry`:

* ``--metrics-out`` renders a snapshot of a registry populated from
  the run's metrics payload (:func:`build_run_registry`);
* the live ``/metrics`` endpoint renders the server's registry,
  refreshed under a lock on each scrape;
* recording against an undeclared family raises immediately, and the
  metrics-name lint test (``tests/test_obs.py``) checks every
  declared family against the docs/observability.md family tables —
  silent renames cannot ship.

The registry is thread-safe: the serve loop records from the main
thread while HTTP scrape threads render concurrently. Rendering uses
the exact text grammar of the legacy emitters (HELP/TYPE comments on
the base name, ``_total``-suffixed counter samples, cumulative
histogram buckets), so existing scrapers, tests, and the
``validate_prometheus_text`` checker see byte-compatible output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.runtime.tracing import (
    MODELED,
    STAGE_SECONDS_BUCKETS,
    WALL,
    _fmt,
    _labels,
)


@dataclass(frozen=True)
class FamilySpec:
    """One declared metric family (full base name, no suffix)."""

    name: str
    mtype: str  # "counter" | "gauge" | "histogram"
    help_text: str
    #: Sample-name suffix (``_total`` for counters, empty otherwise).
    suffix: str = ""
    #: Histogram bucket bounds; ``None`` for non-histograms.
    buckets: tuple[float, ...] | None = None


def run_families(prefix: str = "fast") -> tuple[FamilySpec, ...]:
    """The per-run families, in their canonical emission order."""
    p = prefix
    return (
        FamilySpec(f"{p}_run_info", "gauge",
                   "One labeled series per run."),
        FamilySpec(
            f"{p}_executor_info", "gauge",
            "One labeled series describing execute-stage dispatch: the "
            "path taken (inline or process pool), the CST plane (shm, "
            "pickle, or local) tasks crossed it on, and the workers.",
        ),
        FamilySpec(f"{p}_embeddings_found", "counter",
                   "Embeddings found by this run.", suffix="_total"),
        FamilySpec(f"{p}_run_seconds", "gauge",
                   "End-to-end run duration per clock domain."),
        FamilySpec(f"{p}_stage_seconds", "gauge",
                   "Per-stage duration per clock domain."),
        FamilySpec(f"{p}_stage_duration_seconds", "histogram",
                   "Per-stage duration histogram per clock domain.",
                   buckets=STAGE_SECONDS_BUCKETS),
        FamilySpec(f"{p}_partitions", "counter",
                   "Partitions by disposition (scheduled, launched, "
                   "replayed from a journal).", suffix="_total"),
        FamilySpec(
            f"{p}_pool_events", "counter",
            "Warm worker-pool supervision actions during execute "
            "(respawned workers, re-dispatched, hedged and "
            "quarantined tasks; see docs/robustness.md).",
            suffix="_total",
        ),
        FamilySpec(f"{p}_pool_chunks", "counter",
                   "Tasks (partition windows) dispatched to the warm "
                   "worker pool.",
                   suffix="_total"),
        FamilySpec(f"{p}_recovery_actions", "counter",
                   "Fault-recovery actions taken "
                   "(see docs/robustness.md).", suffix="_total"),
        FamilySpec(f"{p}_degraded", "gauge",
                   "1 when the run deviated from its planned "
                   "placement."),
        FamilySpec(f"{p}_backoff_seconds", "counter",
                   "Modeled retry backoff charged to the run.",
                   suffix="_total"),
        FamilySpec(f"{p}_cache_events", "counter",
                   "Stage-cache hits/misses/evictions per namespace.",
                   suffix="_total"),
        FamilySpec(f"{p}_tracer_events", "counter",
                   "Tracer-side counters (journal appends/replays, "
                   "spans).", suffix="_total"),
    )


def serve_families() -> tuple[FamilySpec, ...]:
    """The service-level families, in canonical emission order."""
    p = "fast_serve"
    return (
        FamilySpec(f"{p}_jobs", "counter",
                   "Jobs finished, by terminal status.",
                   suffix="_total"),
        FamilySpec(f"{p}_admission_decisions", "counter",
                   "Admission-controller outcomes.", suffix="_total"),
        FamilySpec(f"{p}_queue_depth_peak", "gauge",
                   "Peak queued jobs over the server lifetime."),
        FamilySpec(f"{p}_backlog_seconds", "gauge",
                   "Current admission backlog (estimated modeled "
                   "seconds)."),
        FamilySpec(f"{p}_deadline_cancellations", "counter",
                   "Jobs cancelled by their modeled-time deadline.",
                   suffix="_total"),
        FamilySpec(f"{p}_breaker_reroutes", "counter",
                   "Jobs rerouted to the exact-CPU fallback by the "
                   "breaker.", suffix="_total"),
        FamilySpec(f"{p}_breaker_transitions", "counter",
                   "Breaker open/close/probe transitions per device.",
                   suffix="_total"),
        FamilySpec(f"{p}_cache_events", "counter",
                   "Resident stage-cache hits/misses/evictions by "
                   "namespace.", suffix="_total"),
        FamilySpec(f"{p}_modeled_latency_p99_seconds", "gauge",
                   "99th-percentile modeled latency of OK/DEGRADED "
                   "jobs."),
        FamilySpec(f"{p}_slo_latency_seconds", "gauge",
                   "Rolling-window modeled latency quantiles per "
                   "priority (docs/observability.md)."),
        FamilySpec(f"{p}_slo_burn_rate", "gauge",
                   "SLO error-budget burn rate per priority (miss "
                   "fraction over the rolling window divided by the "
                   "budget)."),
        FamilySpec(f"{p}_slo_window_jobs", "gauge",
                   "Requests currently in each priority's rolling SLO "
                   "window."),
    )


#: Every declared family. The metrics-name lint test checks this
#: table against the docs/observability.md family tables.
FAMILIES: tuple[FamilySpec, ...] = run_families() + serve_families()


class MetricsRegistry:
    """Thread-safe sample store over a fixed set of declared families.

    Counters and gauges hold one float per label set (``inc`` adds,
    ``set`` overwrites — refresh-style exporters rebuild with ``set``
    after :meth:`reset`); histograms accumulate raw observations and
    render cumulative buckets. Families with no samples are omitted
    from :meth:`render`, matching the legacy emitters.
    """

    def __init__(
        self, families: Iterable[FamilySpec] | None = None
    ) -> None:
        specs = tuple(FAMILIES if families is None else families)
        self._specs: dict[str, FamilySpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ValueError(f"duplicate family {spec.name!r}")
            self._specs[spec.name] = spec
        self._lock = threading.RLock()
        #: family -> {frozen label pairs -> float | list[float]}.
        self._samples: dict[
            str, dict[tuple[tuple[str, str], ...], Any]
        ] = {name: {} for name in self._specs}

    # -- recording -----------------------------------------------------

    def _spec(self, name: str, histogram: bool) -> FamilySpec:
        spec = self._specs.get(name)
        if spec is None:
            raise ValueError(
                f"metric family {name!r} is not declared; add it to "
                f"repro.obs.registry (and docs/observability.md)"
            )
        if histogram != (spec.mtype == "histogram"):
            raise ValueError(
                f"metric family {name!r} is a {spec.mtype}; use "
                f"{'observe' if spec.mtype == 'histogram' else 'set/inc'}"
            )
        return spec

    @staticmethod
    def _key(
        labels: Mapping[str, Any] | None
    ) -> tuple[tuple[str, str], ...]:
        if not labels:
            return ()
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def set(
        self,
        name: str,
        labels: Mapping[str, Any] | None = None,
        value: float = 0.0,
    ) -> None:
        """Overwrite one sample (refresh-style exporters)."""
        self._spec(name, histogram=False)
        with self._lock:
            self._samples[name][self._key(labels)] = float(value)

    def inc(
        self,
        name: str,
        labels: Mapping[str, Any] | None = None,
        value: float = 1.0,
    ) -> None:
        """Add to one sample, creating it at 0."""
        self._spec(name, histogram=False)
        key = self._key(labels)
        with self._lock:
            family = self._samples[name]
            family[key] = family.get(key, 0.0) + float(value)

    def observe(
        self,
        name: str,
        labels: Mapping[str, Any] | None = None,
        value: float = 0.0,
    ) -> None:
        """Record one histogram observation."""
        self._spec(name, histogram=True)
        key = self._key(labels)
        with self._lock:
            self._samples[name].setdefault(key, []).append(float(value))

    def reset(self) -> None:
        """Drop every sample (families stay declared)."""
        with self._lock:
            for family in self._samples.values():
                family.clear()

    def value(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> float | None:
        """Current value of one counter/gauge sample, or ``None``."""
        self._spec(name, histogram=False)
        with self._lock:
            return self._samples[name].get(self._key(labels))

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition of every non-empty family."""
        with self._lock:
            lines: list[str] = []
            for name, spec in self._specs.items():
                samples = self._samples[name]
                if not samples:
                    continue
                lines.append(f"# HELP {name} {spec.help_text}")
                lines.append(f"# TYPE {name} {spec.mtype}")
                if spec.mtype == "histogram":
                    self._render_histogram(lines, spec, samples)
                    continue
                for key, value in samples.items():
                    lines.append(
                        f"{name}{spec.suffix}{_labels(dict(key))} "
                        f"{_fmt(value)}"
                    )
            return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(
        lines: list[str],
        spec: FamilySpec,
        samples: Mapping[tuple[tuple[str, str], ...], list[float]],
    ) -> None:
        buckets = spec.buckets or STAGE_SECONDS_BUCKETS
        for key, observations in samples.items():
            labels = dict(key)
            for bound in (*buckets, float("inf")):
                hit = sum(1 for v in observations if v <= bound)
                lines.append(
                    f"{spec.name}_bucket"
                    f"{_labels({**labels, 'le': _fmt(bound)})} {hit}"
                )
            lines.append(
                f"{spec.name}_sum{_labels(labels)} "
                f"{_fmt(sum(observations))}"
            )
            lines.append(
                f"{spec.name}_count{_labels(labels)} "
                f"{len(observations)}"
            )


def build_run_registry(
    payload: Mapping[str, Any],
    counters: Mapping[str, float] | None = None,
    prefix: str = "fast",
) -> MetricsRegistry:
    """A registry populated from one run's metrics payload.

    ``build_run_registry(payload, counters).render()`` is the
    ``--metrics-out`` exposition of a run; ``counters`` is the
    tracer's counter map (journal appends/replays and friends), which
    may be empty — the exposition works with tracing disabled. The
    declared-family check guards every sample.
    """
    reg = MetricsRegistry(run_families(prefix))
    p = prefix
    backend = payload.get("backend", "unknown")
    base = {"backend": backend}
    stages: Mapping[str, Any] = payload.get("stages", {})
    totals: Mapping[str, Any] = payload.get("totals", {})
    health: Mapping[str, Any] = payload.get("health", {})
    cache: Mapping[str, Any] = payload.get("cache", {})
    merge = stages.get("merge", {})
    execute = stages.get("execute", {})
    schedule = stages.get("schedule", {})

    reg.set(f"{p}_run_info", base, 1.0)
    if "pool" in execute:
        reg.set(f"{p}_executor_info", {
            **base,
            "pool": str(execute.get("pool", "")),
            "cst_plane": str(execute.get("cst_plane", "local")),
            "workers": str(execute.get("workers", 1)),
        }, 1.0)
    if "embeddings" in merge:
        reg.set(f"{p}_embeddings_found", base,
                float(merge["embeddings"]))
    reg.set(f"{p}_run_seconds", {**base, "clock": MODELED},
            float(totals.get("modeled_seconds", 0.0)))
    reg.set(f"{p}_run_seconds", {**base, "clock": WALL},
            float(totals.get("wall_seconds", 0.0)))
    for name, st in stages.items():
        for clock, key in ((MODELED, "modeled_seconds"),
                           (WALL, "wall_seconds")):
            labels = {**base, "stage": name, "clock": clock}
            reg.set(f"{p}_stage_seconds", labels,
                    float(st.get(key, 0.0)))
            reg.observe(f"{p}_stage_duration_seconds", labels,
                        float(st.get(key, 0.0)))
    for kind, source, key in (
        ("fpga", schedule, "fpga_csts"),
        ("cpu", schedule, "cpu_csts"),
        ("kernel_launches", execute, "num_csts"),
        ("replayed", execute, "resumed_partitions"),
    ):
        if key in source:
            reg.set(f"{p}_partitions", {**base, "kind": kind},
                    float(source[key]))
    if execute.get("pool") == "process":
        for event in ("spawned", "respawns", "redispatches", "hedges",
                      "quarantines", "shm_fallbacks", "stall_kills"):
            if f"pool_{event}" in execute:
                reg.set(f"{p}_pool_events", {**base, "event": event},
                        float(execute.get(f"pool_{event}", 0)))
        reg.set(f"{p}_pool_chunks", base,
                float(execute.get("pool_chunks", 0)))
    for action in ("retries", "repartitions", "fallbacks", "failovers"):
        if action in health:
            reg.set(f"{p}_recovery_actions", {**base, "action": action},
                    float(health[action]))
    if health:
        reg.set(f"{p}_degraded", base,
                1.0 if health.get("degraded") else 0.0)
        reg.set(f"{p}_backoff_seconds", base,
                float(health.get("backoff_seconds", 0.0)))
    for ns, stats in sorted(cache.items()):
        for ev in ("hits", "misses", "evictions"):
            if ev in stats:
                reg.set(f"{p}_cache_events",
                        {**base, "namespace": ns, "event": ev},
                        float(stats[ev]))
    for name, value in sorted((counters or {}).items()):
        reg.set(f"{p}_tracer_events", {**base, "name": name},
                float(value))
    return reg


def exposition_families(text: str) -> set[str]:
    """Family base names declared by ``# TYPE`` lines of a text
    exposition — the CI family-set diff compares these between a
    mid-soak scrape and the end-of-run snapshot."""
    names: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) >= 3:
                names.add(parts[2])
    return names
