"""Kernel execution reports.

Every simulated kernel run produces a :class:`KernelReport` carrying
the cycle account, the workload shape (N, M), and result counts.
Reports of multiple CST partitions merge additively; elapsed seconds
derive from cycles at the configured clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

#: Columns of one round row: entries popped, new partials, edge tasks,
#: edge checks per partial, and result-flush cycles.
ROUND_COLUMNS = ("pops", "new", "tasks", "checks", "flush")


class LaunchRows(NamedTuple):
    """One kernel launch's Fig. 5 module occupancy, as round rows.

    ``rows`` holds the launch's kernel rounds in order, one
    :data:`ROUND_COLUMNS` row of int64 each, as bytes: immutable,
    compact, and owned by the launch alone. With the launch's load and
    SLR-crossing cycles that is all
    :func:`repro.fpga.engine.module_spans` needs to rebuild the
    per-module spans. ``offsets`` are the serial-clock shifts that
    :meth:`KernelReport.merge` added, in merge order.
    """

    rows: bytes
    load_cycles: float
    slr_crossing_cycles: float
    offsets: tuple[float, ...] = ()


@dataclass
class KernelReport:
    """Outcome of simulating FAST over one or more CSTs."""

    variant: str
    clock_mhz: float
    compute_cycles: float = 0.0
    load_cycles: float = 0.0
    flush_cycles: float = 0.0
    #: Modeled cost of cross-SLR CST accesses; nonzero only when the
    #: device has multiple SLRs, a crossing penalty, and a CST too big
    #: for one region (see docs/devices.md).
    slr_crossing_cycles: float = 0.0
    rounds: int = 0
    total_partials: int = 0       # N: expanded partial results
    total_edge_tasks: int = 0     # M: edge-validation tasks
    total_pops: int = 0           # buffer entries consumed
    embeddings: int = 0
    num_csts: int = 0
    buffer_peaks: dict[int, int] = field(default_factory=dict)
    results: list[tuple[int, ...]] | None = None
    #: Per-launch module occupancy as round rows, recorded only when
    #: the engine runs with ``trace_modules=True``; the tracer expands
    #: them into per-module spans on the card's serial cycle clock at
    #: export (see docs/observability.md). ``None`` when tracing is
    #: off, so the default path allocates nothing.
    launch_rows: list[LaunchRows] | None = None

    @property
    def total_cycles(self) -> float:
        """Compute, data-movement, and SLR-crossing cycles."""
        return (self.compute_cycles + self.load_cycles
                + self.flush_cycles + self.slr_crossing_cycles)

    @property
    def seconds(self) -> float:
        """Modeled kernel wall time."""
        return self.total_cycles / (self.clock_mhz * 1e6)

    def merge(self, other: "KernelReport") -> None:
        """Accumulate another CST's report into this one (same variant)."""
        if other.variant != self.variant:
            raise ValueError(
                f"cannot merge report of variant {other.variant!r} into "
                f"{self.variant!r}"
            )
        if other.launch_rows is not None:
            # Shift onto this report's cycle clock *before* the cycle
            # counters accumulate: merged reports read as one card
            # executing the launches back to back. New launch tuples,
            # so a launch already handed to the tracer never moves.
            offset = self.total_cycles
            if self.launch_rows is None:
                self.launch_rows = []
            self.launch_rows.extend(
                launch._replace(offsets=(*launch.offsets, offset))
                for launch in other.launch_rows
            )
        self.compute_cycles += other.compute_cycles
        self.load_cycles += other.load_cycles
        self.flush_cycles += other.flush_cycles
        self.slr_crossing_cycles += other.slr_crossing_cycles
        self.rounds += other.rounds
        self.total_partials += other.total_partials
        self.total_edge_tasks += other.total_edge_tasks
        self.total_pops += other.total_pops
        self.embeddings += other.embeddings
        self.num_csts += other.num_csts
        for depth, peak in other.buffer_peaks.items():
            self.buffer_peaks[depth] = max(
                self.buffer_peaks.get(depth, 0), peak
            )
        if other.results is not None:
            if self.results is None:
                self.results = []
            self.results.extend(other.results)

    def summary(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        return {
            "variant": self.variant,
            "cycles": self.total_cycles,
            "seconds": self.seconds,
            "rounds": self.rounds,
            "N": self.total_partials,
            "M": self.total_edge_tasks,
            "embeddings": self.embeddings,
            "csts": self.num_csts,
        }
