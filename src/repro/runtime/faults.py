"""Deterministic fault injection and recovery for the staged runtime.

Real FPGA query pipelines treat device stalls and transfer faults as
first-class events; a long-lived matching service must degrade
gracefully instead of crashing. This module provides the three pieces
the execute-stage supervisor is built from:

:class:`FaultPlan`
    A seedable description of *which* faults fire *where*. Decisions
    are pure functions of ``(seed, kind, scope)`` via the same SHA-256
    seed derivation the rest of the repo uses
    (:func:`repro.common.rng.derive_seed`), so a plan is deterministic
    and independent of evaluation order: the same seed always yields
    the same fault schedule, which makes every injected failure exactly
    reproducible (tested in ``tests/test_faults.py``).

:class:`RetryPolicy`
    Bounded retries with exponential backoff and deterministic jitter.
    Backoff is *charged* to both the wall and modeled time of the
    execute stage rather than slept, keeping the simulation fast while
    the reported numbers reflect the recovery cost.

:class:`HealthReport`
    The structured per-run record of every fault, retry, re-partition,
    CPU fallback, and device failover, stamped into
    ``RunMetrics.to_dict()["health"]`` and surfaced by the CLI, the
    harness, and the benchmarks.

The recovery ladder itself (retry -> re-partition -> CPU fallback ->
fail) lives in :mod:`repro.runtime.stages`; device-level failover in
:mod:`repro.host.multi_fpga`. Because every CST partition is a
complete, independently matchable search space (paper Definition 2),
any recoverable schedule leaves embedding counts bit-identical to the
fault-free run — the property the fault suite checks for every FAST
variant. See ``docs/robustness.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.common.errors import (
    BramSoftError,
    DeviceUnavailableError,
    KernelTimeoutError,
    PcieTransferError,
    TransientDeviceError,
)
from repro.common.rng import derive_seed
from repro.costs.cpu import CpuCostModel, OpCounters
from repro.fpga.config import FpgaConfig

#: Partition-level transient fault kinds the supervisor understands.
FAULT_KINDS = (
    "kernel_timeout",
    "pcie_error",
    "device_unavailable",
    "bram_soft_error",
)

#: Device-level fault kind: a whole FPGA stops responding (multi-FPGA
#: failover; on a single device the partition ladder handles it).
DEVICE_DEAD = "device_dead"

#: Exception type raised for each injected partition-level kind.
FAULT_ERRORS: dict[str, type[TransientDeviceError]] = {
    "kernel_timeout": KernelTimeoutError,
    "pcie_error": PcieTransferError,
    "device_unavailable": DeviceUnavailableError,
    "bram_soft_error": BramSoftError,
}

#: Rates used by ``FaultPlan(seed)`` when none are given — a noisy but
#: recoverable device (every burst clears within two attempts).
DEFAULT_RATES: dict[str, float] = {
    "kernel_timeout": 0.15,
    "pcie_error": 0.10,
    "device_unavailable": 0.05,
    "bram_soft_error": 0.05,
    DEVICE_DEAD: 0.0,
}

#: Host-level fault kinds the supervised worker pool understands.
#: Unlike :data:`FAULT_KINDS` these live strictly in the wall-clock
#: domain: a killed, stalled, or shm-blinded worker changes how long
#: the run takes, never what it computes — embedding counts, modeled
#: seconds, and fingerprints are identical at any host-fault setting.
HOST_FAULT_KINDS = ("worker_kill", "worker_stall", "shm_unlink")

#: Rates used by ``HostFaultPlan(seed)`` when none are given — a
#: hostile-but-survivable host (a few percent of tasks kill, stall,
#: or blind their worker).
HOST_DEFAULT_RATES: dict[str, float] = {
    "worker_kill": 0.08,
    "worker_stall": 0.04,
    "shm_unlink": 0.04,
}

_U64 = float(2**64)


@dataclass(frozen=True)
class FaultPlan:
    """Seedable, order-independent schedule of injected faults.

    ``rates[kind]`` is the probability that ``kind`` fires at a given
    scope (a partition of a run, or a device). A firing fault is a
    *burst*: it repeats for a deterministic number of consecutive
    attempts (at most ``max_consecutive``) before clearing, modeling
    transient conditions that persist briefly. ``dead_devices``
    additionally marks explicit devices as failed regardless of rates
    (used by tests and drills to stage exact failover scenarios).
    """

    seed: int = 0
    rates: Mapping[str, float] | None = None
    max_consecutive: int = 2
    dead_devices: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.rates is None:
            object.__setattr__(self, "rates", dict(DEFAULT_RATES))
        unknown = set(self.rates) - set(FAULT_KINDS) - {DEVICE_DEAD}
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")
        object.__setattr__(
            self, "dead_devices", frozenset(self.dead_devices)
        )

    # ------------------------------------------------------------------

    def _uniform(self, *scope: object) -> float:
        """Deterministic uniform in [0, 1) for a named scope."""
        return derive_seed(self.seed, *scope) / _U64

    def fires(self, kind: str, *scope: object) -> int:
        """Consecutive attempts on which ``kind`` fires at ``scope``.

        Returns 0 when the fault does not occur there; otherwise the
        burst length ``b`` means attempts ``0 .. b-1`` fail and attempt
        ``b`` is clean. Pure in ``(seed, kind, scope)``.
        """
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return 0
        if self._uniform("fault", kind, *scope) >= rate:
            return 0
        burst = 1 + int(
            self._uniform("burst", kind, *scope) * self.max_consecutive
        )
        return min(burst, self.max_consecutive)

    def device_dead(self, device_index: int) -> bool:
        """Whether the whole device at ``device_index`` is down."""
        if device_index in self.dead_devices:
            return True
        rate = self.rates.get(DEVICE_DEAD, 0.0)
        if rate <= 0.0:
            return False
        return self._uniform("fault", DEVICE_DEAD, device_index) < rate

    def recoverable_under(self, policy: "RetryPolicy") -> bool:
        """Whether every burst clears within the retry budget.

        A plan recoverable under the policy never triggers the
        degradation ladder; even unrecoverable plans still produce
        exact counts (the ladder ends on the CPU), they just report
        ``degraded=True``.
        """
        return self.max_consecutive <= policy.max_retries

    @property
    def enabled(self) -> bool:
        return bool(self.dead_devices) or any(
            r > 0.0 for r in self.rates.values()
        )


@dataclass(frozen=True)
class HostFaultPlan:
    """Seedable, order-independent schedule of injected *host* faults.

    The worker-pool analogue of :class:`FaultPlan`: decisions are pure
    functions of ``(seed, kind, task_index)`` via the same SHA-256
    seed derivation, so a plan is deterministic and independent of
    which worker picks which task up. The plan is pickled to every
    pool worker at spawn; injection happens *inside* the worker, so an
    injected ``worker_kill`` is a genuine ``SIGKILL`` of a real worker
    process at a deterministic task index — the supervision path it
    exercises is exactly the one a real OOM kill takes.

    Kinds (see :data:`HOST_FAULT_KINDS`):

    ``worker_kill``
        The worker SIGKILLs itself before running the task.
    ``worker_stall``
        The worker sleeps ``stall_seconds`` before the task, tripping
        the pool's wall-clock watchdog (hedge, then stall-kill).
    ``shm_unlink``
        The worker drops its shared-memory attachments and reports the
        task's CST segment as lost; only fires for tasks that actually
        ride the shm plane.

    ``targets`` pins explicit faults regardless of rates:
    ``{kind: {task_index: burst}}`` — burst ``b`` means dispatch
    attempts ``0 .. b-1`` fault and attempt ``b`` is clean, the same
    burst semantics as :meth:`FaultPlan.fires`.
    """

    seed: int = 0
    rates: Mapping[str, float] | None = None
    max_consecutive: int = 2
    targets: Any = None
    #: How long an injected stall sleeps. Far past any watchdog so the
    #: pool's hedge/stall-kill path — not the sleep expiring — is what
    #: recovers the task.
    stall_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.rates is None:
            object.__setattr__(self, "rates", dict(HOST_DEFAULT_RATES))
        unknown = set(self.rates) - set(HOST_FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown host fault kinds: {sorted(unknown)}")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")
        if self.stall_seconds <= 0.0:
            raise ValueError("stall_seconds must be > 0")
        targets = self.targets or {}
        unknown = set(targets) - set(HOST_FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown host fault targets: {sorted(unknown)}"
            )
        # Normalize to nested tuples: frozen, hashable, picklable.
        object.__setattr__(self, "targets", tuple(
            (kind, tuple(sorted(
                (int(i), int(b)) for i, b in dict(hits).items()
            )))
            for kind, hits in sorted(dict(targets).items())
        ))

    def _uniform(self, *scope: object) -> float:
        return derive_seed(self.seed, "host", *scope) / _U64

    def fires(self, kind: str, task_index: int) -> int:
        """Consecutive dispatch attempts on which ``kind`` fires.

        Returns 0 when the fault does not occur for this task index;
        otherwise the burst length ``b`` means attempts ``0 .. b-1``
        fault and attempt ``b`` is clean. Pure in
        ``(seed, kind, task_index)``.
        """
        for target_kind, hits in self.targets:
            if target_kind != kind:
                continue
            for index, burst in hits:
                if index == task_index:
                    return burst
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return 0
        if self._uniform("fault", kind, task_index) >= rate:
            return 0
        burst = 1 + int(
            self._uniform("burst", kind, task_index)
            * self.max_consecutive
        )
        return min(burst, self.max_consecutive)

    @property
    def enabled(self) -> bool:
        return bool(self.targets) or any(
            r > 0.0 for r in self.rates.values()
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_retries`` counts *re*-attempts: a partition is tried at most
    ``max_retries + 1`` times before the degradation ladder takes
    over. Backoff for attempt ``a`` is
    ``min(base * multiplier**a, max) * (1 ± jitter)`` with the jitter
    drawn deterministically from the fault seed, so the same seed
    reproduces the same charged delays.
    """

    max_retries: int = 3
    backoff_base_s: float = 1e-4
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.05
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_seconds(self, seed: int, attempt: int,
                        *scope: object) -> float:
        """Charged delay before re-attempt ``attempt`` at ``scope``."""
        base = min(
            self.backoff_base_s * self.backoff_multiplier ** attempt,
            self.backoff_max_s,
        )
        u = derive_seed(seed, "backoff", attempt, *scope) / _U64
        return base * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass(frozen=True)
class SupervisorCore:
    """The picklable core of the execute-stage partition supervisor.

    The whole :class:`~repro.runtime.context.RunContext` (cache lock,
    journal file handle, tracer) does not pickle, so it cannot ride a
    task into a pool worker. This bundle extracts exactly what a
    ladder task needs, all of it frozen
    dataclasses and scalars: :class:`FaultPlan` decisions are pure in
    ``(seed, kind, scope)`` and :class:`RetryPolicy` backoff is pure in
    ``(seed, attempt, scope)``, so a worker process reproduces the
    parent's fault schedule bit-identically. The data graph itself is
    reduced to the two scalars the host cost model reads.

    Cache and journal writes stay on the parent: a pool-worker ladder
    accumulates its write-ahead rung records in
    :attr:`~repro.runtime.executor.PartitionOutcome.ladder_records`
    and the parent journals them on the result-merge path.
    """

    fpga: FpgaConfig
    engine_variant: str
    retry_policy: RetryPolicy
    fault_plan: FaultPlan | None
    seed: int
    trace_modules: bool
    cpu_cost: CpuCostModel
    avg_degree: float
    num_vertices: int
    #: Pool index of the device the task runs on, stamped on its fault
    #: events so the health ledger books them there; ``None`` on a
    #: single-device run (the ledger reads that as device 0).
    device: int | None = None

    @property
    def backoff_seed(self) -> int:
        """Seed of the charged-backoff jitter (fault seed if any)."""
        return (
            self.fault_plan.seed if self.fault_plan is not None
            else self.seed
        )

    def host_seconds(self, ops: int) -> float:
        """Modeled host time of ``ops`` index operations (the ladder's
        re-partition charge; mirrors ``RunContext.host_seconds``)."""
        return self.cpu_cost.seconds(
            OpCounters(index_build_ops=ops),
            self.avg_degree,
            self.num_vertices,
        )


@dataclass
class FaultEvent:
    """One injected fault and the supervisor's reaction to it.

    ``action`` is one of ``"retry"`` (transient, re-attempted),
    ``"repartition"`` (retries exhausted, split under tightened
    delta_S), ``"cpu_fallback"`` (re-routed to the host matcher), or
    ``"failover"`` (a dead device's queue redistributed).
    """

    kind: str
    scope: tuple
    attempt: int
    action: str
    backoff_seconds: float = 0.0
    device: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "scope": list(self.scope),
            "attempt": self.attempt,
            "action": self.action,
            "backoff_seconds": self.backoff_seconds,
        }
        if self.device is not None:
            out["device"] = self.device
        return out


@dataclass
class HealthReport:
    """Structured robustness record of one run.

    ``degraded`` is True when the run deviated from its planned
    CPU/FPGA placement (re-partitioned, fell back to the CPU, or lost
    a device) — retried-and-recovered faults alone do not degrade a
    run. ``device_status`` maps device index to ``"ok"`` / ``"dead"``
    (single-device runs report device 0).
    """

    events: list[FaultEvent] = field(default_factory=list)
    retries: int = 0
    repartitions: int = 0
    fallbacks: int = 0
    failovers: int = 0
    backoff_seconds: float = 0.0
    device_status: dict[int, str] = field(default_factory=dict)

    _ACTION_COUNTERS = {
        "retry": "retries",
        "repartition": "repartitions",
        "cpu_fallback": "fallbacks",
        "failover": "failovers",
    }

    def record(self, event: FaultEvent) -> FaultEvent:
        """Append ``event`` and bump the counter its action maps to."""
        self.events.append(event)
        counter = self._ACTION_COUNTERS.get(event.action)
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        self.backoff_seconds += event.backoff_seconds
        return self

    def mark_device(self, index: int, status: str) -> None:
        self.device_status[index] = status

    @property
    def degraded(self) -> bool:
        return bool(
            self.repartitions
            or self.fallbacks
            or self.failovers
            or any(s != "ok" for s in self.device_status.values())
        )

    def to_dict(self) -> dict[str, Any]:
        """The ``health`` block of the run's metrics payload."""
        return {
            "degraded": self.degraded,
            "retries": self.retries,
            "repartitions": self.repartitions,
            "fallbacks": self.fallbacks,
            "failovers": self.failovers,
            "backoff_seconds": self.backoff_seconds,
            "fault_events": [e.to_dict() for e in self.events],
            "device_status": {
                str(k): v for k, v in sorted(self.device_status.items())
            },
        }
