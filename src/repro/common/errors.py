"""Exception hierarchy shared across the reproduction.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    #: Whether retrying the failed operation can possibly succeed.
    #: Transient errors are retried by the execute-stage supervisor
    #: under its :class:`~repro.runtime.faults.RetryPolicy`; fatal
    #: errors propagate immediately.
    transient = False


class GraphError(ReproError):
    """A graph is malformed or an operation received an invalid vertex."""


class QueryError(ReproError):
    """A query graph violates the constraints of the matching problem."""


class CSTError(ReproError):
    """Construction or partitioning of a candidate search tree failed."""


class PartitionError(CSTError):
    """A CST partition request cannot be satisfied."""


class DeviceError(ReproError):
    """The simulated FPGA device was configured or driven incorrectly."""


class BufferOverflowError(DeviceError):
    """A BRAM buffer exceeded its allocated capacity.

    Under the deepest-first expansion policy of Section VI-B this should
    never happen; seeing it means either the policy was disabled or the
    buffer was sized below ``(|V(q)| - 1) * N_o``.
    """


class TransientDeviceError(DeviceError):
    """A device fault that may clear on retry (transient-vs-fatal split).

    The execute-stage supervisor catches this hierarchy, applies
    bounded retries with backoff, and walks the degradation ladder
    (re-partition, then CPU fallback) when retries exhaust. Anything
    that is a plain :class:`DeviceError` is fatal and propagates.
    """

    transient = True
    #: Fault-plan kind this error corresponds to (see
    #: :data:`repro.runtime.faults.FAULT_KINDS`).
    kind = "device_unavailable"


class DeviceUnavailableError(TransientDeviceError):
    """The device did not respond to a launch (driver reset, busy)."""

    kind = "device_unavailable"


class PcieTransferError(TransientDeviceError):
    """A host<->card DMA transfer failed or was corrupted in flight."""

    kind = "pcie_error"


class KernelTimeoutError(TransientDeviceError):
    """A kernel launch exceeded its watchdog budget (device hang)."""

    kind = "kernel_timeout"


class BramSoftError(TransientDeviceError):
    """A BRAM soft error (bit flip) invalidated a kernel's results."""

    kind = "bram_soft_error"


class FatalDeviceError(DeviceError):
    """No recovery path remains (e.g. every device in a pool died)."""


class WorkerCrashError(ReproError):
    """A host worker process died while partition tasks were in flight.

    This is a *host* fault (OOM kill, segfault, operator ``kill -9``),
    not a modeled device fault: it changes wall-clock time only, never
    counts or modeled seconds. The supervised worker pool
    (:mod:`repro.runtime.pool`) respawns the worker and re-dispatches
    the lost tasks, quarantining a repeat crasher inline. Only when
    that recovery itself fails does this error propagate.
    """

    transient = True


class WorkerShmLost(WorkerCrashError):
    """A worker lost its view of the shared-memory CST plane.

    The segment a task's placed partition set points at is gone from
    the worker's perspective (unlinked externally, or injected via the
    host-fault plane). The pool re-dispatches the task with its
    partitions pickled so the run completes bit-identically; the error
    propagates only when no pickled fallback is available.
    """


class SchedulerError(ReproError):
    """The host-side workload scheduler was misconfigured."""


class JournalError(ReproError):
    """The run journal is missing, unreadable, or misused."""


class JournalVersionError(JournalError):
    """A journal was written in another record format version.

    Its records cannot be read back faithfully (a version-1 journal
    stores traced module lanes as expanded spans), so the resume is
    refused rather than replayed.
    """


class JournalMismatchError(JournalError):
    """A resume was attempted against a journal of a *different* run.

    The journal header's run fingerprint (query + dataset + backend +
    deltas + fault seed + executor config) does not match the run
    being resumed; replaying its partitions would corrupt the counts.
    The CLI surfaces this as the distinct ``RESUME-MISMATCH`` verdict
    (exit code 7).
    """

    verdict = "RESUME-MISMATCH"


class DeadlineExceededError(ReproError):
    """A job's modeled-time budget ran out at a cancellation point.

    Deadlines are evaluated against the *modeled* clock (never wall
    time) so that whether a job is cancelled — and therefore the
    per-job status sequence of the serving layer — is deterministic
    across runs and worker counts. Cancellation fires between stages
    (:meth:`repro.runtime.context.RunContext.stage`) and between
    partition completions inside the execute stage; partial work is
    already journaled at that point, so the run journal stays
    resumable. The serving layer surfaces this as the distinct
    ``DEADLINE`` status.
    """

    verdict = "DEADLINE"


class ServeError(ReproError):
    """The serving layer failed to start, bind, or recover its state.

    The CLI surfaces this as the distinct ``SERVE-FAILED`` verdict
    (exit code 8).
    """

    verdict = "SERVE-FAILED"


class ProtocolError(ServeError):
    """A request line violates the newline-JSON serving protocol.

    Unlike :class:`ServeError` proper this never takes the server
    down: the offending request is answered with a ``FATAL`` status
    and the server keeps serving.
    """


class ExperimentError(ReproError):
    """An experiment driver received inconsistent parameters."""


class BackendError(ReproError):
    """A backend name failed to resolve or was registered twice."""


class ResourceExhausted(ReproError):
    """Base class for modeled resource-exhaustion verdicts (OOM/INF)."""

    verdict = "FAIL"


class ModeledOutOfMemory(ResourceExhausted):
    """The modeled memory accounting exceeded the device capacity.

    Mirrors the 'OOM' verdict the paper reports for CFL-Match on DG60
    and DAF-8 on DG03/DG10.
    """

    verdict = "OOM"


class ModeledTimeout(ResourceExhausted):
    """The modeled execution time exceeded the experiment time limit.

    Mirrors the 'INF' verdict the paper reports for queries that exceed
    the 3-hour limit.
    """

    verdict = "INF"


class ModeledOverflow(ResourceExhausted):
    """A modeled counter overflowed its width.

    Mirrors the overflow errors the paper reports for DAF on DG60, caused
    by the large search space under few labels.
    """

    verdict = "OVERFLOW"
