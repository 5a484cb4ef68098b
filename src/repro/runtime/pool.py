"""Supervised warm worker pool: host faults as recoverable events.

The execute stage's ``workers > 1`` path runs on a long-lived
:class:`WorkerPool` that makes the host-fault story match the
modeled-fault story (retry → re-partition → CPU fallback): a worker
killed by OOM, a segfault or ``kill -9`` never loses the run (or,
under ``repro serve``, the batch), because every host failure has a
bounded, deterministic-in-value recovery path.

Design, in one pass:

* **Warm.** Workers are forked once and reused across execute stages
  and serve batches, amortizing both the fork itself and the
  per-worker shared-memory attachment / loaded-set cache warmup.
  Parent and workers talk over one duplex pipe per worker, one task
  per message; an idle worker blocks on its pipe and sends nothing.
* **Supervised.** A dead worker (SIGKILL, segfault, OOM) is detected
  by liveness polling + pipe EOF, respawned, and its in-flight task
  re-dispatched with a bumped attempt number. A task whose dispatch
  is silent past the wall-clock watchdog is *hedged* — re-dispatched
  to an idle worker, first completion wins — and the worker itself is
  SIGKILLed once it is silent past twice the watchdog. A task that
  crashes its worker :data:`MAX_CRASHES` times is *quarantined*: the
  pool runs it inline in the parent process, executing the exact same
  pure task function, so counts, modeled seconds, and health records
  stay bit-identical to a fault-free run.
* **Shm-loss aware.** A worker that finds a task's shared-memory CST
  segment gone (really unlinked, or injected via
  :class:`~repro.runtime.faults.HostFaultPlan`) reports ``shm_lost``;
  the parent swaps in a pickled fallback payload for that task and
  re-dispatches, so losing the zero-copy plane degrades wall-clock
  only.

The execute stage already batches partitions into windows (one task
per window of a device queue or of the CPU share), so a task is the
unit of dispatch, hedging, and crash accounting.

Determinism: task *values* never depend on supervision. Tasks are
pure functions of their arguments, results are keyed by task index,
and duplicate completions (hedges, post-error stragglers) are
discarded, so whichever copy wins delivers the same value — the
"deterministic index-ordered winner". Everything in this module is
wall-clock machinery; modeled seconds, fingerprints, and embedding
counts are unchanged at any setting (the property the chaos suite
checks).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Sequence

from repro.common.errors import (
    DeviceError,
    WorkerCrashError,
    WorkerShmLost,
)
from repro.runtime.faults import HostFaultPlan

#: A unit of work: ``(fn, args)`` with ``fn`` a module-level function
#: and every argument picklable (tasks cross a process boundary).
Task = tuple[Callable[..., Any], tuple]

#: How many trace events the pool retains between drains.
_MAX_EVENTS = 10_000

#: Worker deaths a task may cause before it is quarantined inline.
MAX_CRASHES = 2

#: Longest the parent waits on worker pipes before re-checking
#: liveness and the watchdog during a run.
_POLL_S = 0.2

_PR_SET_PDEATHSIG = 1


def install_parent_death_tether(
    parent_pid: int | None = None, poll_interval: float = 0.5
) -> str:
    """Make the calling process exit when its parent dies.

    Orphaned workers must never outlive the parent: they would pin
    shared-memory attachments and the resource tracker's pipe open
    indefinitely. On Linux, ``prctl(PR_SET_PDEATHSIG, SIGKILL)``
    delivers SIGKILL the instant the parent exits. Everywhere else —
    or if ``prctl`` fails — a daemon thread polls ``os.getppid()``
    and ``os._exit(1)``\\ s the moment the parent changes, so the
    tether is never a silent no-op. Returns the mechanism installed
    (``"prctl"`` or ``"poll"``), which the tests assert on.
    """
    if parent_pid is None:
        parent_pid = os.getppid()
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL)) == 0:
            if os.getppid() != parent_pid:  # parent died pre-prctl
                os._exit(1)
            return "prctl"
    except Exception:
        pass

    def _poll() -> None:  # pragma: no cover - exercised in subprocess
        while True:
            if os.getppid() != parent_pid:
                os._exit(1)
            time.sleep(poll_interval)

    thread = threading.Thread(
        target=_poll, daemon=True, name="parent-tether"
    )
    thread.start()
    return "poll"


def _drop_shm_attachments() -> None:
    """Forget this process's shared-memory attachments and loaded sets.

    Used by the injected ``shm_unlink`` fault to simulate losing the
    CST plane: subsequent set loads in this worker behave as if the
    segments were never mapped.
    """
    from repro.runtime import shm

    shm._ATTACHED.clear()
    shm._ATTACHMENTS.clear()
    shm._SETS.clear()


def _pool_worker_main(
    conn: Any,
    parent_pid: int,
    fault_plan: HostFaultPlan | None,
) -> None:  # pragma: no cover - runs in the worker process
    """Worker loop: block for a task, run it, reply."""
    install_parent_death_tether(parent_pid)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, dispatch_seq, attempt, item, trace = message
        reply = _run_chunk(dispatch_seq, attempt, item, fault_plan, trace)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return




def _run_chunk(
    dispatch_seq: int,
    attempt: int,
    item: tuple[int, Callable[..., Any], tuple, bool],
    fault_plan: HostFaultPlan | None,
    trace: bool = False,
) -> tuple:
    """Execute one task inside a worker; returns the reply message.

    With ``trace`` set, the worker times the task (plus an injected
    stall and cold shared-memory attaches) against its own
    ``perf_counter`` — CLOCK_MONOTONIC, system-wide, so the parent can
    rebase the timestamps onto the tracer's wall clock — and ships the
    spans back inside the ``done`` reply:
    ``(name, start_perf, seconds, args)`` per span.
    """
    task_index, fn, args, uses_shm = item
    spans: list[tuple[str, float, float, dict]] = []
    if fault_plan is not None:
        if attempt < fault_plan.fires("worker_kill", task_index):
            os.kill(os.getpid(), signal.SIGKILL)
        if attempt < fault_plan.fires("worker_stall", task_index):
            stall_start = time.perf_counter()
            time.sleep(fault_plan.stall_seconds)
            spans.append((
                "host-stall", stall_start,
                time.perf_counter() - stall_start,
                {"task": task_index},
            ))
        if uses_shm and attempt < fault_plan.fires(
            "shm_unlink", task_index
        ):
            _drop_shm_attachments()
            return ("shm_lost", dispatch_seq, "injected shm loss")
    start = time.perf_counter()
    try:
        result = fn(*args)
    except FileNotFoundError as exc:
        if uses_shm:  # the CST segment is genuinely gone
            return ("shm_lost", dispatch_seq, repr(exc))
        return _error_reply(dispatch_seq, exc)
    except Exception as exc:
        return _error_reply(dispatch_seq, exc)
    if not trace:
        return ("done", dispatch_seq, result)
    spans.append((
        "pool-task", start, time.perf_counter() - start,
        {"task": task_index, "attempt": attempt},
    ))
    from repro.runtime import shm

    for segment, attach_start, seconds in shm.drain_attach_events():
        spans.append((
            "shm-attach", attach_start, seconds, {"segment": segment},
        ))
    return ("done", dispatch_seq, result, spans)


def _error_reply(dispatch_seq: int, exc: Exception) -> tuple:
    """Package a task exception so the parent can re-raise it typed."""
    try:
        payload: bytes | None = pickle.dumps(exc)
    except Exception:
        payload = None
    return ("error", dispatch_seq, payload, traceback.format_exc())


@dataclass(frozen=True)
class PoolConfig:
    """Shape and supervision knobs of a :class:`WorkerPool`.

    All wall-clock domain. ``watchdog_s`` is the silence budget before
    a dispatch is hedged (stall-kill at twice that; 0 disables);
    ``host_faults`` injects seeded host faults into the workers.
    """

    workers: int = 2
    watchdog_s: float = 30.0
    host_faults: HostFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DeviceError("pool workers must be >= 1")
        if self.watchdog_s < 0.0:
            raise DeviceError("pool watchdog must be >= 0")


@dataclass
class PoolStats:
    """Cumulative supervision counters of one pool (wall-clock only).

    ``chunks`` counts dispatched tasks (one per :meth:`WorkerPool.run`
    task, whatever its supervision).
    """

    spawned: int = 0
    respawns: int = 0
    redispatches: int = 0
    hedges: int = 0
    quarantines: int = 0
    shm_fallbacks: int = 0
    stall_kills: int = 0
    chunks: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("slot", "process", "conn", "current", "dispatched_at")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Any = None
        self.conn: Any = None
        #: dispatch_seq of the in-flight task, or None when idle.
        self.current: int | None = None
        self.dispatched_at = 0.0

    @property
    def busy(self) -> bool:
        return self.current is not None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _Chunk:
    """One task and its supervision state: the unit of dispatch."""

    __slots__ = (
        "item", "attempt", "crashes", "hedged", "queued", "completed",
        "inflight",
    )

    def __init__(
        self, item: tuple[int, Callable[..., Any], tuple, bool]
    ) -> None:
        #: ``(task_index, fn, args, uses_shm)``.
        self.item = item
        self.attempt = 0
        self.crashes = 0
        self.hedged = False
        self.queued = True
        self.completed = False
        #: Live dispatch_seqs of this task (primary + hedges).
        self.inflight: set[int] = set()

    @property
    def index(self) -> int:
        return self.item[0]


class WorkerPool:
    """Warm, supervised process pool with index-ordered results.

    See the module docstring for the supervision model. The pool is
    *not* thread-safe: one ``run`` at a time (the execute stage and
    the serve loop both satisfy this). Workers are forked lazily on
    the first ``run`` and live until :meth:`recycle` or :meth:`close`,
    which the owning :class:`~repro.runtime.context.RunContext` or
    ``MatchServer`` calls.
    """

    def __init__(self, config: PoolConfig | None = None) -> None:
        self.config = config or PoolConfig()
        self.stats = PoolStats()
        self._workers: list[_Worker] = [
            _Worker(slot) for slot in range(self.config.workers)
        ]
        #: dispatch_seq -> task, for every in-flight dispatch,
        #: including stale ones left by an aborted run.
        self._dispatches: dict[int, _Chunk] = {}
        self._next_seq = 0
        self._events: list[tuple[float, str, dict[str, Any]]] = []
        #: Whether dispatches ask workers to time their tasks; spans
        #: come back in ``done`` replies and buffer here as
        #: ``(worker_slot, name, start_perf, seconds, args)``.
        self._trace = False
        self._worker_spans: list[
            tuple[int, str, float, float, dict[str, Any]]
        ] = []
        self._closed = False
        try:
            self._mp = get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = get_context()
        watchdog = self.config.watchdog_s
        self._tick = max(0.01, min(
            _POLL_S, watchdog / 4.0 if watchdog > 0.0 else _POLL_S,
        ))

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (pool is unusable)."""
        return self._closed

    # ------------------------------------------------------------ spawn

    def ensure_workers(self) -> None:
        """Fork any missing workers (first run, post-close reuse)."""
        if self._closed:
            raise DeviceError("worker pool is closed")
        for worker in self._workers:
            if not worker.alive():
                self._spawn(worker)

    def _spawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_pool_worker_main,
            args=(child_conn, os.getpid(), self.config.host_faults),
            daemon=True,
            name=f"repro-pool-{worker.slot}",
        )
        process.start()
        # Drop the parent's copy of the child end so a dead worker
        # reads as EOF on our end of the pipe.
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.current = None
        self.stats.spawned += 1

    def worker_pids(self) -> list[int]:
        """PIDs of live workers (chaos tests kill these directly)."""
        return [
            w.process.pid for w in self._workers
            if w.alive() and w.process.pid is not None
        ]

    # ------------------------------------------------------------ events

    def _event(self, kind: str, **detail: Any) -> None:
        if len(self._events) < _MAX_EVENTS:
            self._events.append((time.perf_counter(), kind, detail))

    def drain_events(self) -> list[tuple[float, str, dict[str, Any]]]:
        """Return and clear buffered supervision events (for tracing)."""
        events, self._events = self._events, []
        return events

    def set_trace(self, enabled: bool) -> None:
        """Ask workers to time their tasks on subsequent dispatches.

        Worker-side spans ride back inside ``done`` replies and buffer
        until :meth:`drain_worker_spans`; with tracing off the reply
        protocol is byte-identical to before this feature existed.
        """
        self._trace = bool(enabled)

    def drain_worker_spans(
        self,
    ) -> list[tuple[int, str, float, float, dict[str, Any]]]:
        """Return and clear buffered worker-side spans.

        Each entry is ``(worker_slot, name, start_perf, seconds,
        args)``; slot ``-1`` marks parent-inline (quarantine) work.
        Only spans from the *winning* copy of a task are kept —
        duplicate completions (hedges, stragglers) are dropped with
        their results, so the trace never shows the same task twice.
        """
        spans, self._worker_spans = self._worker_spans, []
        return spans

    def _record_worker_spans(
        self,
        slot: int,
        spans: Sequence[tuple[str, float, float, dict[str, Any]]],
    ) -> None:
        for name, start, seconds, args in spans:
            if len(self._worker_spans) >= _MAX_EVENTS:
                return
            self._worker_spans.append((slot, name, start, seconds, args))

    # ------------------------------------------------------------ run

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Callable[[int, Any], None] | None = None,
        uses_shm: Sequence[bool] | None = None,
        fallback: Callable[[int], Task] | None = None,
    ) -> list[Any]:
        """Execute ``tasks``; results are returned in task order.

        ``on_result(index, result)`` fires in the parent as each task
        completes (the run journal's persistence hook). ``uses_shm``
        marks tasks whose arguments reference the shared-memory CST
        plane; ``fallback(index)`` must then build an equivalent
        pickled task, used when a worker reports the segment lost.
        Exceptions raised by tasks (or by ``on_result``) propagate
        with their original type; in-flight tasks of an aborted run
        are discarded when their stragglers arrive.
        """
        if not tasks:
            return []
        self.ensure_workers()
        chunks = [
            _Chunk((
                i, fn, args,
                bool(uses_shm[i]) if uses_shm is not None else False,
            ))
            for i, (fn, args) in enumerate(tasks)
        ]
        self.stats.chunks += len(chunks)
        pending: deque[_Chunk] = deque(chunks)
        results: dict[int, Any] = {}
        state = {
            "done": 0,
            "error": None,
            "fallback": fallback,
            "on_result": on_result,
            "results": results,
            "pending": pending,
        }
        try:
            while state["done"] < len(chunks):
                if state["error"] is not None:
                    break
                self._dispatch_idle(state)
                self._pump_messages(state)
                self._reap_dead(state)
                self._watchdog(state)
        finally:
            # Anything still in flight belongs to an aborted run:
            # mark it stale so stragglers are dropped, not delivered.
            for chunk in chunks:
                chunk.completed = True
            pending.clear()
        if state["error"] is not None:
            raise state["error"]
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------- run internals

    def _idle_workers(self) -> list[_Worker]:
        return [w for w in self._workers if w.alive() and not w.busy]

    def _dispatch_idle(self, state: dict[str, Any]) -> None:
        if state["error"] is not None:
            return
        pending: deque[_Chunk] = state["pending"]
        for worker in self._idle_workers():
            if not pending:
                return
            chunk = pending.popleft()
            chunk.queued = False
            if not self._send(worker, chunk):
                # The worker died between liveness check and send;
                # the reap pass respawns it, the task goes back on
                # the queue for the next loop iteration.
                chunk.queued = True
                pending.appendleft(chunk)
                return

    def _send(self, worker: _Worker, chunk: _Chunk) -> bool:
        seq = self._next_seq
        self._next_seq += 1
        try:
            worker.conn.send(
                ("run", seq, chunk.attempt, chunk.item, self._trace)
            )
        except (BrokenPipeError, OSError):
            self._kill_worker(worker)
            return False
        chunk.attempt += 1
        chunk.inflight.add(seq)
        self._dispatches[seq] = chunk
        worker.current = seq
        worker.dispatched_at = time.perf_counter()
        return True

    def _pump_messages(self, state: dict[str, Any]) -> None:
        conns = {
            w.conn: w for w in self._workers
            if w.conn is not None and w.alive()
        }
        if not conns:
            return
        try:
            ready = _connection_wait(list(conns), timeout=self._tick)
        except OSError:
            return
        for conn in ready:
            worker = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._kill_worker(worker)
                continue
            kind, seq = message[0], message[1]
            chunk = self._dispatches.pop(seq, None)
            if worker.current == seq:
                worker.current = None
            if chunk is None:
                continue
            chunk.inflight.discard(seq)
            if chunk.completed:
                continue
            if kind == "done":
                # Spans arrive only from the winning copy: duplicate
                # completions bailed out above, so hedged losers never
                # double-report a task.
                if len(message) > 3 and message[3]:
                    self._record_worker_spans(worker.slot, message[3])
                chunk.completed = True
                state["done"] += 1
                self._deliver(chunk.index, message[2], state)
            elif kind == "shm_lost":
                self._shm_lost(chunk, message[2], state)
            elif kind == "error":
                self._task_error(chunk, message[2], message[3], state)

    def _deliver(
        self, task_index: int, value: Any, state: dict[str, Any]
    ) -> None:
        state["results"][task_index] = value
        on_result = state["on_result"]
        if on_result is not None:
            try:
                on_result(task_index, value)
            except BaseException as exc:
                state["error"] = exc

    def _shm_lost(
        self, chunk: _Chunk, message: str, state: dict[str, Any],
    ) -> None:
        fallback = state["fallback"]
        if fallback is None:
            state["error"] = WorkerShmLost(
                f"task {chunk.index} lost its shared-memory CST plane "
                f"({message}) and no pickled fallback is available"
            )
            return
        if chunk.item[3]:  # a hedged copy may have swapped it already
            fb_fn, fb_args = fallback(chunk.index)
            chunk.item = (chunk.index, fb_fn, fb_args, False)
            self.stats.shm_fallbacks += 1
            self._event("shm_fallback", task=chunk.index, detail=message)
        self._maybe_requeue(chunk, state)

    def _task_error(
        self, chunk: _Chunk, payload: bytes | None, text: str,
        state: dict[str, Any],
    ) -> None:
        chunk.completed = True
        state["done"] += 1
        error: BaseException | None = None
        if payload is not None:
            try:
                error = pickle.loads(payload)
            except Exception:
                error = None
        if error is None:
            error = WorkerCrashError(
                f"worker task failed and its exception did not "
                f"round-trip:\n{text}"
            )
        state["error"] = error

    def _maybe_requeue(
        self, chunk: _Chunk, state: dict[str, Any]
    ) -> None:
        """Re-queue a lost task once no copy of it is in flight."""
        if chunk.completed or chunk.queued or chunk.inflight:
            return
        if chunk.crashes >= MAX_CRASHES:
            self._quarantine(chunk, state)
            return
        chunk.queued = True
        state["pending"].appendleft(chunk)
        self.stats.redispatches += 1
        self._event(
            "redispatch", task=chunk.index, attempt=chunk.attempt
        )

    def _quarantine(
        self, chunk: _Chunk, state: dict[str, Any]
    ) -> None:
        """Run a worker-killing task inline in the parent.

        Inline execution of the same pure task function is the exact
        fallback: counts, modeled seconds, and health records are
        bit-identical, only wall-clock placement changes. Injected
        host faults never fire here — they live in the worker loop.
        """
        self.stats.quarantines += 1
        self._event("quarantine", task=chunk.index)
        chunk.completed = True
        state["done"] += 1
        task_index, fn, args, _uses = chunk.item
        start = time.perf_counter()
        try:
            value = fn(*args)
        except BaseException as exc:
            state["error"] = exc
            return
        if self._trace:
            self._record_worker_spans(-1, [(
                "pool-task", start, time.perf_counter() - start,
                {"task": task_index, "quarantined": True},
            )])
        self._deliver(task_index, value, state)

    def _reap_dead(self, state: dict[str, Any]) -> None:
        for worker in self._workers:
            if worker.process is None or worker.alive():
                continue
            seq = worker.current
            worker.current = None
            self.stats.respawns += 1
            self._event(
                "respawn", worker=worker.slot,
                exitcode=worker.process.exitcode,
            )
            if not self._closed:
                self._spawn(worker)
            if seq is None:
                continue
            chunk = self._dispatches.pop(seq, None)
            if chunk is None or chunk.completed:
                continue
            chunk.inflight.discard(seq)
            chunk.crashes += 1
            self._maybe_requeue(chunk, state)

    def _watchdog(self, state: dict[str, Any]) -> None:
        watchdog = self.config.watchdog_s
        if watchdog <= 0.0:
            return
        now = time.perf_counter()
        for worker in list(self._workers):
            if not worker.busy or not worker.alive():
                continue
            elapsed = now - worker.dispatched_at
            if elapsed <= watchdog:
                continue
            chunk = self._dispatches.get(worker.current)
            if chunk is None or chunk.completed:
                continue
            if elapsed > 2.0 * watchdog:
                # Stalled past the kill line: SIGKILL the worker; the
                # reap pass respawns it and re-queues the task.
                self.stats.stall_kills += 1
                self._event(
                    "stall_kill", worker=worker.slot, task=chunk.index,
                )
                self._kill_worker(worker)
            elif not chunk.hedged:
                idle = self._idle_workers()
                if idle and self._send(idle[0], chunk):
                    chunk.hedged = True
                    self.stats.hedges += 1
                    self._event(
                        "hedge", task=chunk.index, attempt=chunk.attempt,
                    )

    def _kill_worker(self, worker: _Worker) -> None:
        if worker.process is None:
            return
        try:
            worker.process.kill()
        except (OSError, ValueError):  # pragma: no cover
            pass
        worker.process.join(timeout=5.0)

    # ------------------------------------------------------------ close

    def _stop_worker(self, worker: _Worker, timeout: float = 2.0) -> None:
        if worker.process is None:
            return
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError, AttributeError):
            pass
        worker.process.join(timeout=timeout)
        if worker.process.is_alive():
            self._kill_worker(worker)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        worker.process = None
        worker.current = None

    def recycle(self) -> None:
        """Stop every worker; the next run forks a fresh set.

        The serve layer calls this when it recycles its shared arena,
        so workers drop attachments to unlinked segments.
        """
        for worker in self._workers:
            self._stop_worker(worker)
        self._dispatches.clear()

    def close(self) -> None:
        """Stop all workers permanently (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._stop_worker(worker)
        self._dispatches.clear()
