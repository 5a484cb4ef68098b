"""Whole-process CPU and memory, process clean-up, machine facts, host
speed, and order statistics.

Warm pool workers live until their pool is closed, so
``RUSAGE_CHILDREN`` never sees them while a timed phase runs. Their
CPU and peak memory are read from ``/proc/<pid>/stat`` and
``/proc/<pid>/status`` instead, for every child that
:func:`multiprocessing.active_children` reports.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import signal
import statistics
import time
from multiprocessing import resource_tracker

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # The command name may hold spaces; fields resume after ")".
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of the full line.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _status_kib(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def worker_cpu_seconds() -> dict[int, float]:
    """CPU seconds so far of each live child process, by pid."""
    out: dict[int, float] = {}
    for child in multiprocessing.active_children():
        try:
            out[child.pid] = _stat_cpu_seconds(child.pid)
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between the listing and the read
    return out


def worker_cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU the children burned between two snapshots.

    A worker forked after ``before`` counts from zero; one that died
    before ``after`` is lost (a respawn shows in the pool retries).
    """
    return sum(cpu - before.get(pid, 0.0) for pid, cpu in after.items())


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live children."""
    kib = _status_kib("self", "VmHWM")
    for child in multiprocessing.active_children():
        try:
            kib += _status_kib(child.pid, "VmHWM")
        except (FileNotFoundError, ProcessLookupError):
            continue
    return kib / 1024.0


def stop_processes(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait for each to end.

    Besides the pool workers, creating a shared-memory segment starts
    multiprocessing's resource tracker. It is no child that
    :func:`multiprocessing.active_children` lists, and it lives on
    after this process exits until it reads EOF on its pipe. So the
    workers go first (they hold copies of that pipe), then the pipe is
    closed and the tracker, after unlinking any segment still
    registered, is waited for.
    """
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return
    tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def machine_block() -> dict:
    """The facts a reader needs to compare two results."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": loadavg(),
    }


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(values: list[float], q: float, beyond: int = 10):
    """``quantile(values, q)`` when at least ``beyond`` samples lie
    above it, else ``None`` (too few samples to trust the tail)."""
    if not values or len(values) - math.ceil(q * len(values)) < beyond:
        return None
    return quantile(values, q)


# -- host speed ---------------------------------------------------------

#: Seconds the reference work takes on the nominal host. Every timing
#: in the result is scaled to that host (NOTES.md, "Noise").
REF_NOMINAL_S = 0.010

_REF_ARRAY = np.arange(512, dtype=np.int64)


def _reference_work() -> int:
    """Fixed work in the program's mix of interpreted Python and small
    numpy calls. It never changes, so that it measures only the host.
    Changing it rebases every timing of the benchmark."""
    acc = 0
    for i in range(3000):
        row = {j: j * i for j in range(6)}
        acc += sum(row.values())
        acc += len([x for x in range(10) if x & 1])
        if i % 4 == 0:
            lo = i % 400
            acc += int(np.searchsorted(_REF_ARRAY, _REF_ARRAY[lo:lo + 32])[0])
    return acc


def host_probe() -> float:
    """Seconds the reference work takes now: the host's current speed."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


#: Probes taken at a time: before each closed-loop op, around each
#: phase and around each set-up.
PROBES = 2


def host_probes() -> list[float]:
    return [host_probe() for _ in range(PROBES)]


def host_scale(probes: list[float]) -> float:
    """Factor that turns seconds measured alongside ``probes`` into
    seconds on the nominal host."""
    return REF_NOMINAL_S / statistics.fmean(probes)
