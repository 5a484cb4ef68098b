"""Unit tests for the supervised warm worker pool (ISSUE 9).

Everything here is in-process: the pool's own supervision (respawn,
re-dispatch, hedge, quarantine, shm fallback) recovers
from real worker SIGKILLs without taking pytest down. Whole-pipeline
chaos runs live in ``test_pool_chaos.py``; the orphan-tether tests
spawn subprocesses because parent death cannot be simulated in-process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.common.errors import (
    DeviceError,
    WorkerCrashError,
    WorkerShmLost,
)
from repro.runtime.faults import (
    HOST_FAULT_KINDS,
    HostFaultPlan,
)
from repro.runtime.pool import PoolConfig, WorkerPool

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- module-level task functions (pickled by reference into workers) --

def double(x):
    return 2 * x


def pid_tag(x):
    return (x, os.getpid())


def slow_echo(x):
    time.sleep(0.05)
    return x


def boom(x):
    raise ValueError(f"boom {x}")


def missing_segment(x):
    raise FileNotFoundError(f"/dev/shm/psm_gone_{x}")


def fb_value(x):
    return ("fb", x)


def make_pool(**kwargs):
    kwargs.setdefault("workers", 2)
    return WorkerPool(PoolConfig(**kwargs))


class TestPoolConfig:
    # Each row keeps the id it had while PoolConfig also validated the
    # since-removed ttl, heartbeat_s and max_crashes fields.
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"workers": 0}, id="kwargs0"),
        pytest.param({"watchdog_s": -1.0}, id="kwargs3"),
    ])
    def test_invalid_values_raise_typed(self, kwargs):
        with pytest.raises(DeviceError):
            PoolConfig(**kwargs)

    def test_errors_are_typed_and_transient(self):
        assert WorkerCrashError("x").transient
        assert issubclass(WorkerShmLost, WorkerCrashError)


class TestWorkerPoolBasics:
    def test_results_in_task_order_with_on_result(self):
        pool = make_pool()
        try:
            seen = []
            results = pool.run(
                [(double, (i,)) for i in range(7)],
                on_result=lambda i, v: seen.append((i, v)),
            )
            assert results == [2 * i for i in range(7)]
            assert sorted(seen) == [(i, 2 * i) for i in range(7)]
        finally:
            pool.close()

    def test_empty_run_is_a_noop(self):
        pool = make_pool()
        try:
            assert pool.run([]) == []
            assert pool.stats.spawned == 0  # lazily forked
        finally:
            pool.close()

    def test_tasks_really_run_in_workers(self):
        pool = make_pool()
        try:
            results = pool.run([(pid_tag, (i,)) for i in range(4)])
            pids = {pid for _i, pid in results}
            assert os.getpid() not in pids
        finally:
            pool.close()

    def test_warm_reuse_across_runs(self):
        pool = make_pool(workers=2)
        try:
            first = pool.run([(pid_tag, (i,)) for i in range(4)])
            second = pool.run([(pid_tag, (i,)) for i in range(4)])
            assert pool.stats.spawned == 2  # forked once, reused
            assert {p for _, p in first} == {p for _, p in second}
        finally:
            pool.close()

    def test_idle_workers_send_nothing(self):
        pool = make_pool(workers=2)
        try:
            pool.run([(double, (i,)) for i in range(4)])
            time.sleep(0.5)
            # An idle worker blocks on its pipe: no message waits for
            # the parent between runs.
            assert not any(w.conn.poll(0) for w in pool._workers)
        finally:
            pool.close()

    def test_close_is_idempotent_and_terminal(self):
        pool = make_pool()
        pool.run([(double, (1,))])
        pids = pool.worker_pids()
        pool.close()
        pool.close()
        assert pool.closed
        for pid in pids:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} survived close()")
        with pytest.raises(DeviceError):
            pool.ensure_workers()


class TestHostFaultPlan:
    def test_fires_is_pure_and_deterministic(self):
        a = HostFaultPlan(seed=11)
        b = HostFaultPlan(seed=11)
        for kind in HOST_FAULT_KINDS:
            for i in range(64):
                assert a.fires(kind, i) == b.fires(kind, i)

    def test_seed_changes_schedule(self):
        a = HostFaultPlan(seed=1, rates={"worker_kill": 0.5})
        b = HostFaultPlan(seed=2, rates={"worker_kill": 0.5})
        assert any(
            a.fires("worker_kill", i) != b.fires("worker_kill", i)
            for i in range(64)
        )

    def test_rate_burst_bounded_by_max_consecutive(self):
        plan = HostFaultPlan(
            seed=3, rates={"worker_kill": 1.0}, max_consecutive=2
        )
        bursts = {plan.fires("worker_kill", i) for i in range(64)}
        assert bursts <= {1, 2} and bursts

    def test_targets_override_rates(self):
        plan = HostFaultPlan(
            seed=0,
            rates={k: 0.0 for k in HOST_FAULT_KINDS},
            targets={"worker_stall": {4: 3}},
        )
        assert plan.fires("worker_stall", 4) == 3
        assert plan.fires("worker_stall", 5) == 0
        assert plan.enabled

    def test_zero_rates_disable(self):
        plan = HostFaultPlan(
            seed=9, rates={k: 0.0 for k in HOST_FAULT_KINDS}
        )
        assert not plan.enabled
        assert all(
            plan.fires(k, i) == 0
            for k in HOST_FAULT_KINDS for i in range(32)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            HostFaultPlan(rates={"meteor": 0.5})
        with pytest.raises(ValueError):
            HostFaultPlan(targets={"meteor": {0: 1}})

    def test_plan_is_picklable(self):
        import pickle

        plan = HostFaultPlan(seed=5, targets={"worker_kill": {2: 1}})
        assert pickle.loads(pickle.dumps(plan)) == plan


def quiet_plan(**targets):
    """A plan whose only faults are the explicit targets."""
    return HostFaultPlan(
        seed=0,
        rates={k: 0.0 for k in HOST_FAULT_KINDS},
        targets=targets,
    )


class TestSupervision:
    def test_injected_kill_respawns_and_redispatches(self):
        plan = quiet_plan(worker_kill={2: 1, 5: 2})
        pool = make_pool(host_faults=plan)
        try:
            results = pool.run([(double, (i,)) for i in range(8)])
            assert results == [2 * i for i in range(8)]
            # idx 2 kills once (respawn + redispatch, second attempt
            # clean); idx 5 kills twice (two respawns, one redispatch,
            # then quarantined inline at MAX_CRASHES = 2).
            assert pool.stats.respawns == 3
            assert pool.stats.redispatches == 2
            assert pool.stats.quarantines == 1
        finally:
            pool.close()

    def test_quarantined_task_runs_inline_in_parent(self):
        plan = quiet_plan(worker_kill={3: 99})
        pool = make_pool(host_faults=plan)
        try:
            results = pool.run([(pid_tag, (i,)) for i in range(5)])
            ran_in = {i: pid for i, pid in results}
            assert ran_in[3] == os.getpid()  # inline = exact
            assert all(
                pid != os.getpid()
                for i, pid in ran_in.items() if i != 3
            )
            assert pool.stats.quarantines == 1
        finally:
            pool.close()

    def test_stall_is_hedged_not_waited_out(self):
        plan = quiet_plan(worker_stall={1: 1})
        pool = make_pool(watchdog_s=0.3, host_faults=plan)
        try:
            t0 = time.perf_counter()
            results = pool.run([(double, (i,)) for i in range(3)])
            elapsed = time.perf_counter() - t0
            assert results == [0, 2, 4]
            assert pool.stats.hedges >= 1
            # Recovery came from the hedge, not the 3600 s sleep.
            assert elapsed < plan.stall_seconds / 100
        finally:
            pool.close()

    def test_repeated_stall_converges_to_quarantine(self):
        # Burst 99 stalls every worker attempt; each stall-kill counts
        # toward the crash budget, so the task ends up inline.
        plan = quiet_plan(worker_stall={0: 99})
        pool = make_pool(watchdog_s=0.15, host_faults=plan)
        try:
            results = pool.run([(double, (i,)) for i in range(2)])
            assert results == [0, 2]
            assert pool.stats.stall_kills >= 2
            assert pool.stats.quarantines == 1
        finally:
            pool.close()

    def test_injected_shm_loss_uses_fallback(self):
        plan = quiet_plan(shm_unlink={2: 1})
        pool = make_pool(host_faults=plan)
        try:
            results = pool.run(
                [(double, (i,)) for i in range(5)],
                uses_shm=[True] * 5,
                fallback=lambda i: (fb_value, (i,)),
            )
            assert results[2] == ("fb", 2)
            assert [results[i] for i in (0, 1, 3, 4)] == [0, 2, 6, 8]
            assert pool.stats.shm_fallbacks == 1
        finally:
            pool.close()

    def test_injected_shm_loss_without_fallback_is_typed(self):
        plan = quiet_plan(shm_unlink={0: 1})
        pool = make_pool(host_faults=plan)
        try:
            with pytest.raises(WorkerShmLost):
                pool.run([(double, (0,))], uses_shm=[True])
        finally:
            pool.close()

    def test_injected_shm_loss_ignores_non_shm_tasks(self):
        plan = quiet_plan(shm_unlink={1: 1})
        pool = make_pool(host_faults=plan)
        try:
            # uses_shm defaults to False: the shm_unlink target never
            # fires and no fallback is needed.
            assert pool.run(
                [(double, (i,)) for i in range(3)]
            ) == [0, 2, 4]
            assert pool.stats.shm_fallbacks == 0
        finally:
            pool.close()

    def test_real_missing_segment_takes_fallback_path(self):
        pool = make_pool()
        try:
            results = pool.run(
                [(missing_segment, (i,)) for i in range(3)],
                uses_shm=[True] * 3,
                fallback=lambda i: (fb_value, (i,)),
            )
            assert results == [("fb", i) for i in range(3)]
            assert pool.stats.shm_fallbacks == 3
        finally:
            pool.close()

    def test_real_missing_file_without_shm_is_reraised(self):
        pool = make_pool()
        try:
            with pytest.raises(FileNotFoundError):
                pool.run([(missing_segment, (0,))])
        finally:
            pool.close()

    def test_task_exception_keeps_original_type(self):
        pool = make_pool()
        try:
            with pytest.raises(ValueError, match="boom 3"):
                pool.run([(double, (0,)), (boom, (3,))])
            # The pool survives a failed run and serves the next one.
            assert pool.run([(double, (i,)) for i in range(4)]) == [
                0, 2, 4, 6,
            ]
        finally:
            pool.close()

    def test_external_sigkill_mid_run_recovers(self):
        pool = make_pool(workers=2, watchdog_s=5.0)
        try:
            pool.ensure_workers()
            victim = pool.worker_pids()[0]

            def assassinate():
                time.sleep(0.1)
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            killer = threading.Thread(target=assassinate)
            killer.start()
            results = pool.run([(slow_echo, (i,)) for i in range(8)])
            killer.join()
            assert results == list(range(8))
            assert pool.stats.respawns >= 1
        finally:
            pool.close()


ORPHAN_SCRIPT = textwrap.dedent("""
    import os
    import sys
    import time

    from repro.runtime.pool import PoolConfig, WorkerPool

    def park(x):
        return x

    pool = WorkerPool(PoolConfig(workers=2))
    pool.run([(park, (i,)) for i in range(2)])
    print(" ".join(str(p) for p in pool.worker_pids()), flush=True)
    os._exit(0)  # die without close(): workers are now orphans
""")

TETHER_SCRIPT = textwrap.dedent("""
    from repro.runtime.pool import install_parent_death_tether

    print(install_parent_death_tether(poll_interval=0.05))
""")


class TestParentDeathTether:
    """Satellite 2: orphaned workers must never outlive the parent."""

    def run_script(self, script):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=60,
        )

    def test_tether_installs_a_real_mechanism(self):
        proc = self.run_script(TETHER_SCRIPT)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.strip() in ("prctl", "poll")

    def test_workers_die_with_their_parent(self):
        proc = self.run_script(ORPHAN_SCRIPT)
        assert proc.returncode == 0, proc.stderr[-500:]
        pids = [int(p) for p in proc.stdout.split()]
        assert pids
        deadline = time.time() + 10.0
        survivors = set(pids)
        while survivors and time.time() < deadline:
            for pid in list(survivors):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    survivors.discard(pid)
            time.sleep(0.1)
        assert not survivors, f"orphan workers survived: {survivors}"
