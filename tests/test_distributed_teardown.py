"""Teardown hygiene: no leaked shared memory, no orphaned processes.

A pool is N OS processes plus a shared-memory arena of at most one
segment per role, reused across ops; sloppy teardown shows up as
``/dev/shm`` junk, resource-tracker leak warnings, and zombie workers —
none of which a test suite should leave behind.  Pinned here:

* between ops ``/dev/shm`` holds exactly the pool's arena segments (even
  when chaos degraded shards), a second op of the same size class creates
  no new name, and ``shutdown()`` unlinks the arena;
* ``shutdown()`` reaps every worker (no zombies, no survivors) and is
  idempotent;
* abrupt host death — SIGKILL, the one signal ``atexit`` cannot catch —
  still converges to a clean machine: workers exit on pipe EOF and the
  resource tracker unlinks the arena segments a real op created;
* a ``KeyboardInterrupt`` escaping the test runner (the "pytest
  interrupted" case) tears down through the ``atexit`` hook.
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.backends.distributed import DistributedBackend
from repro.cluster import ChaosAction, ChaosPlan, RetryPolicy

POLICY = RetryPolicy(op_deadline=5.0, backoff_base=0.01,
                     heartbeat_interval=1000.0)

SHM_DIR = "/dev/shm"


def shm_segments() -> set:
    """Live POSIX shared-memory names (the multiprocessing ``psm_`` ones)."""
    try:
        return {f for f in os.listdir(SHM_DIR) if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return set()


def proc_gone(pid: int) -> bool:
    """Fully gone or reaped: a zombie counts as *not* gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("X", "x")


def arena_segments(backend) -> set:
    return {name for name in backend.pool.arena.names.values() if name}


def wait_until(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestInProcessTeardown:
    def test_normal_lifecycle_leaves_nothing(self):
        baseline = shm_segments()
        backend = DistributedBackend(workers=2, min_distribute=1,
                                     policy=POLICY)
        values = np.arange(20_000)
        backend.plus_scan(values)
        flags = np.zeros(20_000, dtype=bool)
        flags[0] = True
        backend.seg_plus_scan(values, flags)

        # between ops /dev/shm holds the arena: one segment per role
        arena = arena_segments(backend)
        assert len(arena) == 3
        assert shm_segments() - baseline == arena
        # a second op of the same size class reuses every segment
        backend.seg_plus_scan(values[::-1].copy(), ~flags)
        backend.reduce(values, "sum")
        assert arena_segments(backend) == arena
        assert shm_segments() - baseline == arena

        pids = backend.pool.worker_pids()
        assert len(pids) == 2
        backend.shutdown()
        assert all(wait_until(lambda p=p: proc_gone(p)) for p in pids)
        assert shm_segments() == baseline
        backend.shutdown()  # idempotent

    def test_chaos_degraded_op_still_unlinks_segments(self):
        # sticky corruption on every worker exhausts the retry budget: the
        # op ends through retries AND degradations, and still leaves only
        # the arena behind
        baseline = shm_segments()
        policy = RetryPolicy(op_deadline=5.0, backoff_base=0.01,
                             heartbeat_interval=1000.0, max_retries=1,
                             max_worker_failures=10)
        chaos = ChaosPlan(actions=(
            ChaosAction(op_id=0, worker=0, kind="corrupt", sticky=True),
            ChaosAction(op_id=0, worker=1, kind="corrupt", sticky=True),
        ))
        backend = DistributedBackend(workers=2, min_distribute=1,
                                     policy=policy, chaos=chaos)
        values = np.arange(20_000)
        out = backend.plus_scan(values)
        np.testing.assert_array_equal(out, np.concatenate(([0],
                                      np.cumsum(values[:-1]))))
        assert backend.ledger.degraded_shards >= 1  # the ladder really ran
        arena = arena_segments(backend)
        assert len(arena) == 2  # values and out; a plus_scan has no flags
        assert shm_segments() - baseline == arena

        pids = backend.pool.worker_pids()
        backend.shutdown()
        assert all(wait_until(lambda p=p: proc_gone(p)) for p in pids)
        assert shm_segments() == baseline


def _run_script(body: str, timeout=60.0):
    """Run a snippet in a fresh interpreter with repro importable; returns
    the completed process (stdout carries a JSON handshake)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run([sys.executable, "-c", body], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestHostDeathTeardown:
    def test_sigkilled_host_converges_to_clean_machine(self):
        # SIGKILL skips atexit entirely: the workers must notice pipe EOF
        # and exit, and the resource tracker must unlink the arena
        # segments the dead host never got to
        script = """\
import json, os, signal
import numpy as np
from repro.cluster.pool import WorkerPool, RetryPolicy

pool = WorkerPool(2, policy=RetryPolicy(op_deadline=5.0))
flags = np.zeros(50_000, dtype=bool)
flags[::1000] = True
pool.run_scan("seg_plus", np.arange(50_000), flags=flags)
names = [n for n in pool.arena.names.values() if n]
print(json.dumps({"pids": pool.worker_pids(), "segments": names,
                  "live": all(os.path.exists("/dev/shm/" + n)
                              for n in names)}),
      flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""
        proc = _run_script(script)
        assert proc.returncode == -9, proc.stderr
        info = json.loads(proc.stdout)
        assert len(info["pids"]) == 2 and len(info["segments"]) == 3
        assert info["live"]  # the arena outlives the op that created it

        for pid in info["pids"]:
            assert wait_until(lambda: proc_gone(pid)), (
                f"worker {pid} survived its supervisor")
        for name in info["segments"]:
            path = os.path.join(SHM_DIR, name)
            assert wait_until(lambda: not os.path.exists(path)), (
                f"segment {name} leaked past host death")

    def test_keyboard_interrupt_tears_down_via_atexit(self):
        # the "pytest interrupted" case: an uncaught KeyboardInterrupt
        # unwinds the interpreter, which must run shutdown_all_pools
        script = """\
import json
import numpy as np
from repro.backends.distributed import DistributedBackend
from repro.cluster import RetryPolicy

backend = DistributedBackend(workers=2, min_distribute=1,
                             policy=RetryPolicy(op_deadline=5.0))
backend.plus_scan(np.arange(20_000))
print(json.dumps({"pids": backend.pool.worker_pids()}), flush=True)
raise KeyboardInterrupt
"""
        proc = _run_script(script)
        assert proc.returncode != 0
        assert "KeyboardInterrupt" in proc.stderr
        # no resource-tracker leak warnings on the way out
        assert "leaked" not in proc.stderr
        info = json.loads(proc.stdout)
        for pid in info["pids"]:
            assert wait_until(lambda: proc_gone(pid)), (
                f"worker {pid} survived the interrupt")
