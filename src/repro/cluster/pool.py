"""Worker-pool supervision: dispatch, health, retries, degradation.

This is the product half of the distributed backend.  The *math* of a
sharded scan lives in :mod:`repro.cluster.shardops`; everything here is
about surviving the processes that run it.  A :class:`WorkerPool` owns N
worker processes and, per distributed op:

1. copies the operands into the pool's persistent shared-memory arena
   (:class:`_ShmJob`: one segment per role, reused while the op stays in
   the same power-of-two size class; arrays never cross the command
   pipes),
2. dispatches one contiguous shard per live worker (in waves when workers
   have died and shards outnumber survivors),
3. combines the per-shard carries with the round-efficient exclusive
   exchange (:mod:`repro.cluster.exchange`), and
4. dispatches the phase-2 carry applies, skipping shards whose incoming
   carry is the operator's identity.

Every shard reply is validated (deadline, liveness, checksum) and every
failure is classified — ``timeout``, ``crash``, or ``corrupt`` — then
answered by the :class:`RetryPolicy` ladder: recycle the worker (respawn,
or retire the slot after repeated failures), back off with seeded jitter,
re-dispatch the shard (phase-2 retries always recompute, since a
half-applied in-place carry is not re-applicable), and after the retry
budget compute the shard host-side **with the identical kernels**, so
degradation changes latency, never results.  The
:class:`~repro.cluster.ledger.ClusterLedger` records each event, and the
invariant ``failures == retries + degraded_shards`` reconciles the whole
story; :mod:`repro.observe` metrics mirror the counts for dashboards.

Pools are heavy (N processes), so module-level helpers keep one shared
pool per worker count (:func:`shared_pool`) and an ``atexit`` hook
guarantees every pool — shared or not — is torn down with its arena
unlinked even when the host exits abruptly.
"""
from __future__ import annotations

import atexit
import multiprocessing as mp
import random
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Optional

import numpy as np
from multiprocessing import resource_tracker

from ..observe.metrics import registry
from . import shardops
from .chaos import ChaosPlan, ChaosState
from .exchange import exclusive_exchange
from .ledger import ClusterLedger
from .worker import _compute, worker_main

__all__ = ["RetryPolicy", "WorkerPool", "shared_pool", "set_shared_chaos",
           "shutdown_all_pools"]

#: ops the pool knows how to shard (reduce is single-phase)
_SCAN_OPS = ("plus_scan", "max_scan", "seg_plus", "seg_extreme")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor fights before degrading a shard."""

    max_retries: int = 2          #: re-dispatches per shard before host fallback
    op_deadline: float = 30.0     #: seconds a worker gets per shard phase
    backoff_base: float = 0.05    #: first retry delay (seconds)
    backoff_factor: float = 2.0   #: exponential growth per attempt
    backoff_jitter: float = 0.5   #: uniform jitter fraction added on top
    backoff_cap: float = 2.0      #: never sleep longer than this
    heartbeat_interval: float = 5.0   #: idle seconds before a liveness ping
    heartbeat_timeout: float = 2.0    #: seconds a ping may go unanswered
    max_worker_failures: int = 3  #: consecutive failures that retire a slot

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.op_deadline <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("deadlines must be positive")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), with jitter."""
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return min(self.backoff_cap,
                   base * (1.0 + self.backoff_jitter * rng.random()))


class _WorkerHandle:
    """One pool slot: a process, its pipe, and its health record."""

    __slots__ = ("slot", "process", "conn", "seq", "failures", "dead",
                 "last_seen")

    def __init__(self, slot: int):
        self.slot = slot
        self.process = None
        self.conn = None
        self.seq = 0
        self.failures = 0       #: consecutive failures (reset on success)
        self.dead = False       #: slot retired for good
        self.last_seen = 0.0

    @property
    def alive(self) -> bool:
        return (not self.dead and self.process is not None
                and self.process.is_alive())

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


def _size_class(nbytes: int) -> int:
    """The power-of-two segment size that holds ``nbytes``."""
    return 1 << max(0, nbytes - 1).bit_length()


class _ShmJob:
    """The pool's shared-memory arena: one segment per role (``values``,
    ``flags``, ``out``), reused across ops.

    :meth:`load` publishes one op: it copies each operand into its role's
    segment and hands out length-``n`` views (``out`` is left
    uninitialized — only its shape and dtype are read).  A segment is
    reused while the op's bytes fall in its power-of-two size class;
    otherwise it is replaced by one of the op's class and the old one is
    unlinked at once, so a role never holds more than 2x the latest op's
    bytes.  A role the op does not use keeps its segment.  Constructing
    with ``arrays`` loads them straight away, which makes a one-off job.

    ``names`` maps each role to its segment's name (``None`` when the role
    has none).  The host alone unlinks, in :meth:`close` or on
    replacement, which is why workers never unregister their attachments
    from the resource tracker.
    """

    def __init__(self, arrays: Optional[dict] = None):
        self._segments = {}
        self._views = {}
        self.names = {}
        if arrays is not None:
            try:
                self.load(arrays)
            except BaseException:
                self.close()
                raise

    def load(self, arrays: dict) -> None:
        self._views.clear()  # views describe one op; never a stale length
        for key, arr in arrays.items():
            if arr is None:
                self.names.setdefault(key, None)
                continue
            size = _size_class(arr.nbytes)
            shm = self._segments.get(key)
            if shm is None or shm.size != size:
                if shm is not None:
                    self._release(key)
                shm = shared_memory.SharedMemory(create=True, size=size)
                self._segments[key] = shm
                self.names[key] = shm.name
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            if key != "out":
                view[...] = arr
            self._views[key] = view

    def view(self, key: str) -> np.ndarray:
        return self._views[key]

    def _release(self, key: str) -> None:
        shm = self._segments.pop(key)
        self.names[key] = None
        try:
            shm.close()
        except BufferError:  # a straggler view; unlink still proceeds
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        self._views.clear()
        for key in list(self._segments):
            self._release(key)


class WorkerPool:
    """N supervised worker processes executing sharded primitives."""

    def __init__(self, workers: int, policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosPlan] = None):
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.ledger = ClusterLedger()
        self.broken = False
        self.closed = False
        self._chaos: Optional[ChaosState] = None
        self._op_index = 0
        self._rng = random.Random(0xC0FFEE)  # backoff jitter only, never results
        self._ctx = mp.get_context("fork")
        self._slots = [_WorkerHandle(i) for i in range(workers)]
        self.arena = _ShmJob()  # segments appear at the first op
        # Start the resource tracker BEFORE forking: it normally launches
        # lazily at the first segment create, which happens after spawn —
        # each worker would then boot a private tracker whose cache never
        # sees the supervisor's unlink-time unregisters and screams about
        # "leaked" segments at exit.  Forked after this line, every worker
        # inherits the one tracker and registration stays balanced.
        resource_tracker.ensure_running()

        m = registry
        self._m_spawned = m.counter("cluster.workers.spawned")
        self._m_respawned = m.counter("cluster.workers.respawned")
        self._m_dead = m.counter("cluster.workers.dead")
        self._m_ops_dist = m.counter("cluster.ops.distributed")
        self._m_ops_local = m.counter("cluster.ops.local")
        self._m_shards = m.counter("cluster.shards.dispatched")
        self._m_degraded = m.counter("cluster.shards.degraded")
        self._m_retries = m.counter("cluster.retries")
        self._m_fail = {k: m.counter(f"cluster.failures.{k}")
                        for k in ("timeout", "crash", "corrupt")}
        self._m_heartbeat = m.counter("cluster.heartbeat.failures")
        self._m_chaos = m.counter("cluster.chaos.injected")
        self._m_pool_degr = m.counter("cluster.pool.degradations")
        self._m_rounds = m.histogram("cluster.carry_rounds")
        self._m_elems = m.histogram("cluster.shard_elements")

        for handle in self._slots:
            self._spawn(handle)
        if chaos is not None:
            self.set_chaos(chaos)
        _ALL_POOLS.append(self)

    # ------------------------- lifecycle ------------------------------- #

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        # the child gets BOTH ends: forking duplicates the parent end into
        # it, and only the child itself can close that copy (worker_main
        # does, first thing) — otherwise a SIGKILLed supervisor leaves the
        # pipe open and the worker never sees EOF
        proc = self._ctx.Process(target=worker_main, args=(child, parent),
                                 daemon=True, name=f"repro-worker-{handle.slot}")
        proc.start()
        child.close()
        handle.process, handle.conn = proc, parent
        handle.last_seen = time.monotonic()
        self._m_spawned.inc()

    def set_chaos(self, plan: Optional[ChaosPlan]) -> None:
        """Install (or clear) a chaos plan; resets its replay cursor."""
        self._chaos = ChaosState(plan) if plan is not None else None

    @property
    def available(self) -> bool:
        """Whether the pool can still take distributed work."""
        return not (self.closed or self.broken)

    def live_workers(self) -> list:
        return [h for h in self._slots if h.alive]

    def worker_pids(self) -> list[int]:
        return [h.process.pid for h in self._slots
                if h.process is not None and h.process.is_alive()]

    def shutdown(self) -> None:
        """Stop every worker; idempotent, safe mid-failure."""
        if self.closed:
            return
        self.closed = True
        for h in self._slots:
            if h.conn is not None:
                try:
                    h.conn.send({"cmd": "exit"})
                except (BrokenPipeError, OSError):
                    pass
        for h in self._slots:
            if h.process is not None:
                h.process.join(timeout=1.0)
                if h.process.is_alive():
                    h.process.terminate()
                    h.process.join(timeout=1.0)
            if h.conn is not None:
                h.conn.close()
            h.process, h.conn = None, None
        self.arena.close()
        if self in _ALL_POOLS:
            _ALL_POOLS.remove(self)

    # ------------------------ health & recovery ------------------------ #

    def _recycle(self, handle: _WorkerHandle) -> None:
        """Tear down a misbehaving worker; respawn it or retire the slot."""
        if handle.process is not None:
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        if handle.conn is not None:
            handle.conn.close()
        handle.process, handle.conn = None, None
        handle.failures += 1
        if handle.failures >= self.policy.max_worker_failures:
            if not handle.dead:
                handle.dead = True
                self.ledger.dead_workers += 1
                self._m_dead.inc()
                if not any(not h.dead for h in self._slots):
                    self.broken = True
                    self.ledger.pool_degradations += 1
                    self._m_pool_degr.inc()
            return
        self._spawn(handle)
        self.ledger.respawns += 1
        self._m_respawned.inc()

    def _ensure_alive(self) -> None:
        """Pre-job health sweep: respawn silently-dead workers and ping
        anyone idle past the heartbeat interval."""
        now = time.monotonic()
        for h in self._slots:
            if h.dead:
                continue
            if not h.alive:
                self.ledger.heartbeat_failures += 1
                self._m_heartbeat.inc()
                self._recycle(h)
                continue
            if now - h.last_seen < self.policy.heartbeat_interval:
                continue
            seq = h.next_seq()
            try:
                h.conn.send({"cmd": "ping", "seq": seq})
            except (BrokenPipeError, OSError):
                self.ledger.heartbeat_failures += 1
                self._m_heartbeat.inc()
                self._recycle(h)
                continue
            status, _ = self._await(h, seq, self.policy.heartbeat_timeout)
            if status == "ok":
                h.failures = 0
            else:
                self.ledger.heartbeat_failures += 1
                self._m_heartbeat.inc()
                self._recycle(h)

    def _note_failure(self, kind: str) -> None:
        if kind == "timeout":
            self.ledger.timeouts += 1
        elif kind == "corrupt":
            self.ledger.corrupt_replies += 1
        else:
            self.ledger.crashes += 1
        self._m_fail[kind].inc()

    # --------------------------- dispatch ------------------------------ #

    def _directive(self, handle: _WorkerHandle, phase: int):
        if self._chaos is None:
            return None
        d = self._chaos.directive(self._op_index, handle.slot, phase)
        if d is None:
            return None
        kind, seconds = d
        if kind == "kill":
            self.ledger.chaos_kills += 1
        elif kind == "hang":
            self.ledger.chaos_hangs += 1
            if seconds is None:
                seconds = self.policy.op_deadline + 1.0
        else:
            self.ledger.chaos_corruptions += 1
        self._m_chaos.inc()
        return (kind, seconds)

    def _send(self, handle: _WorkerHandle, cmd: dict, phase: int) -> int:
        cmd = dict(cmd)
        cmd["seq"] = handle.next_seq()
        cmd["chaos"] = self._directive(handle, phase)
        self.ledger.shards += 1
        self._m_shards.inc()
        self._m_elems.observe(cmd["stop"] - cmd["start"])
        try:
            handle.conn.send(cmd)
        except (BrokenPipeError, OSError):
            return -1  # caller will observe the crash on await
        return cmd["seq"]

    def _await(self, handle: _WorkerHandle, seq: int, timeout: float):
        """Wait for the reply matching ``seq``; classify anything else."""
        if seq < 0:
            return ("crash", "send failed: worker pipe closed")
        deadline = time.monotonic() + timeout
        while True:
            # poll even with the budget exhausted: poll(0) still drains a
            # reply that is already buffered (a wave-mate that finished
            # while we waited out an earlier shard is not a timeout)
            remaining = max(0.0, deadline - time.monotonic())
            try:
                if not handle.conn.poll(remaining):
                    return ("timeout", None)
                reply = handle.conn.recv()
            except (EOFError, OSError):
                return ("crash", "worker pipe closed")
            if not isinstance(reply, dict) or reply.get("seq") != seq:
                continue  # stale pre-recycle chatter; keep waiting for ours
            handle.last_seen = time.monotonic()
            if not reply.get("ok"):
                return ("crash", reply.get("error", "worker error"))
            return ("ok", reply)

    def _checksum_ok(self, job: _ShmJob, cmd: dict, reply: dict) -> bool:
        """Recompute the shard checksum on the host's view of the data."""
        out_slice = None
        if cmd["out"] is not None:
            out_slice = job.view("out")[cmd["start"]:cmd["stop"]]
        carry = reply.get("carry") if cmd["phase"] == 1 else None
        return shardops.shard_checksum(out_slice, carry) == reply["checksum"]

    def _host_shard(self, job: _ShmJob, cmd: dict):
        """Degraded path: compute the shard in-process with the exact
        worker kernels (see :func:`repro.cluster.worker._compute`)."""
        start, stop = cmd["start"], cmd["stop"]
        values = flags = out = None
        if cmd["values"] is not None:
            values = job.view("values")[start:stop]
        if cmd["flags"] is not None:
            flags = job.view("flags")[start:stop]
        if cmd["out"] is not None:
            out = job.view("out")[start:stop]
        with np.errstate(all="ignore"):
            return _compute(cmd, values, flags, out)

    def _idle_live_worker(self, busy: set) -> Optional[_WorkerHandle]:
        for h in self._slots:
            if h.alive and h.slot not in busy:
                return h
        return None

    def _retry_shard(self, job: _ShmJob, cmd: dict, busy: set):
        """The retry ladder for one already-failed shard.  The failure
        that brought us here is on the books; every pass through the loop
        answers the latest failure with exactly one retry or one
        degradation, keeping the ledger invariant."""
        attempt = 0
        while True:
            attempt += 1
            worker = self._idle_live_worker(busy)
            if attempt > self.policy.max_retries or worker is None:
                self.ledger.degraded_shards += 1
                self._m_degraded.inc()
                return self._host_shard(job, cmd)
            self.ledger.retries += 1
            self._m_retries.inc()
            time.sleep(self.policy.delay(attempt, self._rng))
            seq = self._send(worker, cmd, cmd["phase"])
            status, reply = self._await(worker, seq, self.policy.op_deadline)
            if status == "ok" and not self._checksum_ok(job, cmd, reply):
                status = "corrupt"
            if status == "ok":
                worker.failures = 0
                return reply.get("carry")
            self._note_failure(status)
            self._recycle(worker)

    def _run_phase(self, job: _ShmJob, shard_cmds: list):
        """Execute one phase's shard commands across the pool in waves.

        ``shard_cmds`` is ``[(shard_index, cmd), ...]``; returns
        ``{shard_index: carry}``.  Each wave sends at most one command per
        live worker, collects every reply, then settles that wave's
        failures through the retry ladder before the next wave — so a
        retry never interleaves with an outstanding dispatch on the same
        pipe.
        """
        results: dict = {}
        pending = list(shard_cmds)
        while pending:
            live = self.live_workers()
            if not live:
                # nobody left to even fail: these shards were never
                # dispatched, so they are orphans, not degradations
                for shard, cmd in pending:
                    self.ledger.orphaned_shards += 1
                    results[shard] = self._host_shard(job, cmd)
                break
            wave, pending = pending[:len(live)], pending[len(live):]
            dispatched = []
            for handle, (shard, cmd) in zip(live, wave):
                seq = self._send(handle, cmd, cmd["phase"])
                dispatched.append((handle, shard, cmd, seq, time.monotonic()))
            failed = []
            for handle, shard, cmd, seq, t0 in dispatched:
                timeout = max(0.0, t0 + self.policy.op_deadline
                              - time.monotonic())
                status, reply = self._await(handle, seq, timeout)
                if status == "ok" and not self._checksum_ok(job, cmd, reply):
                    status = "corrupt"
                if status == "ok":
                    handle.failures = 0
                    results[shard] = reply.get("carry")
                    continue
                self._note_failure(status)
                self._recycle(handle)
                failed.append((shard, cmd))
            busy: set = set()  # the wave is fully settled; every pipe is idle
            for shard, cmd in failed:
                retry_cmd = dict(cmd)
                if cmd["phase"] == 2:
                    # a half-applied in-place carry must not be re-applied
                    retry_cmd["mode"] = "recompute"
                results[shard] = self._retry_shard(job, retry_cmd, busy)
        return results

    # ------------------------- distributed ops ------------------------- #

    @staticmethod
    def _partition(n: int, parts: int) -> list:
        parts = max(1, min(parts, n))
        base, extra = divmod(n, parts)
        bounds, start = [], 0
        for i in range(parts):
            stop = start + base + (1 if i < extra else 0)
            bounds.append((start, stop))
            start = stop
        return bounds

    @staticmethod
    def _monoid(op: str, dtype, identity, is_max: bool):
        """The carry-combine monoid and its identity for the exchange."""
        zero = np.zeros((), dtype=dtype)[()]
        if op == "plus_scan":
            return shardops.plus_carry_combine(dtype), zero
        if op == "max_scan":
            return (shardops.max_carry_combine(),
                    np.asarray(identity, dtype=dtype)[()])
        if op == "seg_plus":
            return shardops.seg_plus_carry_combine(dtype), (zero, False)
        if op == "seg_extreme":
            return shardops.seg_extreme_carry_combine(is_max), (None, False)
        raise ValueError(f"unknown distributed op {op!r}")

    def _offset_is_identity(self, op: str, offset, identity,
                            flags, start: int) -> bool:
        """Whether shard ``start``'s incoming carry cannot change it (so
        phase 2 can be skipped entirely for that shard)."""
        if op in ("seg_plus", "seg_extreme") and bool(flags[start]):
            return True  # shard opens a fresh segment; no open carry applies
        if op == "plus_scan":
            return bool(offset == 0)
        if op == "max_scan":
            return bool(offset == identity)  # NaN compares False: dispatch
        if op == "seg_plus":
            return bool(offset[0] == 0)
        return offset[0] is None  # seg_extreme

    def _begin_op(self, n: int) -> None:
        self._op_index = self.ledger.ops_distributed
        self.ledger.ops += 1
        self.ledger.ops_distributed += 1
        self._m_ops_dist.inc()
        self._ensure_alive()

    def run_scan(self, op: str, values: np.ndarray,
                 flags: Optional[np.ndarray] = None,
                 identity=None, is_max: bool = False) -> np.ndarray:
        """A full two-phase sharded scan with recovery; returns the result
        as a fresh host array (the arena is reused by the next op)."""
        if op not in _SCAN_OPS:
            raise ValueError(f"unknown distributed op {op!r}")
        n = len(values)
        self._begin_op(n)
        live = self.live_workers()
        shards = self._partition(n, max(1, len(live)))
        job = self.arena
        # "out" takes its shape and dtype from values; nothing is copied
        job.load({"values": values, "flags": flags, "out": values})
        base = {
            "cmd": "op", "op": op, "n": n,
            "values": job.names["values"],
            "flags": job.names["flags"] if flags is not None else None,
            "out": job.names["out"], "dtype": values.dtype.str,
            "flags_dtype": flags.dtype.str if flags is not None else None,
            "identity": identity, "is_max": is_max,
            "reduce_op": None, "carry": None,
        }
        phase1 = [(i, {**base, "phase": 1, "mode": "scan",
                       "start": s, "stop": e})
                  for i, (s, e) in enumerate(shards)]
        carries_by_shard = self._run_phase(job, phase1)
        carries = [carries_by_shard[i] for i in range(len(shards))]

        combine, ident = self._monoid(op, values.dtype, identity, is_max)
        offsets, rounds = exclusive_exchange(carries, combine, ident)
        self._m_rounds.observe(rounds)

        host_flags = job.view("flags") if flags is not None else None
        phase2 = []
        for i, (s, e) in enumerate(shards):
            if s == e or self._offset_is_identity(
                    op, offsets[i], identity, host_flags, s):
                continue
            carry_value = (offsets[i][0]
                           if op in ("seg_plus", "seg_extreme")
                           else offsets[i])
            phase2.append((i, {**base, "phase": 2, "mode": "apply",
                               "start": s, "stop": e,
                               "carry": carry_value}))
        if phase2:
            self._run_phase(job, phase2)
        return np.array(job.view("out"), copy=True)

    def run_reduce(self, values: np.ndarray, reduce_op: str):
        """A sharded reduction: per-shard partials, combined host-side the
        same way the blocked backend re-reduces its chunk partials."""
        n = len(values)
        self._begin_op(n)
        live = self.live_workers()
        shards = self._partition(n, max(1, len(live)))
        job = self.arena
        job.load({"values": values})
        cmds = [(i, {"cmd": "op", "op": "reduce", "phase": 1,
                     "mode": "scan", "n": n, "start": s, "stop": e,
                     "values": job.names["values"], "flags": None,
                     "out": None, "dtype": values.dtype.str,
                     "flags_dtype": None, "identity": None,
                     "is_max": False, "reduce_op": reduce_op,
                     "carry": None})
                for i, (s, e) in enumerate(shards)]
        partials_by_shard = self._run_phase(job, cmds)
        partials = [partials_by_shard[i] for i in range(len(shards))]
        return shardops.reduce_combine(partials, reduce_op)


# ----------------------- process-wide pool registry ---------------------- #

_ALL_POOLS: list = []
_SHARED: dict = {}
_SHARED_CHAOS: Optional[ChaosPlan] = None


def shared_pool(workers: int, policy: Optional[RetryPolicy] = None) -> WorkerPool:
    """Get (or lazily create) the process-wide pool for ``workers``.

    Machines are cheap and plentiful (the fuzzer builds one per case); OS
    processes are neither, so every ``distributed:<w>`` backend instance
    shares the pool for its worker count.
    """
    pool = _SHARED.get(workers)
    if pool is None or pool.closed:
        pool = WorkerPool(workers, policy=policy, chaos=_SHARED_CHAOS)
        _SHARED[workers] = pool
    return pool


def set_shared_chaos(plan: Optional[ChaosPlan]) -> None:
    """Install a chaos plan on every shared pool, present and future (the
    ``verify --chaos-seed`` hook)."""
    global _SHARED_CHAOS
    _SHARED_CHAOS = plan
    for pool in _SHARED.values():
        if not pool.closed:
            pool.set_chaos(plan)


def shutdown_all_pools() -> None:
    """Stop every live pool (shared or private); used by tests and atexit."""
    for pool in list(_ALL_POOLS):
        pool.shutdown()
    _SHARED.clear()


atexit.register(shutdown_all_pools)
