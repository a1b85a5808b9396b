"""The worker process: compute one shard, reply, repeat.

Each worker is a daemonized child running :func:`worker_main` over one
duplex pipe.  Commands are small picklable dicts; array payloads never
cross the pipe — they live in the pool's shared-memory arena
(:class:`repro.cluster.pool._ShmJob`), one segment per role
(``values``, ``flags``, ``out``) that the command names.  The worker keeps
its attachment per role across commands and re-attaches only when a
command names a different segment (the pool replaced it), closing the
stale attachment first.  The compute itself is a straight call into
:mod:`repro.cluster.shardops`, the same kernels the supervisor uses for
degraded host-side shards.

Protocol (one reply per command, matched by ``seq``):

* ``{"cmd": "ping"}`` — liveness probe, answered immediately.
* ``{"cmd": "exit"}`` — clean shutdown.
* ``{"cmd": "op", ...}`` — compute one shard phase; reply carries the
  shard's carry payload and a CRC32 checksum over the bytes the worker
  wrote plus the carry it is about to ship, so the supervisor can detect
  a corrupted reply by recomputing the checksum on its own view.

A command may embed a chaos directive (see :mod:`repro.cluster.chaos`);
the worker executes it on itself — ``os._exit`` for a kill, a sleep past
the deadline for a hang, flipping real bits *after* the checksum for a
corruption — so the supervisor always observes a genuine failure, never a
simulated one.

Hygiene notes: the worker drops its NumPy views at the end of every
command, so a stale attachment can be closed (a live view makes
``close()`` raise ``BufferError``), and exits on a dead pipe so a crashed
supervisor never leaves zombies behind; the supervisor alone unlinks
segments (workers are forked, so attach-time re-registration with the
shared resource tracker is a harmless no-op).
"""
from __future__ import annotations

import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np

from . import shardops

__all__ = ["worker_main"]


def _attach(name: str) -> shared_memory.SharedMemory:
    # Attaching re-registers the name with the resource tracker, but the
    # pool forks its workers, so they share the supervisor's tracker
    # process and its set-based cache: the re-register is a no-op and the
    # supervisor's unlink-time unregister removes the name exactly once.
    # (Do NOT unregister here — that empties the cache early and makes the
    # supervisor's own unregister scream KeyError into stderr.)
    return shared_memory.SharedMemory(name=name)


def _view(shm, dtype, n, start, stop) -> np.ndarray:
    return np.ndarray(n, dtype=dtype, buffer=shm.buf)[start:stop]


def _compute(cmd, values, flags, out):
    """Run one shard phase; returns the carry payload (or ``None``)."""
    op = cmd["op"]
    if op == "reduce":
        return shardops.reduce_shard(values, cmd["reduce_op"])

    if cmd["phase"] == 1 or cmd["mode"] == "recompute":
        if op == "plus_scan":
            local, carry = shardops.plus_scan_shard(values)
        elif op == "max_scan":
            local, carry = shardops.max_scan_shard(values, cmd["identity"])
        elif op == "seg_plus":
            local, carry = shardops.seg_plus_shard(values, flags)
        elif op == "seg_extreme":
            local, carry = shardops.seg_extreme_shard(
                values, flags, cmd["identity"], is_max=cmd["is_max"])
        else:
            raise ValueError(f"unknown distributed op {op!r}")
        out[:] = local
        if cmd["phase"] == 1:
            return carry

    carry_value = cmd["carry"]
    if op == "plus_scan":
        shardops.plus_scan_apply(out, carry_value)
    elif op == "max_scan":
        shardops.max_scan_apply(out, carry_value)
    elif op == "seg_plus":
        shardops.seg_plus_apply(out, flags, carry_value)
    elif op == "seg_extreme":
        shardops.seg_extreme_apply(out, flags, carry_value,
                                   is_max=cmd["is_max"])
    return None


def _segment(attached: dict, role: str, name: str):
    """The worker's attachment for ``role``, re-attached only when the
    command names a different segment (the stale one is closed first)."""
    shm = attached.get(role)
    if shm is not None and shm.name == name:
        return shm
    if shm is not None:
        del attached[role]
        try:
            shm.close()
        except BufferError:
            pass
    shm = attached[role] = _attach(name)
    return shm


def _run_op(cmd, attached: dict) -> dict:
    chaos = cmd.get("chaos")
    if chaos is not None and chaos[0] == "kill":
        os._exit(117)  # a real SIGKILL-grade death: no cleanup, no reply
    if chaos is not None and chaos[0] == "hang":
        time.sleep(chaos[1])

    values = flags = out = None
    try:
        n, start, stop = cmd["n"], cmd["start"], cmd["stop"]
        if cmd["values"] is not None:
            values = _view(_segment(attached, "values", cmd["values"]),
                           cmd["dtype"], n, start, stop)
        if cmd["flags"] is not None:
            flags = _view(_segment(attached, "flags", cmd["flags"]),
                          cmd["flags_dtype"], n, start, stop)
        if cmd["out"] is not None:
            out = _view(_segment(attached, "out", cmd["out"]),
                        cmd["dtype"], n, start, stop)

        with np.errstate(all="ignore"):
            carry = _compute(cmd, values, flags, out)
        checksum = shardops.shard_checksum(out, carry)

        if chaos is not None and chaos[0] == "corrupt":
            if out is not None and len(out):
                # flip a real bit in shared memory *after* checksumming it
                raw = np.ndarray(out.nbytes, dtype=np.uint8,
                                 buffer=out.data.cast("B"))
                raw[0] ^= 0x01
                del raw
            else:
                checksum ^= 0xDEAD  # no output bytes: corrupt the reply itself

        return {"ok": True, "seq": cmd["seq"], "carry": carry,
                "checksum": checksum}
    except Exception as exc:  # an exception in a worker is a crash reply
        return {"ok": False, "seq": cmd["seq"],
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        # views pin the buffer; a later re-attach must be able to close it
        del values, flags, out


def worker_main(conn, supervisor_conn=None) -> None:
    """The child-process command loop (runs until ``exit`` or host death)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # teardown is the host's job
    if supervisor_conn is not None:
        # Forking copied the supervisor's end of our own pipe into this
        # process; holding it would keep the pipe alive after the
        # supervisor dies, so recv() below would never see EOF and a
        # SIGKILLed host would strand its workers forever.
        supervisor_conn.close()
    attached: dict = {}  # role -> SharedMemory, kept across commands
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break  # supervisor is gone; don't linger as a zombie
        kind = cmd.get("cmd")
        if kind == "exit":
            break
        if kind == "ping":
            reply = {"ok": True, "seq": cmd.get("seq"), "pong": True,
                     "pid": os.getpid()}
        else:
            reply = _run_op(cmd, attached)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()
