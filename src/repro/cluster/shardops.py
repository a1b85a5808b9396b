"""Shard-local helpers: the shard slicer, checksums and the ``+``-scan names.

A distributed scan is the paper's Figure 10 schedule lifted onto OS
processes, as reduce-then-scan: each worker owns one contiguous shard and
first reduces it to the carry leaving it, writing nothing; the per-shard
carries are combined by a round-efficient exclusive exchange
(:mod:`repro.cluster.exchange`); then each worker scans its shard once,
with its incoming carry folded in.  Both passes are the carry monoids of
:mod:`repro.backends.carry` — ``carry_out`` in phase 1, ``local`` and
``apply`` in phase 2, ``combine`` in the exchange — the very ones the
blocked engine's chunk loop runs (a shard is a chunk that happens to live
in another process).  Only scans are sharded: a ``reduce`` returns one
scalar, so copying its operand into shared memory cannot pay, and the
backend runs it in process.
The worker processes (:mod:`repro.cluster.worker`) and the supervisor's
degraded host-side path (:mod:`repro.cluster.pool`) cut a shard out of a
command with the same :func:`shard_views` and call the same functions, so
recovery can never change a result.  For integer and boolean vectors every
distributed result is bit-identical to the numpy backend; float
``+``-carries may legitimately re-associate, exactly as a real
message-passing machine would.

Checksums (:func:`shard_checksum`) cover what a phase produced: the carry
payload in phase 1, the shard's output bytes in phase 2.  A worker that
corrupts either — on the reply wire, or in shared memory after the fact —
is caught by the supervisor recomputing the checksum on its own view of
the data, and each byte is hashed once on each side.
"""
from __future__ import annotations

import zlib

import numpy as np

from ..backends.carry import monoid

__all__ = [
    "carry_bytes",
    "plus_carry_combine",
    "plus_scan_apply",
    "plus_scan_shard",
    "shard_checksum",
    "shard_views",
]


def shard_views(cmd: dict, whole):
    """The ``(values, flags, out)`` slices one shard command covers.

    ``whole(role)`` returns the role's full-length array; a role the
    command names as ``None`` stays ``None``."""
    start, stop = cmd["start"], cmd["stop"]
    return tuple(None if cmd[role] is None else whole(role)[start:stop]
                 for role in ("values", "flags", "out"))


# --------------------------------------------------------------------- #
# Checksums: what a corrupted shard reply is detected against
# --------------------------------------------------------------------- #

def carry_bytes(carry) -> bytes:
    """A canonical byte encoding of a shard's carry payload.

    Covers every carry shape the protocol ships: ``None`` (no carry),
    a NumPy scalar, or a ``(value, has_head)`` segmented pair whose value
    may itself be ``None``.  Both sides — worker checksum and supervisor
    re-checksum — encode through this one function.
    """
    if carry is None:
        return b"\x00none"
    if isinstance(carry, tuple):
        value, has_head = carry
        return (b"\x01pair" + carry_bytes(value)
                + (b"\x01" if has_head else b"\x00"))
    return b"\x02" + np.asarray(carry).tobytes()


def shard_checksum(out_slice, carry) -> int:
    """CRC32 over a shard's written output bytes plus its carry payload.

    A running CRC straight over the slice's buffer, then the carry bytes:
    the same value as ``crc32(out.tobytes() + carry_bytes(carry))``
    without copying the shard."""
    crc = 0 if out_slice is None else zlib.crc32(
        np.ascontiguousarray(out_slice))
    return zlib.crc32(carry_bytes(carry), crc)


# --------------------------------------------------------------------- #
# The +-scan monoid under the names the layer benchmark times
# --------------------------------------------------------------------- #

def plus_scan_shard(values: np.ndarray):
    """Local exclusive ``+``-scan of one shard; carry is the shard sum."""
    return monoid("plus_scan", values.dtype).local(values)


def plus_scan_apply(out_slice: np.ndarray, carry) -> None:
    """Fold the incoming running sum into a shard's local scan."""
    monoid("plus_scan", out_slice.dtype).apply(out_slice, None, carry)


def plus_carry_combine(dtype):
    """The ``+``-carry monoid: addition wrapping in the vector's dtype."""
    return monoid("plus_scan", dtype).combine

