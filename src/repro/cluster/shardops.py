"""Shard-local kernels: the per-worker half of every distributed primitive.

A distributed scan is the paper's Figure 10 schedule lifted onto OS
processes: each worker owns one contiguous shard, runs the *local* part of
the scan over it, the per-shard carries are combined by a round-efficient
exclusive exchange (:mod:`repro.cluster.exchange`), and a second pass folds
each shard's incoming carry back in.  This module holds the pure-NumPy
kernels for both passes, shared verbatim by the worker processes
(:mod:`repro.cluster.worker`) and by the supervisor's degraded host-side
path (:mod:`repro.cluster.pool`) — whoever ends up computing a shard, the
math is the same function, so recovery can never change a result.

The kernels mirror :class:`repro.backends.BlockedBackend`'s per-chunk
arithmetic exactly (a shard is a chunk that happens to live in another
process): integer carries wrap modulo ``2**width``, extreme carries use
the in-shard kernel's ordering convention (``np.maximum`` for max, which
propagates NaN; ``np.fmin`` for min, which passes over it — see
:mod:`repro.backends.carry` and ``docs/verification.md``), and segmented
carries travel as ``(value, has_head)`` monoid pairs.  For integer and
boolean vectors every distributed result is therefore bit-identical to
the numpy backend; float ``+``-carries may legitimately re-associate,
exactly as a real message-passing machine would.

Checksums (:func:`shard_checksum`) cover a shard's output bytes *and* its
carry payload, so a worker that corrupts either — in shared memory after
the fact, or on the reply wire — is caught by the supervisor recomputing
the checksum on its own view of the data.
"""
from __future__ import annotations

import os
import zlib

import numpy as np

from ..backends.carry import (extreme_carry_out, extreme_combine,
                              seg_extreme_scan)
from ..backends.numpy_backend import _REDUCERS, _exclusive_cumsum

__all__ = [
    "carry_bytes",
    "max_scan_apply",
    "max_scan_shard",
    "plus_scan_apply",
    "plus_scan_shard",
    "reduce_combine",
    "reduce_shard",
    "seg_extreme_apply",
    "seg_extreme_shard",
    "seg_plus_apply",
    "seg_plus_shard",
    "shard_checksum",
]


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
    """CRC32 over a shard's written output bytes plus its carry payload."""
    payload = b"" if out_slice is None else np.ascontiguousarray(out_slice).tobytes()
    return zlib.crc32(payload + carry_bytes(carry))


# --------------------------------------------------------------------- #
# Native kernel selection: a shard's local scan may route through the
# two-phase NativeBackend (repro.backends.native), putting Numba's
# parallel kernels under every worker process.  ``REPRO_SHARD_NATIVE``
# overrides the default: ``1`` forces it on (pure fallback included, for
# tests and CI), ``0`` off, anything else selects native exactly when
# Numba is importable.  Integer/bool shards stay bit-identical either
# way; local max scans are exact for floats too, so they also qualify.
# --------------------------------------------------------------------- #

_ENV_SHARD_NATIVE = "REPRO_SHARD_NATIVE"
#: smallest shard worth the two-phase schedule (and any JIT warm-up)
_NATIVE_SHARD_MIN = 65536
_native_cache: dict = {}


def _shard_native():
    """The (cached per mode) NativeBackend shard scans route through, or
    ``None`` when numpy expressions should run instead."""
    mode = os.environ.get(_ENV_SHARD_NATIVE, "auto")
    if mode not in _native_cache:
        from ..backends.native import HAVE_NUMBA, NativeBackend

        enabled = mode == "1" or (mode != "0" and HAVE_NUMBA)
        _native_cache[mode] = NativeBackend() if enabled else None
    return _native_cache[mode]


# --------------------------------------------------------------------- #
# +-scan
# --------------------------------------------------------------------- #

def plus_scan_shard(values: np.ndarray):
    """Local exclusive ``+``-scan of one shard; carry is the shard sum."""
    native = _shard_native()
    if (native is not None and len(values) >= _NATIVE_SHARD_MIN
            and values.dtype.kind in "iu"):
        # integer sums are associative mod 2**width: the two-phase result
        # is bit-identical to the cumsum below (floats keep the serial
        # path so solo float requests never re-associate locally)
        out = native.plus_scan(values)
        with np.errstate(over="ignore"):
            carry = values.sum(dtype=values.dtype)
        return out, carry
    out = np.empty_like(values)
    with np.errstate(over="ignore"):  # modular carries wrap by design
        if len(values):
            out[0] = 0
            np.cumsum(values[:-1], out=out[1:])
        carry = values.sum(dtype=values.dtype)
    return out, carry


def plus_scan_apply(out_slice: np.ndarray, carry) -> None:
    """Fold the incoming running sum into a shard's local scan."""
    with np.errstate(over="ignore"):
        out_slice += carry


def plus_carry_combine(dtype):
    """The ``+``-carry monoid: addition wrapping in the vector's dtype."""
    def combine(a, b):
        with np.errstate(over="ignore"):
            return np.add(np.asarray(a, dtype=dtype),
                          np.asarray(b, dtype=dtype))[()]
    return combine


# --------------------------------------------------------------------- #
# max-scan
# --------------------------------------------------------------------- #

def max_scan_shard(values: np.ndarray, identity):
    """Local exclusive max-scan clamped to ``identity``; carry is the
    shard max folded with ``identity`` (so the carry chain starts at the
    operator's identity exactly like the blocked backend's)."""
    ident = np.asarray(identity, dtype=values.dtype)[()]
    native = _shard_native()
    if native is not None and len(values) >= _NATIVE_SHARD_MIN:
        # max is exactly associative (NaN absorbs either way): the
        # two-phase local scan is bit-identical for every dtype
        out = native.max_scan(values, ident)
        carry = np.maximum(ident, values.max()) if len(values) else ident
        return out, carry
    out = np.empty_like(values)
    if len(values):
        out[0] = ident
        np.maximum.accumulate(values[:-1], out=out[1:])
        np.maximum(out[1:], ident, out=out[1:])
    # np.maximum, not Python max: the carry must propagate NaN exactly as
    # the within-shard np.maximum.accumulate does
    carry = np.maximum(ident, values.max()) if len(values) else ident
    return out, carry


def max_scan_apply(out_slice: np.ndarray, carry) -> None:
    np.maximum(out_slice, carry, out=out_slice)


def max_carry_combine():
    return lambda a, b: np.maximum(a, b)


# --------------------------------------------------------------------- #
# segmented +-scan
# --------------------------------------------------------------------- #

def seg_plus_shard(values: np.ndarray, seg_flags: np.ndarray):
    """Local segmented exclusive ``+``-scan assuming a zero incoming
    carry; the carry-out pair is ``(sum since the shard's last segment
    head — or the whole shard when it contains no head, has_head)``."""
    out = np.empty_like(values)
    with np.errstate(over="ignore"):
        ex = _exclusive_cumsum(values)
        local = np.cumsum(seg_flags)  # 0 on the run continuing the open segment
        heads = np.flatnonzero(seg_flags)
        offsets = np.empty(len(heads) + 1, dtype=values.dtype)
        offsets[0] = 0  # the leading run's carry arrives in the apply pass
        offsets[1:] = ex[heads]
        out[:] = ex - offsets[local]
        if len(heads):
            carry = (values[heads[-1]:].sum(dtype=values.dtype), True)
        else:
            carry = (values.sum(dtype=values.dtype), False)
    return out, carry


def seg_plus_apply(out_slice: np.ndarray, flags_slice: np.ndarray,
                   carry_value) -> None:
    """Add the incoming open-segment sum to the shard's leading run (the
    elements before its first segment head)."""
    heads = np.flatnonzero(flags_slice)
    run = int(heads[0]) if len(heads) else len(flags_slice)
    with np.errstate(over="ignore"):
        out_slice[:run] += carry_value


def seg_plus_carry_combine(dtype):
    """The segmented-sum carry monoid over ``(value, has_head)`` pairs."""
    add = plus_carry_combine(dtype)

    def combine(a, b):  # a precedes b in shard order
        if b[1]:
            return b
        return (add(a[0], b[0]), a[1])
    return combine


# --------------------------------------------------------------------- #
# segmented extreme scans
# --------------------------------------------------------------------- #

def seg_extreme_shard(values: np.ndarray, seg_flags: np.ndarray, identity,
                      *, is_max: bool):
    """Local segmented exclusive extreme scan (the leading run's carry
    arrives in the apply pass); carry-out pair is
    ``(extreme since the shard's last head, has_head)``."""
    out = seg_extreme_scan(values, seg_flags, identity, is_max=is_max)
    carry = (extreme_carry_out(values, seg_flags, out, is_max=is_max),
             bool(seg_flags.any()))
    return out, carry


def seg_extreme_apply(out_slice: np.ndarray, flags_slice: np.ndarray,
                      carry_value, *, is_max: bool) -> None:
    """Fold the incoming open-segment extreme into the shard's leading
    run.  The run's first element has no local prefix at all, so it takes
    the carry alone (the identity fill must not clamp real values)."""
    if carry_value is None or flags_slice[0]:
        return
    combine = extreme_combine(is_max)
    heads = np.flatnonzero(flags_slice)
    run = int(heads[0]) if len(heads) else len(flags_slice)
    combine(out_slice[:run], carry_value, out=out_slice[:run])
    out_slice[0] = carry_value


def seg_extreme_carry_combine(is_max: bool):
    """Carry monoid over ``(value | None, has_head)`` pairs; ``None``
    marks "nothing scanned yet" (the exchange identity)."""
    combine_val = extreme_combine(is_max)

    def combine(a, b):  # a precedes b
        if b[1]:
            return b
        value = b[0] if a[0] is None else combine_val(a[0], b[0])
        return (value, a[1])
    return combine


# --------------------------------------------------------------------- #
# reduce
# --------------------------------------------------------------------- #

def reduce_shard(values: np.ndarray, op: str):
    """One shard's partial reduction (``sum``/``max``/``min``/``any``/``all``)."""
    return _REDUCERS[op](values)


def reduce_combine(partials, op: str):
    """Combine per-shard partials exactly as the blocked backend does:
    a second reduction over the array of partials."""
    return _REDUCERS[op](np.array(partials))
