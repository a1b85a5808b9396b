"""The carry algebra every chunked engine shares.

The paper's long-vector schedule (Figure 10) is one algorithm: scan each
block, scan the block carries, fold each carry back in.  This module
writes it once, as a :class:`Monoid` per carry-bearing scan — ``plus``,
``max``, segmented ``plus`` and the segmented extreme (max or min) —
in the ``(identity, combine)`` form Träff's exclusive-scan papers derive
every rank's work from:

* ``identity`` — the carry entering the first chunk;
* ``combine(a, b)`` — the carry of ``a``'s elements followed by ``b``'s;
* ``local(values, flags, out=None) -> (out, carry_out)`` — one chunk's
  exclusive scan from the identity, and the carry leaving it;
* ``apply(out, flags, carry)`` — fold the carry entering a chunk into
  that chunk's ``local`` result, in place;
* ``carry_out(values, flags)`` — ``local``'s carry alone, as a
  reduction that writes no output (the distributed workers' phase 1).

:func:`sweep` is the schedule itself, the one chunk loop: the blocked
engine's (whose one-chunk step is the whole numpy engine, and which
native *is*, at ``chunk = block``) and the segmented extreme kernel's own
tile loop.  The distributed workers' two phases and the supervisor's carry
exchange look the same monoids up (:func:`monoid`), and every engine its
reductions in :data:`REDUCERS` / :data:`SEG_REDUCERS`, so the carry math
and its conventions live here once.  Segmented carries are
``(value, has_head)`` pairs: a head anywhere in a chunk resets the open
segment, and ``apply`` only touches the chunk's leading run (the
elements before its first head).

:func:`seg_extreme_scan` is the segmented max/min chunk kernel, in O(n)
work with no sort.  A vector longer than :data:`DEFAULT_CHUNK` is swept
tile by tile over the seg-extreme monoid, so the kernel holds its result
and tile-sized temporaries, never a temporary the size of the vector.
On one tile it has two branches chosen by one correctness test.  When
Figure 16's appended keys fit in 62 bits (:func:`appended_keys`:
integers, ``bits(hi - lo) + bits(#segments)`` within budget) it *is*
Figure 16: the segment number shifted above the value field, one
unsegmented ``np.maximum.accumulate``, the field read back.  Every other
input (floats, bools, int64/uint64 extremes) takes
:func:`doubling_scan`: the vector is viewed as rows, each row is scanned
by segmented Hillis–Steele doubling (``lg`` of the row width passes,
each kept inside its row by the elements' in-row distance to their last
head), the per-row ``(tail extreme, has_head)`` carries are scanned by
recursing on the row tails, and each incoming carry is folded into its
row's leading run — LightScan's two-level shape.  The ordering
convention is :func:`extreme_combine`: ``np.maximum`` for max (NaN
propagates) and ``np.fmin`` for min (NaN loses to any real value).  See
``docs/verification.md``.

The segmented ``+`` chunk kernel is one running sum that restarts at
every head: the element entering each head also takes away the sum of
the segment it closes (``np.add.reduceat``), so one in-place
``np.add.accumulate`` needs no segment ids, no gather and no temporary
the size of the chunk.  The ``plus``, ``max`` and segmented ``plus``
carries out of a chunk are read in O(1) off ``out[-1]`` and
``values[-1]``, so no chunk makes a second pass for its carry.  Each
``carry_out`` equals ``local``'s carry bit for bit: integer sums reduce
in the lane dtype, which wraps alike; float sums keep ``local``'s
sequential order; the extremes reduce (which of two signed zeros an
extreme keeps depends on the order of evaluation, and the dtype contract
leaves it open); a segmented carry reads only the run after the last
head.  :func:`monoid` caches the monoids, which hold no state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

__all__ = ["DEFAULT_CHUNK", "Monoid", "REDUCERS", "SEG_REDUCERS",
           "appended_keys", "doubling_scan",
           "extreme_carry_out", "extreme_combine", "monoid",
           "seg_extreme_scan", "sweep"]

#: elements per chunk of the blocked engine's default, and the tile of
#: every tile-bounded kernel here (a few hundred KB of int64 per temporary)
DEFAULT_CHUNK = 65536

#: ``reduce`` by op name, one whole-vector call on every engine but the
#: serial oracle: the ufunc reductions ``np.sum`` and friends wrap, called
#: directly (``any``/``all`` reduce in bool, as those do)
REDUCERS = {"sum": partial(np.add.reduce, axis=None),
            "max": partial(np.maximum.reduce, axis=None),
            "min": partial(np.minimum.reduce, axis=None),
            "any": partial(np.logical_or.reduce, axis=None, dtype=bool),
            "all": partial(np.logical_and.reduce, axis=None, dtype=bool)}

#: ``seg_distribute``'s per-segment reduction by op name (``reduceat``)
SEG_REDUCERS = {"sum": np.add, "max": np.maximum, "min": np.minimum,
                "or": np.logical_or, "and": np.logical_and}

#: a vector up to this long is scanned as a single row
_ONE_ROW_MAX = 1024
#: row width above that (``int16`` holds every in-row distance)
_ROW = 64


def extreme_combine(is_max: bool):
    """The extreme operator: ``np.maximum`` propagates NaN, ``np.fmin``
    passes over it (NaN orders as a largest value on both sides)."""
    return np.maximum if is_max else np.fmin


def _shifted_inclusive(values: np.ndarray, flags: np.ndarray,
                       comb) -> np.ndarray:
    """A buffer ``buf`` whose ``buf[i + 1]`` is the inclusive segmented
    extreme through ``values[i]``, position 0 opening a segment;
    ``buf[0]`` is left for the caller, so ``buf[:n]`` is the exclusive
    scan short of its head fill."""
    n = len(values)
    w = n if n <= _ONE_ROW_MAX else _ROW
    rows = -(-n // w)
    m = rows * w
    shape = (rows, w) if rows > 1 else (w,)  # 1-D calls are cheaper
    buf = np.empty(m + 1, dtype=values.dtype)
    buf[1:n + 1] = values
    heads = flags
    if m > n:  # padding made of heads never mixes with real values
        buf[n + 1:] = values[-1]
        heads = np.ones(m, dtype=bool)
        heads[:n] = flags
    x = buf[1:]
    grid = x.reshape(shape)
    col = np.arange(1, w + 1, dtype=np.int16)
    # 1 + the column of the last in-row head at or before each element;
    # 0 on the row's leading run
    seen = np.multiply(heads.reshape(shape), col, dtype=np.int16)
    np.maximum.accumulate(seen, axis=-1, out=seen)
    # elements since that head, capped at the column so that no pass
    # reaches into the previous row: the passes then run on flat views
    dist = (col - np.maximum(seen, 1)).ravel()
    top = int(dist.max())
    scratch = np.empty_like(x)
    d = 1
    while d <= top:
        # unmasked into scratch, then a masked copy: faster than a masked
        # ufunc over overlapping operands
        comb(x[d:], x[:-d], out=scratch[d:])
        np.copyto(x[d:], scratch[d:], where=dist[d:] >= d)
        d *= 2
    if rows > 1:
        # the open segment's extreme entering each row: the inclusive scan
        # of the row tails, where a head anywhere in a row resets it
        incoming = _shifted_inclusive(grid[:, -1], seen[:, -1] > 0,
                                      comb)[:rows, None]
        comb(grid[1:], incoming[1:], out=grid[1:], where=seen[1:] == 0)
    return buf


#: the appended key's budget: segment number and value field together
#: stay below ``2**62``, so no intermediate of the key build wraps
_KEY_BITS = 62


def appended_keys(values: np.ndarray, flags: np.ndarray, *, is_max: bool,
                  out: np.ndarray = None):
    """Figure 16's appended keys, or ``None`` when they would not fit.

    Each key is ``(segment number << bits) + field``: the field is
    ``v - lo`` for max, ``hi - v`` for min, so ``bits = bits(hi - lo)``
    holds it, and one *unsegmented* max-scan of the keys is the
    segmented extreme scan — a later segment's keys exceed every earlier
    one's.  The leading run (before the first head) is segment 0.
    Returns ``(keys, bits, base)``: int64 keys (in ``out`` when given)
    and the ``lo`` / ``hi`` the field is read back against.  Declines
    floats, bools, values outside ``(-2**62, 2**62)`` (int64 and uint64
    extremes among them) and any vector whose ``bits(hi - lo) +
    bits(#segments)`` exceeds the 62-bit budget."""
    if values.dtype.kind not in "iu":
        return None
    lo, hi = int(values.min()), int(values.max())
    bits = (hi - lo).bit_length()
    segments = int(np.count_nonzero(flags))
    if (lo <= -(1 << _KEY_BITS) or hi >= 1 << _KEY_BITS
            or bits + segments.bit_length() > _KEY_BITS):
        return None
    # the segment numbers, shifted, with the field's constant folded into
    # the first element: one multiply and one running sum
    keys = np.multiply(flags, 1 << bits, dtype=np.int64, out=out)
    keys[0] += -lo if is_max else hi
    np.add.accumulate(keys, out=keys)
    # every value is below 2**62 here, so a uint64 view is exact
    v = values.view(np.int64) if values.dtype == np.uint64 else values
    (np.add if is_max else np.subtract)(keys, v, out=keys)
    return keys, bits, (lo if is_max else hi)


def doubling_scan(values: np.ndarray, flags: np.ndarray, identity, *,
                  is_max: bool) -> np.ndarray:
    """The segmented extreme by Hillis–Steele doubling (no key bits): the
    kernel for every input :func:`appended_keys` declines."""
    out = _shifted_inclusive(values, flags, extreme_combine(is_max))
    return _fill_heads(out[:len(values)], flags, identity)


def _fill_heads(out: np.ndarray, flags: np.ndarray, identity) -> np.ndarray:
    """Heads, and position 0 whether flagged or not, take ``identity``."""
    ident = np.asarray(identity, dtype=out.dtype)
    out[0] = ident
    np.copyto(out, ident, where=flags.astype(bool, copy=False))
    return out


def sweep(algebra: "Monoid", pieces, out: np.ndarray,
          flags: np.ndarray = None) -> np.ndarray:
    """Figure 10's schedule over ``(s, e, rows)`` chunks: each chunk's
    exclusive scan from the identity (``local``), the carry entering it
    folded in (``apply``), the carry advanced past it (``combine``) — one
    loop for every scan, eager or fused, chunked or tiled."""
    carry = algebra.identity
    for s, e, rows in pieces:
        sfc = None if flags is None else flags[s:e]
        _, carry_out = algebra.local(rows, sfc, out[s:e])
        if s:  # the first chunk's carry is the identity: nothing to fold
            algebra.apply(out[s:e], sfc, carry)
        carry = algebra.combine(carry, carry_out)
    return out


def seg_extreme_scan(values: np.ndarray, flags: np.ndarray, identity, *,
                     is_max: bool, out: np.ndarray = None) -> np.ndarray:
    """Exclusive per-segment running max (or min) in O(n) work, into
    ``out`` when given.

    A vector longer than :data:`DEFAULT_CHUNK` is swept tile by tile
    (:func:`sweep` over the seg-extreme monoid, whose ``local`` is this
    kernel on one tile), so its temporaries are tile-sized.  On a tile,
    integers whose appended keys fit (:func:`appended_keys`) take Figure
    16's single max-scan; every other input takes :func:`doubling_scan`.
    Heads receive ``identity``, which is never combined into real values
    (``seg_or_scan`` relies on that with its non-neutral ``identity=0``).
    Position 0 starts a segment whether or not it is flagged.
    """
    n = len(values)
    if n == 0:
        return values.copy() if out is None else out
    tile = DEFAULT_CHUNK
    if n > tile:
        tiles = ((s, min(s + tile, n), values[s:s + tile])
                 for s in range(0, n, tile))
        return sweep(monoid("seg_extreme", values.dtype, identity, is_max),
                     tiles, np.empty_like(values) if out is None else out,
                     flags)
    # an int64 result buffer holds the keys: no key-sized temporary
    keyed = appended_keys(values, flags, is_max=is_max,
                          out=out if out is not None
                          and out.dtype == np.int64 else None)
    if keyed is None:
        scanned = doubling_scan(values, flags, identity, is_max=is_max)
        if out is None:
            return scanned
        out[:] = scanned
        return out
    keys, bits, base = keyed
    np.maximum.accumulate(keys, out=keys)
    # the field read back: the inclusive segmented extreme
    np.bitwise_and(keys, (1 << bits) - 1, out=keys)
    if is_max:
        np.add(keys, base, out=keys)
    else:
        np.subtract(base, keys, out=keys)
    if out is None:
        out = keys if keys.dtype == values.dtype else np.empty_like(values)
    out[1:] = keys[:-1]  # a memmove when ``out`` is ``keys``
    return _fill_heads(out, flags, identity)


def extreme_carry_out(values: np.ndarray, flags: np.ndarray,
                      out: np.ndarray, *, is_max: bool):
    """The open segment's extreme through ``values[-1]`` — the carry the
    next chunk / block / shard continues with — read in O(1) off this
    one's exclusive scan ``out``."""
    last = values[-1]
    if flags[-1] or len(values) == 1:
        return last
    return extreme_combine(is_max)(last, out[-1])


# --------------------------------------------------------------------- #
# The monoids
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Monoid:
    """One scan's carry algebra (see the module docstring)."""

    identity: object
    combine: Callable
    local: Callable
    apply: Callable
    carry_out: Callable
    #: whether ``local`` / ``apply`` / ``carry_out`` read segment flags
    segmented: bool = False


def _leading_run(flags: np.ndarray) -> int:
    """Elements before the first head (all of them if there is none):
    ``argmax`` stops at the first head, unlike ``flatnonzero``."""
    return int(flags.argmax()) if flags.any() else len(flags)


def _last_head(flags: np.ndarray) -> int:
    """The index of the last head, or -1 if there is none: ``argmax``
    over the reversed flags reads only the run after it."""
    last = len(flags) - 1 - int(flags[::-1].argmax())
    return last if flags[last] else -1


def _running_total(n: int, dtype, terms) -> object:
    """``np.add.accumulate(t)[-1]`` over the ``n`` terms ``t`` that
    ``terms(s, e, buf)`` writes (terms ``s:e`` into ``buf``), one tile at
    a time: the same additions in the same order, so the same float bits
    (``np.add.reduce`` sums floats pairwise, which does not), with one
    tile-sized buffer."""
    buf = np.empty(min(n, DEFAULT_CHUNK), dtype=dtype)
    total = None
    for s in range(0, n, DEFAULT_CHUNK):
        tile = buf[:min(n - s, DEFAULT_CHUNK)]
        terms(s, s + len(tile), tile)
        if total is not None:
            tile[0] = np.add(total, tile[0])
        np.add.accumulate(tile, out=tile)
        total = tile[-1]
    return total


def _plus(dtype) -> Monoid:
    zero = dtype.type(0)

    def local(values, flags=None, out=None):
        out = np.empty_like(values) if out is None else out
        if not len(values):
            return out, zero
        out[0] = zero
        # ufunc.accumulate runs in the lane dtype: narrow ints wrap alike,
        # with no int64 temporary (and without np.cumsum's call overhead)
        np.add.accumulate(values[:-1], out=out[1:])
        # the chunk total, read off the scan; integer ufuncs wrap modulo
        # 2**width silently, where the scalar ``+`` would warn
        return out, np.add(out[-1], values[-1])

    def apply(out, flags, carry):
        out += carry

    def combine(a, b):
        return np.add(np.asarray(a, dtype=dtype),
                      np.asarray(b, dtype=dtype))[()]

    def carry_out(values, flags=None):
        if not len(values):
            return zero
        return np.add(_sum(values[:-1]), values[-1])

    def _sum(values):
        """``local``'s ``out[-1]``: the sum of ``values`` (zero if empty)
        in ``local``'s order."""
        if dtype.kind in "biu" or not len(values):
            return np.add.reduce(values, dtype=dtype)
        return _running_total(len(values), dtype,
                              lambda s, e, buf: np.copyto(buf, values[s:e]))

    return Monoid(zero, combine, local, apply, carry_out)


def _max(dtype, identity) -> Monoid:
    ident = np.asarray(identity, dtype=dtype)[()]
    # clamping to the dtype's bottom is a no-op: skip that pass
    bottom = (np.iinfo(dtype).min if dtype.kind in "iu"
              else -np.inf if dtype.kind == "f" else False)
    clamp = not ident == bottom

    def local(values, flags=None, out=None):
        out = np.empty_like(values) if out is None else out
        if not len(values):
            return out, ident
        out[0] = ident
        np.maximum.accumulate(values[:-1], out=out[1:])
        if clamp:
            np.maximum(out[1:], ident, out=out[1:])
        # np.maximum, not Python max: the carry must propagate NaN exactly
        # as the within-chunk np.maximum.accumulate does
        return out, np.maximum(out[-1], values[-1])

    def apply(out, flags, carry):
        np.maximum(out, carry, out=out)

    def carry_out(values, flags=None):
        if not len(values):
            return ident
        # ``local``'s ``out[-1]``: the values before the last, clamped
        head = np.maximum.reduce(values[:-1], initial=ident)
        return np.maximum(head, values[-1])

    return Monoid(ident, np.maximum, local, apply, carry_out)


def _seg_plus(dtype) -> Monoid:
    plus = _plus(dtype)

    def local(values, flags, out=None):
        out = np.empty_like(values) if out is None else out
        if not len(values):
            return out, plus.identity
        # the exclusive sum is the running sum of the values shifted one
        # place right; each head past 0 closes the segment before it (the
        # leading run, for the first), and its incoming element also takes
        # that segment's sum away, so one running sum restarts at every head
        out[0] = plus.identity
        out[1:] = values[:-1]
        heads = np.flatnonzero(flags)
        restarts = heads[1:] if len(heads) and heads[0] == 0 else heads
        if len(restarts):
            out[restarts] -= np.add.reduceat(
                values[:restarts[-1]],
                np.concatenate(([0], restarts[:-1])), dtype=dtype)
        np.add.accumulate(out, out=out)
        # a float restart leaves a rounding residue: heads are exact
        out[restarts] = plus.identity
        return out, (np.add(out[-1], values[-1]), len(heads) > 0)

    def apply(out, flags, carry):
        out[:_leading_run(flags)] += carry[0]

    def combine(a, b):  # a precedes b
        return b if b[1] else (plus.combine(a[0], b[0]), a[1])

    def carry_out(values, flags):
        n = len(values)
        if not n:
            return plus.identity, False
        last = _last_head(flags)
        if last == n - 1 or n == 1:
            total = plus.identity  # ``local`` sets heads to the identity
        elif dtype.kind in "biu":
            # the closed segments' sums cancel exactly in wrapping
            # arithmetic: the open segment's elements alone remain
            total = np.add.reduce(values[max(last, 0):-1], dtype=dtype)
        else:
            total = _replayed_sum(values, flags)
        return np.add(total, values[-1]), last >= 0

    def _replayed_sum(values, flags):
        """``local``'s ``out[-1]`` on floats: its running sum, restarts and
        their rounding residues included, replayed tile by tile."""
        heads = np.flatnonzero(flags)
        restarts = heads[1:] if len(heads) and heads[0] == 0 else heads
        if len(restarts):  # the same call as ``local``'s: the same sums
            closed = np.add.reduceat(values[:restarts[-1]],
                                     np.concatenate(([0], restarts[:-1])),
                                     dtype=dtype)

        def terms(s, e, buf):
            if s:
                buf[:] = values[s - 1:e - 1]
            else:
                buf[0] = plus.identity
                buf[1:] = values[:e - 1]
            lo, hi = np.searchsorted(restarts, (s, e))
            if hi > lo:
                buf[restarts[lo:hi] - s] -= closed[lo:hi]

        return _running_total(len(values), dtype, terms)

    return Monoid((plus.identity, False), combine, local, apply, carry_out,
                  segmented=True)


def _seg_extreme(dtype, identity, is_max: bool) -> Monoid:
    comb = extreme_combine(is_max)
    ident = np.asarray(identity, dtype=dtype)[()]

    def local(values, flags, out=None):
        out = seg_extreme_scan(values, flags, ident, is_max=is_max, out=out)
        if not len(values):
            return out, (None, False)
        return out, (extreme_carry_out(values, flags, out, is_max=is_max),
                     bool(flags.any()))

    def apply(out, flags, carry):
        value = carry[0]
        if value is None or flags[0]:
            return
        run = _leading_run(flags)
        comb(out[:run], value, out=out[:run])
        # the run's first element has no local prefix at all: it takes the
        # carry alone (the identity fill must not clamp real values)
        out[0] = value

    def combine(a, b):  # a precedes b; a None value is "nothing scanned"
        if b[1]:
            return b
        return (b[0] if a[0] is None else comb(a[0], b[0]), a[1])

    def carry_out(values, flags):
        if not len(values):
            return None, False
        last = _last_head(flags)
        return comb.reduce(values[max(last, 0):]), last >= 0

    return Monoid((None, False), combine, local, apply, carry_out,
                  segmented=True)


@lru_cache(maxsize=256)
def _build(op: str, dtype, identity, is_max: bool, _negative_zero: bool):
    if op == "plus_scan":
        return _plus(dtype)
    if op == "max_scan":
        return _max(dtype, identity)
    if op == "seg_plus":
        return _seg_plus(dtype)
    if op == "seg_extreme":
        return _seg_extreme(dtype, identity, is_max)
    raise ValueError(f"unknown carry op {op!r}")


def monoid(op: str, dtype, identity=None, is_max: bool = False) -> Monoid:
    """The carry monoid of scan ``op`` over ``dtype``: ``"plus_scan"``,
    ``"max_scan"`` (clamped to ``identity``), ``"seg_plus"`` or
    ``"seg_extreme"`` (heads filled with ``identity``; max or min by
    ``is_max``).  Monoids are stateless and cached, so a short vector
    pays no build cost per call."""
    # -0.0 == 0.0 hash alike, yet fill heads with different bits
    negative_zero = (identity is not None and identity == 0
                     and math.copysign(1.0, identity) < 0)
    try:
        return _build(op, np.dtype(dtype), identity, is_max, negative_zero)
    except TypeError:  # an unhashable identity (a 0-d array) is not cached
        return _build.__wrapped__(op, np.dtype(dtype), identity, is_max,
                                  negative_zero)
