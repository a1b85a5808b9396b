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
  that chunk's ``local`` result, in place.

The blocked engine's chunk loop, native's fallback (which *is* that
loop), the distributed workers' two phases and the supervisor's carry
exchange all look a monoid up by op name (:func:`monoid`), so the carry
math and its conventions live here once.  Segmented carries are
``(value, has_head)`` pairs: a head anywhere in a chunk resets the open
segment, and ``apply`` only touches the chunk's leading run (the
elements before its first head).

:func:`seg_extreme_scan` is the segmented max/min chunk kernel, in O(n)
work with no sort: the vector is viewed as rows, each row is scanned by
segmented Hillis–Steele doubling (``lg`` of the row width passes, each
kept inside its row by the elements' in-row distance to their last
head), the per-row ``(tail extreme, has_head)`` carries are scanned by
recursing on the row tails, and each incoming carry is folded into its
row's leading run — LightScan's two-level shape.  Its ordering
convention is :func:`extreme_combine`: ``np.maximum`` for max (NaN
propagates) and ``np.fmin`` for min (NaN loses to any real value).  See
``docs/verification.md``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Monoid", "block_carries", "extreme_carry_out", "extreme_combine",
           "monoid", "seg_extreme_scan"]

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


def seg_extreme_scan(values: np.ndarray, flags: np.ndarray, identity, *,
                     is_max: bool) -> np.ndarray:
    """Exclusive per-segment running max (or min) in O(n) work.

    Heads receive ``identity``, which is never combined into real values
    (``seg_or_scan`` relies on that with its non-neutral ``identity=0``).
    Position 0 starts a segment whether or not it is flagged.
    """
    n = len(values)
    if n == 0:
        return values.copy()
    out = _shifted_inclusive(values, flags, extreme_combine(is_max))[:n]
    ident = np.asarray(identity, dtype=values.dtype)
    out[0] = ident
    np.copyto(out, ident, where=flags.astype(bool, copy=False))
    return out


def extreme_carry_out(values: np.ndarray, flags: np.ndarray,
                      out: np.ndarray, *, is_max: bool):
    """The open segment's extreme through ``values[-1]`` — the carry the
    next chunk / block / shard continues with — read in O(1) off this
    one's exclusive scan ``out``."""
    last = values[-1]
    if flags[-1] or len(values) == 1:
        return last
    return extreme_combine(is_max)(last, out[-1])


def block_carries(exts: np.ndarray, has_head: np.ndarray, identity, *,
                  is_max: bool) -> np.ndarray:
    """The extreme entering each block, from the per-block ``(extreme
    since the last head, has_head)`` partials; block 0, which nothing
    precedes, gets ``identity``."""
    carries = _shifted_inclusive(exts, has_head,
                                 extreme_combine(is_max))[:len(exts)]
    carries[0] = identity
    return carries


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
    #: whether ``local`` / ``apply`` read segment flags
    segmented: bool = False


def _wrapping(fn):
    """``fn`` with integer overflow silenced: carries wrap modulo
    ``2**width`` by design."""
    def run(*args):
        with np.errstate(over="ignore"):
            return fn(*args)
    return run


def _leading_run(flags: np.ndarray) -> int:
    """Elements before the first head (all of them if there is none):
    ``argmax`` stops at the first head, unlike ``flatnonzero``."""
    return int(flags.argmax()) if flags.any() else len(flags)


def _plus(dtype) -> Monoid:
    zero = dtype.type(0)

    def local(values, flags=None, out=None):
        out = np.empty_like(values) if out is None else out
        if len(values):
            out[0] = zero
            np.cumsum(values[:-1], out=out[1:])
        return out, values.sum(dtype=dtype)

    def apply(out, flags, carry):
        out += carry

    def combine(a, b):
        return np.add(np.asarray(a, dtype=dtype),
                      np.asarray(b, dtype=dtype))[()]

    return Monoid(zero, _wrapping(combine), _wrapping(local),
                  _wrapping(apply))


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
        return out, np.maximum(ident, values.max())

    def apply(out, flags, carry):
        np.maximum(out, carry, out=out)

    return Monoid(ident, np.maximum, local, apply)


def _seg_plus(dtype) -> Monoid:
    plus = _plus(dtype)

    def local(values, flags, out=None):
        out = np.empty_like(values) if out is None else out
        ex, total = plus.local(values)
        heads = np.flatnonzero(flags)
        # what each local segment subtracts from the chunk-local exclusive
        # sums: nothing on the leading run, its head's sum on the others
        offsets = np.empty(len(heads) + 1, dtype=dtype)
        offsets[0] = 0
        offsets[1:] = ex[heads]
        np.subtract(ex, offsets[np.cumsum(flags)], out=out)
        if len(heads):
            return out, (values[heads[-1]:].sum(dtype=dtype), True)
        return out, (total, False)

    def apply(out, flags, carry):
        out[:_leading_run(flags)] += carry[0]

    def combine(a, b):  # a precedes b
        return b if b[1] else (plus.combine(a[0], b[0]), a[1])

    return Monoid((plus.identity, False), combine, _wrapping(local),
                  _wrapping(apply), segmented=True)


def _seg_extreme(dtype, identity, is_max: bool) -> Monoid:
    comb = extreme_combine(is_max)
    ident = np.asarray(identity, dtype=dtype)[()]

    def local(values, flags, out=None):
        if not len(values):
            return (values.copy() if out is None else out), (None, False)
        scanned = seg_extreme_scan(values, flags, ident, is_max=is_max)
        if out is None:
            out = scanned
        else:
            out[:] = scanned
        return out, (extreme_carry_out(values, flags, scanned,
                                       is_max=is_max), bool(flags.any()))

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

    return Monoid((None, False), combine, local, apply, segmented=True)


def monoid(op: str, dtype, identity=None, is_max: bool = False) -> Monoid:
    """The carry monoid of scan ``op`` over ``dtype``: ``"plus_scan"``,
    ``"max_scan"`` (clamped to ``identity``), ``"seg_plus"`` or
    ``"seg_extreme"`` (heads filled with ``identity``; max or min by
    ``is_max``)."""
    dtype = np.dtype(dtype)
    if op == "plus_scan":
        return _plus(dtype)
    if op == "max_scan":
        return _max(dtype, identity)
    if op == "seg_plus":
        return _seg_plus(dtype)
    if op == "seg_extreme":
        return _seg_extreme(dtype, identity, is_max)
    raise ValueError(f"unknown carry op {op!r}")
