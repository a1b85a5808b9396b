"""The segmented extreme scan every engine shares: linear work, no sort.

The paper's point is that a segmented scan costs O(n) work, exactly like
an unsegmented one.  :func:`seg_extreme_scan` runs it as the two-level
schedule LightScan uses: the vector is viewed as rows, each row is
scanned by segmented Hillis–Steele doubling (``lg`` of the row width
passes, each kept inside its row by the elements' in-row distance to
their last head), the per-row ``(tail extreme, has_head)`` carries are
scanned by recursing on the row tails, and each incoming carry is folded
into its row's leading run.

Every engine's chunk / block / shard loop runs the same kernel with the
open segment's extreme passed in as ``carry``, so the ordering
convention lives here once: :func:`extreme_combine` is ``np.maximum``
for max (NaN propagates) and ``np.fmin`` for min (NaN loses to any real
value).  See ``docs/verification.md``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["block_carries", "extreme_carry_out", "extreme_combine",
           "seg_extreme_blocks", "seg_extreme_scan"]

#: a vector up to this long is scanned as a single row
_ONE_ROW_MAX = 1024
#: row width above that (``int16`` holds every in-row distance)
_ROW = 64


def extreme_combine(is_max: bool):
    """The extreme operator: ``np.maximum`` propagates NaN, ``np.fmin``
    passes over it (NaN orders as a largest value on both sides)."""
    return np.maximum if is_max else np.fmin


def _shifted_inclusive(values: np.ndarray, flags: np.ndarray, comb,
                       carry) -> np.ndarray:
    """A buffer ``buf`` whose ``buf[i + 1]`` is the inclusive segmented
    extreme through ``values[i]`` (``carry``, unless ``None``, folded into
    the run before the first head); ``buf[0]`` is left for the caller, so
    ``buf[:n]`` is the exclusive scan short of its head fill."""
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
        incoming = _shifted_inclusive(grid[:, -1], seen[:, -1] > 0, comb,
                                      carry)[:rows, None]
        comb(grid[1:], incoming[1:], out=grid[1:], where=seen[1:] == 0)
    if carry is not None:
        row0, seen0 = (grid[0], seen[0]) if rows > 1 else (grid, seen)
        comb(row0, carry, out=row0, where=seen0 == 0)
    return buf


def seg_extreme_scan(values: np.ndarray, flags: np.ndarray, identity, *,
                     is_max: bool, carry=None) -> np.ndarray:
    """Exclusive per-segment running max (or min) in O(n) work.

    Heads receive ``identity``, which is never combined into real values
    (``seg_or_scan`` relies on that with its non-neutral ``identity=0``).
    ``carry`` is the extreme of an open segment that continues into
    ``values[0]`` when ``flags[0]`` is False — the chunk / block / shard
    boundary case; with ``carry=None`` position 0 starts a segment.
    """
    n = len(values)
    if n == 0:
        return values.copy()
    buf = _shifted_inclusive(values, flags, extreme_combine(is_max), carry)
    out = buf[:n]
    ident = np.asarray(identity, dtype=values.dtype)
    out[0] = ident if carry is None else carry
    np.copyto(out, ident, where=flags.astype(bool, copy=False))
    return out


def extreme_carry_out(values: np.ndarray, flags: np.ndarray,
                      out: np.ndarray, *, is_max: bool, carry=None):
    """The open segment's extreme through ``values[-1]`` — the carry the
    next chunk / block / shard continues with — read in O(1) off this
    one's exclusive scan ``out`` (computed with the same ``carry``)."""
    last = values[-1]
    if flags[-1] or (len(values) == 1 and carry is None):
        return last
    return extreme_combine(is_max)(last, out[-1])


def block_carries(exts: np.ndarray, has_head: np.ndarray, identity, *,
                  is_max: bool) -> np.ndarray:
    """The extreme entering each block, from the per-block ``(extreme
    since the last head, has_head)`` partials; block 0, which nothing
    precedes, gets ``identity``."""
    carries = _shifted_inclusive(exts, has_head, extreme_combine(is_max),
                                 None)[:len(exts)]
    carries[0] = identity
    return carries


def seg_extreme_blocks(values: np.ndarray, flags: np.ndarray, identity, *,
                       is_max: bool, block: int) -> np.ndarray:
    """:func:`seg_extreme_scan` run ``block`` elements at a time, each
    block continuing the open segment from the one before (the blocked
    engine's chunk loop): temporaries stay block-bounded."""
    out = np.empty_like(values)
    carry = None
    for s in range(0, len(values), block):
        seg, sfc = values[s:s + block], flags[s:s + block]
        local = out[s:s + block] = seg_extreme_scan(
            seg, sfc, identity, is_max=is_max, carry=carry)
        carry = extreme_carry_out(seg, sfc, local, is_max=is_max,
                                  carry=carry)
    return out
