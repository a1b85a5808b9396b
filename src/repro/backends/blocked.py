"""Chunked execution with carry propagation: Figure 10, performed for real.

The paper simulates a long vector on ``p`` physical processors by giving
each processor a contiguous block and sweeping: serial scan within each
block, one cross-block scan of the partial results, then add the block
offset back in.  :class:`BlockedBackend` executes that schedule wherever
chunking bounds a temporary: the four scans, fused pipelines, ``pack``,
``seg_copy``, ``seg_back_copy`` and ``seg_distribute`` walk the vector
in fixed-size chunks, carrying the running sum / extreme / open-segment
state across chunk boundaries, so their temporaries never outgrow a
chunk (``seg_back_copy`` and ``seg_distribute`` also build an
``O(#segments)`` table, spread in chunks).  A vector of at most one
chunk takes each of these in one whole-vector step.  Every other
primitive allocates nothing but its result (``combine_write`` adds one
``bool`` mask), so it has one whole-vector body at every chunk size.
An eager elementwise map is one such body: it carries no state across
chunks, so its one bounded path is fusion, which evaluates the chain
chunk by chunk into one result buffer.  Whole-vector execution is thus
the case of one chunk: :class:`~repro.backends.NumPyBackend` is this
engine with a chunk that holds any vector.

The four scans, eager or fused, are one loop
(:func:`repro.backends.carry.sweep`, which the segmented extreme kernel's
tile loop shares) over the carry monoids of :mod:`repro.backends.carry`,
the same ones the distributed workers run; a one-chunk scan is the
monoid's ``local``.
Integer and boolean results are bit-identical at every chunk size
(integer addition is associative modulo 2^64, max/min exactly
associative); float ``+``-scans and segmented sums may round differently
from the one-chunk case, exactly as a real blocked machine would.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .base import Backend
from .carry import DEFAULT_CHUNK, REDUCERS, SEG_REDUCERS, monoid, sweep

__all__ = ["BlockedBackend"]

#: the ops whose chunk loop bounds their temporaries
_CHUNKED = frozenset({"plus_scan", "max_scan", "seg_plus_scan",
                      "seg_extreme_scan", "pack", "seg_copy",
                      "seg_back_copy", "seg_distribute"})


def _seg_ids(seg_flags: np.ndarray, first: int = 0) -> np.ndarray:
    """Segment number of each element, counting from ``first``: the
    inclusive ``+-scan`` of the flags plus ``first - 1``, built in one
    int64 buffer in place (the offset rides on the first element)."""
    ids = seg_flags.astype(np.int64)
    if len(ids):
        ids[0] += first - 1
        np.add.accumulate(ids, out=ids)
    return ids


class BlockedBackend(Backend):
    """Fixed-size-chunk execution with carry propagation across chunks."""

    name = "blocked"
    spec_syntax = "blocked[:<chunk>]"
    fuses = True

    @classmethod
    def from_spec(cls, arg: str) -> "BlockedBackend":
        if not arg:
            return cls()
        try:
            chunk = int(arg)
        except ValueError:
            raise ValueError(
                f"backend 'blocked' takes an integer chunk size "
                f"({cls.spec_syntax}), got {arg!r}") from None
        return cls(chunk=chunk)

    def __init__(self, chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ValueError(f"chunk size must be >= 1, got {chunk}")
        self.chunk = int(chunk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockedBackend(chunk={self.chunk})"

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """One rule for every chunk size: an op run in chunks never holds
        more than one chunk of the widest lane (8-byte words), whatever
        the vector's length; any other op holds the whole-vector
        estimate.  The segmented extreme kernel is tile-bounded on every
        engine, one chunk included: it holds up to 3x the lane bytes of
        one chunk or one tile (:data:`~repro.backends.carry.DEFAULT_CHUNK`
        elements), whichever is smaller.  Measured by ``tracemalloc`` on
        8-byte lanes, over its result: the doubling branch (floats,
        64-bit extremes) 2.8x at 2^21 elements in one chunk, 1.8x at one
        full tile and 2.9x at 5000 elements; the keyed branch 0.13x.
        A fused pipeline reports the chain executor's own accounting: the
        chunk-bounded intermediate bytes :meth:`fused_pipeline` recorded
        while its plan ran, which is how a profiler sees fusion's memory
        win per pipeline rather than a guess."""
        if op == "fused_pipeline":
            return self._fused_temp
        if op == "seg_extreme_scan":
            return 3 * min(out_bytes, self.chunk * 8, DEFAULT_CHUNK * 8)
        if op in _CHUNKED:
            out_bytes = min(out_bytes, self.chunk * 8)
        return out_bytes

    def _spans(self, n: int) -> Iterator[tuple[int, int]]:
        for start in range(0, n, self.chunk):
            yield start, min(start + self.chunk, n)

    def _scan(self, op: str, values: np.ndarray, flags=None, identity=None,
              is_max: bool = False) -> np.ndarray:
        algebra = monoid(op, values.dtype, identity, is_max)
        if len(values) <= self.chunk:
            return algebra.local(values, flags)[0]
        pieces = ((s, e, values[s:e]) for s, e in self._spans(len(values)))
        return sweep(algebra, pieces, np.empty_like(values), flags)

    # ------------------------ fused pipelines -------------------------- #

    def fused_pipeline(self, plan) -> np.ndarray:
        """Fold the elementwise chain into the per-chunk carry loop.

        Each chunk is produced by evaluating the whole chain on that
        chunk's slice of the inputs, then consumed immediately — by the
        output buffer for a plain chain, or by the terminal scan's
        carry sweep, so a fused ``plus_scan(a*b + c)`` makes **one pass**
        over each chunk with only chunk-sized temporaries.  The sweep is
        the eager scans' own, so fused results are bit-identical to
        unfused blocked execution (including float association).
        """
        n = plan.n
        dtype = plan.root_dtype
        # chain intermediates + the evaluated chunk, all chunk-sized
        self._fused_temp = (len(plan.steps)
                            * min(n, self.chunk) * max(1, dtype.itemsize))
        if plan.terminal is None:
            return plan.evaluate(self.chunk)
        return sweep(monoid(plan.terminal, dtype, *plan.terminal_args),
                     plan.chunks(self.chunk), np.empty(n, dtype=dtype))

    # -------------------------- elementwise --------------------------- #

    def elementwise(self, fn: Callable, *operands) -> np.ndarray:
        return fn(*operands)

    def adjacent_ne(self, values: np.ndarray) -> np.ndarray:
        changed = np.empty(len(values), dtype=bool)
        if len(values):
            changed[0] = True
            np.not_equal(values[1:], values[:-1], out=changed[1:])
        return changed

    # ----------------------------- scans ------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        return self._scan("plus_scan", values)

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        return self._scan("max_scan", values, identity=identity)

    # ------------------------- communication -------------------------- #

    def permute(self, values: np.ndarray, index: np.ndarray, length: int,
                default) -> np.ndarray:
        out = np.full(length, default, dtype=values.dtype)
        out[index] = values
        return out

    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        return values[index]

    def combine_write(self, values: np.ndarray, index: np.ndarray,
                      length: int, op: str, default) -> np.ndarray:
        if op == "sum":
            out = np.zeros(length, dtype=values.dtype)
            np.add.at(out, index, values)
            return out
        if op == "any":
            out = np.full(length, default, dtype=values.dtype)
            out[index] = values  # last writer wins: an arbitrary-winner write
            return out
        if op != "min" and op != "max":
            raise ValueError(f"unknown combine op {op!r}")
        # reduce into a sentinel that never wins, then restore ``default``
        # where nothing was written
        if np.issubdtype(values.dtype, np.integer):
            info = np.iinfo(values.dtype)
            sentinel = info.max if op == "min" else info.min
        else:
            sentinel = np.inf if op == "min" else -np.inf
        out = np.full(length, sentinel, dtype=values.dtype)
        (np.minimum if op == "min" else np.maximum).at(out, index, values)
        untouched = np.ones(length, dtype=bool)
        untouched[index] = False
        np.copyto(out, np.asarray(default, dtype=values.dtype),
                  where=untouched)
        return out

    def pack(self, values: np.ndarray, flags: np.ndarray,
             index: np.ndarray, count: int) -> np.ndarray:
        out = np.empty(count, dtype=values.dtype)
        if len(values) <= self.chunk:
            out[index[flags]] = values[flags]
            return out
        for s, e in self._spans(len(values)):
            sel = flags[s:e]
            out[index[s:e][sel]] = values[s:e][sel]
        return out

    def shift(self, values: np.ndarray, k: int, fill) -> np.ndarray:
        n = len(values)
        out = np.full(n, fill, dtype=values.dtype)
        if k >= 0:
            if k < n:
                out[k:] = values[: n - k]
        elif -k < n:
            out[: n + k] = values[-k:]
        return out

    def reverse(self, values: np.ndarray) -> np.ndarray:
        return values[::-1]

    # ------------------------ broadcast / reduce ----------------------- #

    def full(self, length: int, value, dtype) -> np.ndarray:
        return np.full(length, value, dtype=dtype)

    def reduce(self, values: np.ndarray, op: str):
        return REDUCERS[op](values)

    # ---------------------------- segmented ---------------------------- #

    def segment_ids(self, seg_flags: np.ndarray) -> np.ndarray:
        return _seg_ids(seg_flags)

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        return self._scan("seg_plus", values, seg_flags)

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        return self._scan("seg_extreme", values, seg_flags, identity, is_max)

    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        if len(values) <= self.chunk:
            return values[seg_flags.nonzero()[0]][_seg_ids(seg_flags)]
        out = np.empty_like(values)
        carry = values[0]  # the open segment's head value
        for s, e in self._spans(len(values)):
            seg, sfc = values[s:e], seg_flags[s:e]
            heads = sfc.nonzero()[0]
            # each element's row in ``table``: its count of heads so far
            # (0 on the run continuing from the previous chunk)
            rows = sfc.astype(np.int64)
            np.add.accumulate(rows, out=rows)
            table = np.concatenate(([carry], seg[heads]))
            out[s:e] = table[rows]
            if len(heads):
                carry = seg[heads[-1]]
        return out

    def seg_back_copy(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        n = len(values)
        if n == 0:
            return values.copy()
        # the element before each later head, and the vector's last
        tails = values[np.append(seg_flags[1:].nonzero()[0], n - 1)]
        if n <= self.chunk:
            return tails[_seg_ids(seg_flags)]
        return self._spread(tails, seg_flags)

    def seg_distribute(self, values: np.ndarray, seg_flags: np.ndarray,
                       op: str) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        ufunc = SEG_REDUCERS[op]
        if len(values) <= self.chunk:
            per_segment = ufunc.reduceat(values, seg_flags.nonzero()[0])
            return per_segment.astype(values.dtype,
                                      copy=False)[_seg_ids(seg_flags)]
        parts: list[np.ndarray] = []
        carry = None  # reduction of the segment still open at the chunk end
        for s, e in self._spans(len(values)):
            sfc = seg_flags[s:e]
            heads = np.flatnonzero(sfc)
            if not sfc[0]:  # the leading run continues the open segment
                heads = np.concatenate(([0], heads))
            red = ufunc.reduceat(values[s:e], heads)
            if carry is not None:
                if sfc[0]:
                    parts.append(carry)
                else:
                    red[:1] = ufunc(carry, red[:1])
            parts.append(red[:-1])
            carry = red[-1:]
        parts.append(carry)
        per_segment = np.concatenate(parts)
        return self._spread(per_segment.astype(values.dtype, copy=False),
                            seg_flags)

    def _spread(self, per_segment: np.ndarray,
                seg_flags: np.ndarray) -> np.ndarray:
        """``out[i] = per_segment[segment_of(i)]``, chunk by chunk."""
        out = np.empty(len(seg_flags), dtype=per_segment.dtype)
        first = 0
        for s, e in self._spans(len(seg_flags)):
            ids = _seg_ids(seg_flags[s:e], first)
            out[s:e] = per_segment[ids]
            first = int(ids[-1]) + 1
        return out
