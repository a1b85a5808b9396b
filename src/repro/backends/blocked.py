"""Chunked execution with carry propagation: Figure 10, performed for real.

The paper simulates a long vector on ``p`` physical processors by giving
each processor a contiguous block and sweeping: serial scan within each
block, one cross-block scan of the partial results, then add the block
offset back in.  :class:`BlockedBackend` executes that schedule literally —
every primitive walks the vector in fixed-size chunks, carrying the running
sum / running extreme / open-segment state across chunk boundaries — so a
vector is never *operated on* whole.  The four scans, eager or fused, are
one loop (:meth:`BlockedBackend._sweep`) over the carry monoids of
:mod:`repro.backends.carry`, the same ones the distributed workers run.
Temporaries are bounded by the chunk size, which is what makes out-of-core
vector lengths possible; output buffers are still materialized in full,
as they are the operation's result.

Bit-exactness: for integer and boolean vectors every result is
bit-identical to :class:`~repro.backends.NumPyBackend` (integer addition
is associative modulo 2^64, max/min are exactly associative).  Float
``+``-scans may round differently from the whole-vector ``np.cumsum``,
exactly as a real blocked machine would.

Two table-driven segmented operations (``seg_back_copy``,
``seg_distribute``) need per-segment lookahead, so they build an
``O(#segments)`` table of per-segment results and then spread it in
chunks; value temporaries stay chunk-bounded.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .base import Backend
from .carry import monoid
from .numpy_backend import _SEG_REDUCERS, NumPyBackend

__all__ = ["BlockedBackend"]

#: default elements per chunk (a few hundred KB of int64 per temporary)
DEFAULT_CHUNK = 65536


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
        # per-segment table operations reuse the whole-vector expressions
        # on one chunk at a time
        self._np = NumPyBackend()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockedBackend(chunk={self.chunk})"

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Chunk-bounded temporaries: working storage never exceeds one
        chunk of the widest lane (8-byte words), regardless of vector
        length — the figure a profiler should see drop when switching a
        long-vector run from ``numpy`` to ``blocked``.  Fused pipelines
        report the chain executor's own chunk-bounded accounting."""
        if op == "fused_pipeline":
            return super().temp_bytes(op, out_bytes)
        return min(out_bytes, self.chunk * 8)

    def _spans(self, n: int) -> Iterator[tuple[int, int]]:
        for start in range(0, n, self.chunk):
            yield start, min(start + self.chunk, n)

    def _sweep(self, algebra, pieces, out: np.ndarray,
               flags: np.ndarray = None) -> np.ndarray:
        """Figure 10's schedule over ``(s, e, rows)`` chunks: each chunk's
        exclusive scan from the identity (``local``), the carry entering
        it folded in (``apply``), the carry advanced past it
        (``combine``) — one loop for every scan, eager or fused."""
        carry = algebra.identity
        for s, e, rows in pieces:
            sfc = None if flags is None else flags[s:e]
            _, carry_out = algebra.local(rows, sfc, out[s:e])
            if s:  # the first chunk's carry is the identity: nothing to fold
                algebra.apply(out[s:e], sfc, carry)
            carry = algebra.combine(carry, carry_out)
        return out

    def _scan(self, op: str, values: np.ndarray, flags=None, identity=None,
              is_max: bool = False) -> np.ndarray:
        pieces = ((s, e, values[s:e]) for s, e in self._spans(len(values)))
        return self._sweep(monoid(op, values.dtype, identity, is_max),
                           pieces, np.empty_like(values), flags)

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
        return self._sweep(monoid(plan.terminal, dtype, *plan.terminal_args),
                           plan.chunks(self.chunk), np.empty(n, dtype=dtype))

    # -------------------------- elementwise --------------------------- #

    def elementwise(self, fn: Callable, *operands) -> np.ndarray:
        n = None
        for op in operands:
            if isinstance(op, np.ndarray) and op.ndim == 1:
                n = len(op)
                break
        if n is None or n <= self.chunk:
            return fn(*operands)
        pieces = []
        for s, e in self._spans(n):
            sliced = [op[s:e] if isinstance(op, np.ndarray) and op.ndim == 1
                      else op for op in operands]
            pieces.append(fn(*sliced))
        return np.concatenate(pieces)

    def adjacent_ne(self, values: np.ndarray) -> np.ndarray:
        out = np.empty(len(values), dtype=bool)
        prev = None
        for s, e in self._spans(len(values)):
            seg = values[s:e]
            out[s] = True if prev is None else bool(seg[0] != prev)
            out[s + 1:e] = seg[1:] != seg[:-1]
            prev = seg[-1]
        return out

    # ----------------------------- scans ------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        return self._scan("plus_scan", values)

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        return self._scan("max_scan", values, identity=identity)

    # ------------------------- communication -------------------------- #

    def permute(self, values: np.ndarray, index: np.ndarray, length: int,
                default) -> np.ndarray:
        out = np.full(length, default, dtype=values.dtype)
        for s, e in self._spans(len(values)):
            out[index[s:e]] = values[s:e]
        return out

    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        out = np.empty(len(index), dtype=values.dtype)
        for s, e in self._spans(len(index)):
            out[s:e] = values[index[s:e]]
        return out

    def combine_write(self, values: np.ndarray, index: np.ndarray,
                      length: int, op: str, default) -> np.ndarray:
        if op == "min" or op == "max":
            if np.issubdtype(values.dtype, np.integer):
                info = np.iinfo(values.dtype)
                sentinel = info.max if op == "min" else info.min
            else:
                sentinel = np.inf if op == "min" else -np.inf
            ufunc = np.minimum if op == "min" else np.maximum
            touched = np.zeros(length, dtype=bool)
            tmp = np.full(length, sentinel, dtype=values.dtype)
            for s, e in self._spans(len(values)):
                touched[index[s:e]] = True
                ufunc.at(tmp, index[s:e], values[s:e])
            return np.where(touched, tmp,
                            np.asarray(default, dtype=values.dtype))
        if op == "sum":
            tmp = np.zeros(length, dtype=values.dtype)
            for s, e in self._spans(len(values)):
                np.add.at(tmp, index[s:e], values[s:e])
            return tmp
        if op == "any":
            out = np.full(length, default, dtype=values.dtype)
            for s, e in self._spans(len(values)):
                out[index[s:e]] = values[s:e]
            return out
        raise ValueError(f"unknown combine op {op!r}")

    def pack(self, values: np.ndarray, flags: np.ndarray,
             index: np.ndarray, count: int) -> np.ndarray:
        out = np.empty(count, dtype=values.dtype)
        for s, e in self._spans(len(values)):
            sel = flags[s:e]
            out[index[s:e][sel]] = values[s:e][sel]
        return out

    def shift(self, values: np.ndarray, k: int, fill) -> np.ndarray:
        n = len(values)
        out = np.full(n, fill, dtype=values.dtype)
        # copy the surviving range chunk by chunk (one fixed-offset send)
        if k >= 0:
            lo, span = k, n - k
        else:
            lo, span = 0, n + k
        for s, e in self._spans(max(span, 0)):
            out[lo + s:lo + e] = values[s - min(k, 0):e - min(k, 0)] \
                if k < 0 else values[s:e]
        return out

    def reverse(self, values: np.ndarray) -> np.ndarray:
        return values[::-1]

    # ------------------------ broadcast / reduce ----------------------- #

    def full(self, length: int, value, dtype) -> np.ndarray:
        return np.full(length, value, dtype=dtype)

    def reduce(self, values: np.ndarray, op: str):
        partials = [self._np.reduce(values[s:e], op)
                    for s, e in self._spans(len(values))]
        return self._np.reduce(np.array(partials), op)

    # ---------------------------- segmented ---------------------------- #

    def segment_ids(self, seg_flags: np.ndarray) -> np.ndarray:
        out = seg_flags.astype(np.int64)
        carry = 0
        for s, e in self._spans(len(seg_flags)):
            # the chunk's running flag count, offset by the segments
            # before it (folded into its first element), all in place
            out[s] += carry - 1
            np.add.accumulate(out[s:e], out=out[s:e])
            carry = int(out[e - 1]) + 1
        return out

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        return self._scan("seg_plus", values, seg_flags)

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        return self._scan("seg_extreme", values, seg_flags, identity, is_max)

    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
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
        if len(values) == 0:
            return values.copy()
        tails = self._segment_tails(values, seg_flags)
        return self._spread(tails, seg_flags)

    def seg_distribute(self, values: np.ndarray, seg_flags: np.ndarray,
                       op: str) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        ufunc = _SEG_REDUCERS[op]
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

    def _segment_tails(self, values: np.ndarray,
                       seg_flags: np.ndarray) -> np.ndarray:
        """Last value of each segment, one entry per segment: the element
        before each head, and the vector's last one."""
        before_heads = [values[np.flatnonzero(seg_flags[s:e]) + (s - 1)]
                        for s, e in self._spans(len(values))]
        # the first flag is always a head: drop its phantom predecessor
        return np.concatenate(before_heads + [values[-1:]])[1:]

    def _spread(self, per_segment: np.ndarray,
                seg_flags: np.ndarray) -> np.ndarray:
        """``out[i] = per_segment[segment_of(i)]``, chunk by chunk."""
        out = np.empty(len(seg_flags), dtype=per_segment.dtype)
        carry = 0
        for s, e in self._spans(len(seg_flags)):
            ids = seg_flags[s:e].astype(np.int64)
            ids[0] += carry - 1
            np.add.accumulate(ids, out=ids)
            out[s:e] = per_segment[ids]
            carry = int(ids[-1]) + 1
        return out
