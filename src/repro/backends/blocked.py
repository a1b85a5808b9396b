"""Chunked execution with carry propagation: Figure 10, performed for real.

The paper simulates a long vector on ``p`` physical processors by giving
each processor a contiguous block and sweeping: serial scan within each
block, one cross-block scan of the partial results, then add the block
offset back in.  :class:`BlockedBackend` executes that schedule literally —
every primitive walks the vector in fixed-size chunks, carrying the running
sum / running extreme / open-segment state across chunk boundaries — so a
vector is never *operated on* whole.  Temporaries are bounded by the chunk
size, which is what makes out-of-core vector lengths (and future sharding
across workers) possible; output buffers are still materialized in full,
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
from .carry import seg_extreme_blocks
from .numpy_backend import NumPyBackend, _exclusive_cumsum

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

    # ------------------------ fused pipelines -------------------------- #

    def fused_pipeline(self, plan) -> np.ndarray:
        """Fold the elementwise chain into the per-chunk carry loop.

        Each chunk is produced by evaluating the whole chain on that
        chunk's slice of the inputs, then consumed immediately — by the
        output buffer for a plain chain, or by the terminal scan's
        carry-propagating sweep, so a fused ``plus_scan(a*b + c)`` makes
        **one pass** over each chunk with only chunk-sized temporaries.
        The carry arithmetic is byte-for-byte the eager
        :meth:`plus_scan` / :meth:`max_scan` loop, so fused results are
        bit-identical to unfused blocked execution (including float
        association).
        """
        n = plan.n
        dtype = plan.root_dtype
        # chain intermediates + the evaluated chunk, all chunk-sized
        self._fused_temp = (len(plan.steps)
                            * min(n, self.chunk) * max(1, dtype.itemsize))
        if plan.terminal is None:
            return plan.evaluate(self.chunk)
        out = np.empty(n, dtype=dtype)
        if plan.terminal == "plus_scan":
            carry = dtype.type(0)
            with np.errstate(over="ignore"):  # modular carries wrap
                for s, e, seg in plan.chunks(self.chunk):
                    out[s] = carry
                    np.cumsum(seg[:-1], out=out[s + 1:e])
                    out[s + 1:e] += carry
                    carry = carry + seg.sum(dtype=dtype)
            return out
        # max_scan terminal
        (identity,) = plan.terminal_args
        carry = np.asarray(identity, dtype=dtype)[()]
        for s, e, seg in plan.chunks(self.chunk):
            out[s] = carry
            np.maximum.accumulate(seg[:-1], out=out[s + 1:e])
            np.maximum(out[s + 1:e], carry, out=out[s + 1:e])
            carry = np.maximum(carry, seg.max()) if len(seg) else carry
        return out

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
        out = np.empty_like(values)
        carry = values.dtype.type(0)
        with np.errstate(over="ignore"):  # modular carries wrap by design
            for s, e in self._spans(len(values)):
                seg = values[s:e]
                out[s] = carry
                np.cumsum(seg[:-1], out=out[s + 1:e])
                out[s + 1:e] += carry
                carry = carry + seg.sum(dtype=values.dtype)
        return out

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        out = np.empty_like(values)
        carry = np.asarray(identity, dtype=values.dtype)[()]
        for s, e in self._spans(len(values)):
            seg = values[s:e]
            out[s] = carry
            np.maximum.accumulate(seg[:-1], out=out[s + 1:e])
            np.maximum(out[s + 1:e], carry, out=out[s + 1:e])
            # np.maximum, not Python max: the carry must propagate NaN
            # exactly as the within-chunk np.maximum.accumulate does
            carry = np.maximum(carry, seg.max()) if len(seg) else carry
        return out

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
        out = np.empty(len(seg_flags), dtype=np.int64)
        carry = 0
        for s, e in self._spans(len(seg_flags)):
            np.cumsum(seg_flags[s:e], out=out[s:e])
            out[s:e] += carry - 1
            carry = int(out[e - 1]) + 1
        return out

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        out = np.empty_like(values)
        carry = values.dtype.type(0)  # sum since the open segment's head
        with np.errstate(over="ignore"):  # modular carries wrap by design
            return self._seg_plus_chunks(values, seg_flags, out, carry)

    def _seg_plus_chunks(self, values, seg_flags, out, carry):
        for s, e in self._spans(len(values)):
            seg, sfc = values[s:e], seg_flags[s:e]
            ex = _exclusive_cumsum(seg)
            local = np.cumsum(sfc)  # 0 on the run continuing the open segment
            heads = np.flatnonzero(sfc)
            # offsets[i]: what local segment i subtracts from the chunk-local
            # exclusive sums; the continuing run (i = 0) *adds* the carry
            # (modular arithmetic makes the negation exact for any int dtype)
            offsets = np.empty(len(heads) + 1, dtype=values.dtype)
            offsets[0] = values.dtype.type(0) - carry
            offsets[1:] = ex[heads]
            out[s:e] = ex - offsets[local]
            if len(heads):
                carry = seg[heads[-1]:].sum(dtype=values.dtype)
            else:
                carry = carry + seg.sum(dtype=values.dtype)
        return out

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        return seg_extreme_blocks(values, seg_flags, identity, is_max=is_max,
                                  block=self.chunk)

    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        out = np.empty_like(values)
        carry = values[0]  # the open segment's head value
        for s, e in self._spans(len(values)):
            seg, sfc = values[s:e], seg_flags[s:e]
            heads = np.flatnonzero(sfc)
            local = np.cumsum(sfc) - 1  # -1 on the continuing run
            table = np.concatenate(([carry], seg[heads]))
            out[s:e] = table[local + 1]
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
        parts: list[np.ndarray] = []
        carry = None  # running reduction of the open segment
        red = {"sum": "sum", "max": "max", "min": "min",
               "or": "any", "and": "all"}[op]
        for s, e in self._spans(len(values)):
            seg, sfc = values[s:e], seg_flags[s:e]
            heads = np.flatnonzero(sfc)
            bounds = np.concatenate(([0], heads, [len(seg)]))
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                if lo == hi:
                    continue
                r = self._np.reduce(seg[lo:hi], red)
                if i == 0 and carry is not None:
                    carry = self._np.reduce(np.array([carry, r]), red)
                    continue
                if carry is not None:
                    parts.append(np.asarray(carry))
                carry = r
            # a chunk that is one unbroken run leaves carry accumulating
        if carry is not None:
            parts.append(np.asarray(carry))
        per_segment = np.array(parts)
        return self._spread(per_segment.astype(values.dtype, copy=False),
                            seg_flags)

    def _segment_tails(self, values: np.ndarray,
                       seg_flags: np.ndarray) -> np.ndarray:
        """Last value of each segment, one entry per segment."""
        tails: list[np.ndarray] = []
        prev_last = None
        for s, e in self._spans(len(values)):
            seg, sfc = values[s:e], seg_flags[s:e]
            heads = np.flatnonzero(sfc)
            # an element just before a head ends the previous segment
            for h in heads:
                tails.append(seg[h - 1] if h > 0 else prev_last)
            prev_last = seg[-1]
        tails.append(prev_last)  # the final segment ends at the vector end
        # the first flag is always a head: drop its phantom predecessor
        return np.array(tails[1:], dtype=values.dtype)

    def _spread(self, per_segment: np.ndarray,
                seg_flags: np.ndarray) -> np.ndarray:
        """``out[i] = per_segment[segment_of(i)]``, chunk by chunk."""
        out = np.empty(len(seg_flags), dtype=per_segment.dtype)
        carry = 0
        for s, e in self._spans(len(seg_flags)):
            sfc = seg_flags[s:e]
            ids = np.cumsum(sfc) + (carry - 1)
            out[s:e] = per_segment[ids]
            carry = int(ids[-1]) + 1
        return out
