"""The differential-testing backend: one element at a time, no vectorization.

Every primitive is executed with an explicit Python loop — the most
literal possible rendering of "one virtual processor per element" short of
the logic-level simulators in :mod:`repro.hardware`.  It is deliberately
slow and deliberately simple: each method is a few lines whose correctness
is obvious by inspection, which is what makes it a useful oracle for the
vectorized backends in the differential suite (``tests/test_backends.py``).

Dtype fidelity: elementwise functions are applied to length-1 *slices*
(not Python scalars), so NumPy's own promotion, casting and wraparound
rules apply per element and results stay bit-identical to the NumPy
backend for integer and boolean vectors.  Scans and reductions accumulate
in the array's dtype for the same reason.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .base import Backend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Backend):
    """Pure-Python per-element execution; the differential-testing oracle."""

    name = "reference"

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Per-element execution touches one element at a time; working
        storage is a couple of machine words whatever the vector length
        (the output buffer itself is reported separately as result
        bytes)."""
        return min(out_bytes, 16)

    # -------------------------- elementwise --------------------------- #

    def elementwise(self, fn: Callable, *operands) -> np.ndarray:
        n = None
        for op in operands:
            if isinstance(op, np.ndarray) and op.ndim == 1:
                n = len(op)
                break
        if n is None or n == 0:
            return fn(*operands)
        pieces = [fn(*[op[i:i + 1] if isinstance(op, np.ndarray)
                       and op.ndim == 1 else op for op in operands])
                  for i in range(n)]
        return np.concatenate(pieces)

    def adjacent_ne(self, values: np.ndarray) -> np.ndarray:
        out = np.empty(len(values), dtype=bool)
        for i in range(len(values)):
            out[i] = True if i == 0 else bool(values[i] != values[i - 1])
        return out

    # ----------------------------- scans ------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        acc = values.dtype.type(0)
        with np.errstate(over="ignore"):  # integer sums wrap by design
            for i in range(len(values)):
                out[i] = acc
                acc = acc + values[i]
        return out

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        out = np.empty_like(values)
        acc = np.asarray(identity, dtype=values.dtype)[()]
        for i in range(len(values)):
            out[i] = acc
            # np.maximum, not Python max: NaN must propagate exactly as
            # np.maximum.accumulate does on the vectorized backend
            acc = np.maximum(acc, values[i])
        return out

    # ------------------------- communication -------------------------- #

    def permute(self, values: np.ndarray, index: np.ndarray, length: int,
                default) -> np.ndarray:
        out = np.full(length, default, dtype=values.dtype)
        for i in range(len(values)):
            out[index[i]] = values[i]
        return out

    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        out = np.empty(len(index), dtype=values.dtype)
        for i in range(len(index)):
            out[i] = values[index[i]]
        return out

    def combine_write(self, values: np.ndarray, index: np.ndarray,
                      length: int, op: str, default) -> np.ndarray:
        if op not in ("min", "max", "sum", "any"):
            raise ValueError(f"unknown combine op {op!r}")
        if op == "sum":
            # combining into an accumulator that starts at the additive
            # identity: untouched cells hold 0 regardless of `default`
            out = np.zeros(length, dtype=values.dtype)
            with np.errstate(over="ignore"):  # integer sums wrap by design
                for i in range(len(values)):
                    out[index[i]] = out[index[i]] + values[i]
            return out
        out = np.full(length, default, dtype=values.dtype)
        touched = np.zeros(length, dtype=bool)
        for i in range(len(values)):
            j = index[i]
            if not touched[j]:
                out[j] = values[i]
            elif op == "min":
                out[j] = np.minimum(out[j], values[i])
            elif op == "max":
                out[j] = np.maximum(out[j], values[i])
            else:  # "any": last writer wins
                out[j] = values[i]
            touched[j] = True
        return out

    def pack(self, values: np.ndarray, flags: np.ndarray,
             index: np.ndarray, count: int) -> np.ndarray:
        out = np.empty(count, dtype=values.dtype)
        for i in range(len(values)):
            if flags[i]:
                out[index[i]] = values[i]
        return out

    def shift(self, values: np.ndarray, k: int, fill) -> np.ndarray:
        n = len(values)
        out = np.full(n, fill, dtype=values.dtype)
        for i in range(n):
            if 0 <= i - k < n:
                out[i] = values[i - k]
        return out

    def reverse(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        n = len(values)
        for i in range(n):
            out[i] = values[n - 1 - i]
        return out

    # ------------------------ broadcast / reduce ----------------------- #

    def full(self, length: int, value, dtype) -> np.ndarray:
        # pre-wrap the fill into the target dtype: np.full casts unsafely
        # (a promoted sum wraps back into a narrow lane), while NumPy 2
        # element assignment raises OverflowError on out-of-range scalars
        fill = np.asarray(value).astype(dtype, copy=False)[()]
        out = np.empty(length, dtype=dtype)
        for i in range(length):
            out[i] = fill
        return out

    def reduce(self, values: np.ndarray, op: str):
        if op == "any":
            acc = False
            for i in range(len(values)):
                acc = acc or bool(values[i])
            return np.bool_(acc)
        if op == "all":
            acc = True
            for i in range(len(values)):
                acc = acc and bool(values[i])
            return np.bool_(acc)
        if op == "sum":
            # Match np.sum's accumulator: flags count as integers (bool
            # addition would OR them) and small ints promote to the
            # platform int rather than wrapping in the input width.
            kind = values.dtype.kind
            if kind == "b":
                acc = np.int64(0)
            elif kind == "i" and values.dtype.itemsize < 8:
                acc = np.int64(0)
            elif kind == "u" and values.dtype.itemsize < 8:
                acc = np.uint64(0)
            else:
                acc = values.dtype.type(0)
            with np.errstate(over="ignore"):
                for i in range(len(values)):
                    acc = acc + values[i]
            return acc
        acc = values[0]
        for i in range(1, len(values)):
            if op == "max":
                acc = np.maximum(acc, values[i])  # NaN-propagating, like np.max
            elif op == "min":
                acc = np.minimum(acc, values[i])
            else:
                raise ValueError(f"unknown reduce op {op!r}")
        return acc

    # ---------------------------- segmented ---------------------------- #

    def segment_ids(self, seg_flags: np.ndarray) -> np.ndarray:
        out = np.empty(len(seg_flags), dtype=np.int64)
        sid = -1
        for i in range(len(seg_flags)):
            if seg_flags[i]:
                sid += 1
            out[i] = sid
        return out

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        out = np.empty_like(values)
        acc = values.dtype.type(0)
        with np.errstate(over="ignore"):
            for i in range(len(values)):
                if seg_flags[i]:
                    acc = values.dtype.type(0)
                out[i] = acc
                acc = acc + values[i]
        return out

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        out = np.empty_like(values)
        ident = np.asarray(identity, dtype=values.dtype)[()]
        acc, fresh = ident, True
        for i in range(len(values)):
            if seg_flags[i]:
                acc, fresh = ident, True
            out[i] = acc if not fresh else ident
            # the np.maximum / np.fmin ordering convention every backend
            # shares: max absorbs NaN via np.maximum, min passes it over
            # via np.fmin — not the propagating np.minimum
            acc = values[i] if fresh else (
                np.maximum(acc, values[i]) if is_max
                else np.fmin(acc, values[i]))
            fresh = False
        return out

    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        head = values[0] if len(values) else None
        for i in range(len(values)):
            if seg_flags[i]:
                head = values[i]
            out[i] = head
        return out

    def seg_back_copy(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        tail = None
        for i in range(len(values) - 1, -1, -1):
            if tail is None or (i + 1 < len(values) and seg_flags[i + 1]):
                tail = values[i]
            out[i] = tail
        return out

    def seg_distribute(self, values: np.ndarray, seg_flags: np.ndarray,
                       op: str) -> np.ndarray:
        red = {"sum": "sum", "max": "max", "min": "min",
               "or": "any", "and": "all"}[op]
        out = np.empty_like(values)
        start = 0
        for i in range(1, len(values) + 1):
            if i == len(values) or seg_flags[i]:
                # wrap the (possibly promoted) reduction back into the
                # lane dtype, as the vectorized backends' casts do
                r = np.asarray(self.reduce(values[start:i], red)).astype(
                    values.dtype, copy=False)[()]
                for j in range(start, i):
                    out[j] = r
                start = i
        return out
