"""The default backend: one vectorized NumPy expression per primitive.

This is the execution substrate the repository has always used, factored
out of :mod:`repro.core` — step counts are bit-identical to the
pre-backend code, since backends charge nothing.  The four carry-bearing
scans are the one-chunk case of the carry monoids
(:mod:`repro.backends.carry`) that the chunked engines sweep, so one
kernel per scan serves every engine.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .base import Backend
from .carry import monoid, seg_extreme_scan

__all__ = ["NumPyBackend"]


def _seg_ids(sf: np.ndarray) -> np.ndarray:
    """0-based segment number of each element: the inclusive ``+-scan``
    of the flags, less one, built in one int64 buffer in place (the -1
    rides on the first element into the running sum)."""
    ids = sf.astype(np.int64)
    if len(ids):
        ids[0] -= 1
        np.add.accumulate(ids, out=ids)
    return ids


#: ``reduce`` as the ufunc reductions that ``np.sum`` and friends wrap,
#: called directly (``any``/``all`` reduce in bool, as those do)
_REDUCERS = {"sum": partial(np.add.reduce, axis=None),
             "max": partial(np.maximum.reduce, axis=None),
             "min": partial(np.minimum.reduce, axis=None),
             "any": partial(np.logical_or.reduce, axis=None, dtype=bool),
             "all": partial(np.logical_and.reduce, axis=None, dtype=bool)}

_SEG_REDUCERS = {"sum": np.add, "max": np.maximum, "min": np.minimum,
                 "or": np.logical_or, "and": np.logical_and}


class NumPyBackend(Backend):
    """Whole-vector execution; every primitive is one NumPy expression."""

    name = "numpy"

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Whole-vector temporaries: every NumPy expression materializes
        intermediates the size of the result (the base estimate).  The
        segmented extreme scan reports its doubling fallback (floats,
        64-bit extremes): one lane-sized copy plus two ``int16`` distance
        rows and a ``bool`` mask, measured at 1.65x the result on 8-byte
        lanes.  Its keyed branch builds Figure 16's keys in an int64
        result itself (measured under 1%), and in one int64 key per
        element on narrower integer lanes (2x an int32 result)."""
        if op == "seg_extreme_scan":
            return 13 * out_bytes // 8
        return super().temp_bytes(op, out_bytes)

    # -------------------------- elementwise --------------------------- #

    def elementwise(self, fn: Callable, *operands) -> np.ndarray:
        return fn(*operands)

    def adjacent_ne(self, values: np.ndarray) -> np.ndarray:
        changed = np.empty(len(values), dtype=bool)
        if len(values):
            changed[0] = True
            changed[1:] = values[1:] != values[:-1]
        return changed

    # ----------------------------- scans ------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        return monoid("plus_scan", values.dtype).local(values)[0]

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        return monoid("max_scan", values.dtype, identity).local(values)[0]

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
        out = np.full(length, default, dtype=values.dtype)
        if op == "min":
            # initialize to +inf-like, reduce, restore default where untouched
            touched = np.zeros(length, dtype=bool)
            touched[index] = True
            hi = (np.iinfo(values.dtype).max
                  if np.issubdtype(values.dtype, np.integer) else np.inf)
            tmp = np.full(length, hi, dtype=values.dtype)
            np.minimum.at(tmp, index, values)
            out = np.where(touched, tmp, np.asarray(default, dtype=values.dtype))
        elif op == "max":
            touched = np.zeros(length, dtype=bool)
            touched[index] = True
            lo = (np.iinfo(values.dtype).min
                  if np.issubdtype(values.dtype, np.integer) else -np.inf)
            tmp = np.full(length, lo, dtype=values.dtype)
            np.maximum.at(tmp, index, values)
            out = np.where(touched, tmp, np.asarray(default, dtype=values.dtype))
        elif op == "sum":
            tmp = np.zeros(length, dtype=values.dtype)
            np.add.at(tmp, index, values)
            out = tmp
        elif op == "any":
            out[index] = values  # last writer wins: an arbitrary-winner write
        else:
            raise ValueError(f"unknown combine op {op!r}")
        return out

    def pack(self, values: np.ndarray, flags: np.ndarray,
             index: np.ndarray, count: int) -> np.ndarray:
        out = np.empty(count, dtype=values.dtype)
        out[index[flags]] = values[flags]
        return out

    def shift(self, values: np.ndarray, k: int, fill) -> np.ndarray:
        n = len(values)
        out = np.full(n, fill, dtype=values.dtype)
        if k >= 0:
            if k < n:
                out[k:] = values[: n - k]
        else:
            if -k < n:
                out[: n + k] = values[-k:]
        return out

    def reverse(self, values: np.ndarray) -> np.ndarray:
        return values[::-1]

    # ------------------------ broadcast / reduce ----------------------- #

    def full(self, length: int, value, dtype) -> np.ndarray:
        return np.full(length, value, dtype=dtype)

    def reduce(self, values: np.ndarray, op: str):
        return _REDUCERS[op](values)

    # ---------------------------- segmented ---------------------------- #

    def segment_ids(self, seg_flags: np.ndarray) -> np.ndarray:
        return _seg_ids(seg_flags)

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        return monoid("seg_plus", values.dtype).local(values, seg_flags)[0]

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        return seg_extreme_scan(values, seg_flags, identity, is_max=is_max)

    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        s = _seg_ids(seg_flags)
        return values[seg_flags.nonzero()[0]][s]

    def seg_back_copy(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        s = _seg_ids(seg_flags)
        heads = seg_flags.nonzero()[0]
        tails = np.append(heads[1:], len(values)) - 1
        return values[tails][s]

    def seg_distribute(self, values: np.ndarray, seg_flags: np.ndarray,
                       op: str) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        heads = seg_flags.nonzero()[0]
        s = _seg_ids(seg_flags)
        per_segment = _SEG_REDUCERS[op].reduceat(values, heads)
        return per_segment[s].astype(values.dtype, copy=False)
