"""The serial-semantics oracle: what every operation *means*.

Each function here computes an exported operation's result with the most
direct serial loop that expresses its definition — an exclusive
``min-scan`` is a running minimum, full stop.  The oracle never uses the
Section 3.4 *constructions* (``min-scan`` as an inverted ``max-scan``,
``or-scan`` as a one-bit ``max-scan``, a segmented ``+-scan`` as an
unsegmented one minus copied head offsets): those constructions are
exactly what the execution backends run, so a construction bug — a
negation that overflows at ``iinfo.min``, a sign lost in an integer cast
— shows up as a divergence between backends and oracle even when all
three backends agree with each other.  This is the same oracle role
LightScan's serial reference plays for its SIMD scans.

Dtype contract (shared with the backends, checked by the fuzzer):

* arithmetic accumulates **in the vector's dtype** — narrow integer sums
  wrap modulo ``2**width`` (associative, hence backend-independent);
* reductions promote like ``np.sum`` (bool and narrow ints widen to the
  platform word) because :func:`repro.core.scans.plus_reduce` documents
  that behavior;
* comparisons use ``np.maximum`` / ``np.minimum`` semantics (NaN
  propagates), matching ``np.maximum.accumulate`` on the vectorized
  backend;
* truth tests are nonzero tests (NaN is truthy), matching Python.
"""
from __future__ import annotations

import numpy as np

from ..core.scans import max_identity, min_identity
from .corpus import Materialized

__all__ = ["ORACLES"]


def _exclusive_scan(values: np.ndarray, start, combine) -> np.ndarray:
    out = np.empty_like(values)
    acc = start
    with np.errstate(over="ignore"):
        for i in range(len(values)):
            out[i] = acc
            acc = combine(acc, values[i])
    return out


def _backward(fn):
    def back(mat: Materialized) -> np.ndarray:
        rev = Materialized(mat.values[::-1], None, None, None)
        return fn(rev)[::-1]
    return back


def _ident(kind: str, dtype: np.dtype):
    if kind == "max":
        return np.asarray(max_identity(dtype), dtype=dtype)[()]
    return np.asarray(min_identity(dtype), dtype=dtype)[()]


# --------------------------------------------------------------------- #
# Unsegmented scans
# --------------------------------------------------------------------- #

def plus_scan(mat: Materialized) -> np.ndarray:
    v = mat.values
    if v.dtype == np.bool_:
        v = v.astype(np.int64)
    return _exclusive_scan(v, v.dtype.type(0), lambda a, x: a + x)


def max_scan(mat: Materialized) -> np.ndarray:
    v = mat.values
    return _exclusive_scan(v, _ident("max", v.dtype), np.maximum)


def min_scan(mat: Materialized) -> np.ndarray:
    v = mat.values
    return _exclusive_scan(v, _ident("min", v.dtype), np.minimum)


def or_scan(mat: Materialized) -> np.ndarray:
    out = np.empty(len(mat.values), dtype=bool)
    acc = False
    for i in range(len(mat.values)):
        out[i] = acc
        acc = acc or bool(mat.values[i])
    return out


def and_scan(mat: Materialized) -> np.ndarray:
    out = np.empty(len(mat.values), dtype=bool)
    acc = True
    for i in range(len(mat.values)):
        out[i] = acc
        acc = acc and bool(mat.values[i])
    return out


back_plus_scan = _backward(plus_scan)
back_max_scan = _backward(max_scan)
back_min_scan = _backward(min_scan)
back_or_scan = _backward(or_scan)
back_and_scan = _backward(and_scan)


# --------------------------------------------------------------------- #
# Reductions (promotion mirrors np.sum / np.max, as the API documents)
# --------------------------------------------------------------------- #

def _sum_accumulator(dtype: np.dtype):
    if dtype == np.bool_:
        return np.int64(0)
    if dtype.kind == "i" and dtype.itemsize < 8:
        return np.int64(0)
    if dtype.kind == "u" and dtype.itemsize < 8:
        return np.uint64(0)
    return dtype.type(0)


def plus_reduce(mat: Materialized):
    if len(mat.values) == 0:
        return 0
    acc = _sum_accumulator(mat.values.dtype)
    with np.errstate(over="ignore"):
        for x in mat.values:
            acc = acc + x
    return acc.item()


def max_reduce(mat: Materialized):
    v = mat.values
    if len(v) == 0:
        return max_identity(v.dtype)
    acc = v[0]
    for x in v[1:]:
        acc = np.maximum(acc, x)
    return acc.item()


def min_reduce(mat: Materialized):
    v = mat.values
    if len(v) == 0:
        return min_identity(v.dtype)
    acc = v[0]
    for x in v[1:]:
        acc = np.minimum(acc, x)
    return acc.item()


def or_reduce(mat: Materialized) -> bool:
    return any(bool(x) for x in mat.values)


def and_reduce(mat: Materialized) -> bool:
    return all(bool(x) for x in mat.values)


# --------------------------------------------------------------------- #
# Distributes: every element receives the reduction, cast to the dtype
# --------------------------------------------------------------------- #

def _distribute(mat: Materialized, reducer):
    v = mat.values
    if len(v) == 0:
        return v.copy()
    # the reduction may be promoted (np.sum semantics); the broadcast casts
    # it back into the vector's dtype, wrapping like the backends do
    fill = np.asarray(reducer(mat)).astype(v.dtype)
    return np.full(len(v), fill, dtype=v.dtype)


def plus_distribute(mat): return _distribute(mat, plus_reduce)
def max_distribute(mat): return _distribute(mat, max_reduce)
def min_distribute(mat): return _distribute(mat, min_reduce)
def or_distribute(mat): return _distribute(mat, or_reduce)
def and_distribute(mat): return _distribute(mat, and_reduce)


# --------------------------------------------------------------------- #
# Segmented operations
# --------------------------------------------------------------------- #

def _segments(mat: Materialized):
    """Yield (start, end) of each segment, in order."""
    sf = mat.seg_flags
    n = len(sf)
    start = 0
    for i in range(1, n + 1):
        if i == n or sf[i]:
            yield start, i
            start = i


def segment_ids(mat: Materialized) -> np.ndarray:
    out = np.empty(len(mat.values), dtype=np.int64)
    sid = -1
    for i in range(len(mat.values)):
        if mat.seg_flags[i]:
            sid += 1
        out[i] = sid
    return out


def _seg_exclusive(mat: Materialized, values: np.ndarray, start_of,
                   combine) -> np.ndarray:
    out = np.empty_like(values)
    acc = None
    with np.errstate(over="ignore"):
        for i in range(len(values)):
            if mat.seg_flags[i]:
                acc = start_of(values.dtype)
            out[i] = acc
            acc = combine(acc, values[i])
    return out


def seg_plus_scan(mat: Materialized) -> np.ndarray:
    v = mat.values
    if v.dtype == np.bool_:
        v = v.astype(np.int64)
    return _seg_exclusive(mat, v, lambda dt: dt.type(0), lambda a, x: a + x)


def seg_max_scan(mat: Materialized) -> np.ndarray:
    return _seg_exclusive(mat, mat.values, lambda dt: _ident("max", dt),
                          np.maximum)


def seg_min_scan(mat: Materialized) -> np.ndarray:
    return _seg_exclusive(mat, mat.values, lambda dt: _ident("min", dt),
                          np.minimum)


def seg_or_scan(mat: Materialized) -> np.ndarray:
    out = np.empty(len(mat.values), dtype=bool)
    acc = False
    for i in range(len(mat.values)):
        if mat.seg_flags[i]:
            acc = False
        out[i] = acc
        acc = acc or bool(mat.values[i])
    return out


def seg_and_scan(mat: Materialized) -> np.ndarray:
    out = np.empty(len(mat.values), dtype=bool)
    acc = True
    for i in range(len(mat.values)):
        if mat.seg_flags[i]:
            acc = True
        out[i] = acc
        acc = acc and bool(mat.values[i])
    return out


def _seg_backward(forward):
    """Run ``forward`` on each segment reversed, element by element."""
    def back(mat: Materialized) -> np.ndarray:
        out = np.empty_like(forward(mat))
        for s, e in _segments(mat):
            seg = mat.values[s:e][::-1]
            sf = np.zeros(len(seg), dtype=bool)
            if len(sf):
                sf[0] = True
            sub = forward(Materialized(seg, sf, None, None))
            out[s:e] = sub[::-1]
        return out
    return back


seg_back_plus_scan = _seg_backward(seg_plus_scan)
seg_back_max_scan = _seg_backward(seg_max_scan)
seg_back_min_scan = _seg_backward(seg_min_scan)


def seg_copy(mat: Materialized) -> np.ndarray:
    out = np.empty_like(mat.values)
    for s, e in _segments(mat):
        out[s:e] = mat.values[s]
    return out


def seg_back_copy(mat: Materialized) -> np.ndarray:
    out = np.empty_like(mat.values)
    for s, e in _segments(mat):
        out[s:e] = mat.values[e - 1]
    return out


def seg_enumerate(mat: Materialized) -> np.ndarray:
    """Within-segment exclusive count of set flags (values are the flags)."""
    out = np.empty(len(mat.values), dtype=np.int64)
    acc = 0
    for i in range(len(mat.values)):
        if mat.seg_flags[i]:
            acc = 0
        out[i] = acc
        acc += 1 if bool(mat.values[i]) else 0
    return out


def seg_index(mat: Materialized) -> np.ndarray:
    out = np.empty(len(mat.values), dtype=np.int64)
    for s, e in _segments(mat):
        out[s:e] = np.arange(e - s)
    return out


def _seg_distribute(mat: Materialized, reducer) -> np.ndarray:
    v = mat.values
    out = np.empty_like(v)
    for s, e in _segments(mat):
        out[s:e] = np.asarray(reducer(Materialized(v[s:e], None, None, None))
                              ).astype(v.dtype)
    return out


def seg_plus_distribute(mat): return _seg_distribute(mat, plus_reduce)
def seg_max_distribute(mat): return _seg_distribute(mat, max_reduce)
def seg_min_distribute(mat): return _seg_distribute(mat, min_reduce)
def seg_or_distribute(mat): return _seg_distribute(mat, or_reduce)
def seg_and_distribute(mat): return _seg_distribute(mat, and_reduce)


def seg_split(mat: Materialized) -> np.ndarray:
    out = np.empty_like(mat.values)
    for s, e in _segments(mat):
        low = [mat.values[i] for i in range(s, e) if not mat.flags[i]]
        high = [mat.values[i] for i in range(s, e) if mat.flags[i]]
        out[s:e] = np.array(low + high, dtype=mat.values.dtype)
    return out


def seg_split3(mat: Materialized) -> np.ndarray:
    out = np.empty_like(mat.values)
    for s, e in _segments(mat):
        less = [mat.values[i] for i in range(s, e) if mat.flags[i]]
        eq = [mat.values[i] for i in range(s, e)
              if mat.flags2[i] and not mat.flags[i]]
        rest = [mat.values[i] for i in range(s, e)
                if not mat.flags[i] and not mat.flags2[i]]
        out[s:e] = np.array(less + eq + rest, dtype=mat.values.dtype)
    return out


def seg_flag_from_neighbor_change(mat: Materialized) -> np.ndarray:
    v = mat.values
    out = np.empty(len(v), dtype=bool)
    for i in range(len(v)):
        out[i] = (i == 0 or bool(mat.seg_flags[i])
                  or bool(v[i] != v[i - 1]))
    return out


def neighbor_change_flags(mat: Materialized) -> np.ndarray:
    """``seg_flag_from_neighbor_change`` with no old segment flags."""
    v = mat.values
    out = np.empty(len(v), dtype=bool)
    for i in range(len(v)):
        out[i] = i == 0 or bool(v[i] != v[i - 1])
    return out


# --------------------------------------------------------------------- #
# Batched heterogeneous segmented scans (the serving mega-op shape).
# The case's auxiliary flag vector marks *request* boundaries; each
# request carries its own segment layout (its slice of seg_flags, head
# forced on).  The oracle answers each request independently with the
# serial segmented oracle and concatenates — the meaning a client sees —
# while the opset runs the whole thing as the one fused mega-op the
# server executes (repro.serve.batching.assemble).
# --------------------------------------------------------------------- #

def _request_parts(mat: Materialized) -> list:
    n = len(mat.values)
    bounds = [0] + [i for i in range(1, n) if mat.flags[i]] + [n]
    parts = []
    for s, e in zip(bounds, bounds[1:]):
        sub = np.asarray(mat.seg_flags[s:e], dtype=bool).copy()
        if len(sub):
            sub[0] = True
        parts.append((mat.values[s:e], sub))
    return parts


def _batched_seg(seg_oracle):
    def batched(mat: Materialized) -> np.ndarray:
        outs = [seg_oracle(Materialized(vals, flags, None, None))
                for vals, flags in _request_parts(mat)]
        return np.concatenate(outs)
    return batched


batched_seg_plus_scan = _batched_seg(seg_plus_scan)
batched_seg_max_scan = _batched_seg(seg_max_scan)


# --------------------------------------------------------------------- #
# Fused elementwise chains (the eager-vs-lazy differential surface).
# Each oracle computes the chain with whole-array NumPy calls — the same
# ufuncs in the same order the Vector operators issue, so the expected
# values are exact — then defers to the serial scan oracle for the
# terminal.
# --------------------------------------------------------------------- #

def _chain(mat: Materialized, w: np.ndarray) -> Materialized:
    return Materialized(w, mat.seg_flags, mat.flags, mat.flags2)


def fused_square_plus_scan(mat: Materialized) -> np.ndarray:
    v = mat.values
    with np.errstate(all="ignore"):
        w = np.add(np.multiply(v, v), v)
    return plus_scan(_chain(mat, w))


def fused_where_max_scan(mat: Materialized) -> np.ndarray:
    f = np.asarray(mat.flags, dtype=bool)
    w = np.where(f, mat.values, 0)
    return max_scan(_chain(mat, w))


def fused_compare_chain(mat: Materialized) -> np.ndarray:
    v = mat.values
    with np.errstate(all="ignore"):
        return np.logical_and(np.greater_equal(np.multiply(v, 2), v),
                              np.not_equal(v, 0))


def fused_reflected_plus_scan(mat: Materialized) -> np.ndarray:
    v = mat.values
    with np.errstate(all="ignore"):
        w = np.add(np.multiply(np.subtract(10, v), 2), np.add(5, v))
    return plus_scan(_chain(mat, w))


def fused_cast_plus_scan(mat: Materialized) -> np.ndarray:
    return plus_scan(_chain(mat, mat.values.astype(np.float64)))


# ------------------------------ codecs -------------------------------- #

def delta_encode(mat: Materialized) -> np.ndarray:
    v = mat.values
    out = v.copy()
    with np.errstate(all="ignore"):
        out[1:] = v[1:] - v[:-1]
    return out


def delta_round_trip(mat: Materialized) -> np.ndarray:
    return mat.values.copy()


def _serial_rle(values: np.ndarray) -> tuple[list, list]:
    vals: list = []
    lens: list = []
    with np.errstate(all="ignore"):
        for x in values:
            # NaN != NaN starts a new run, matching adjacent_ne semantics
            if lens and bool(x == vals[-1]):
                lens[-1] += 1
            else:
                vals.append(x)
                lens.append(1)
    return vals, lens


def rle_encode_values(mat: Materialized) -> np.ndarray:
    vals, _ = _serial_rle(mat.values)
    return np.array(vals, dtype=mat.values.dtype)


def rle_encode_lengths(mat: Materialized) -> np.ndarray:
    _, lens = _serial_rle(mat.values)
    return np.array(lens, dtype=np.int64)


def rle_round_trip(mat: Materialized) -> np.ndarray:
    return mat.values.copy()


#: oracle function per operation name (keys match ``opset.OPS``)
ORACLES = {
    name: fn for name, fn in list(globals().items())
    if callable(fn) and not name.startswith("_")
    and name not in ("Materialized", "max_identity", "min_identity")
}
