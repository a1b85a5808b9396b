"""Closest pair of points in the plane, O(lg n) program steps (Table 1).

The classic divide-and-conquer, executed breadth-first over segments so
that every level of the recursion is a constant number of scan-model
primitives on the whole point set:

* **downward** (lg n levels): split every segment at its x-median, exactly
  as the k-d tree build does, maintaining a parallel y-ordering; each
  level records the segmentation and the per-element dividing abscissa.
* **at the bottom**: segments hold <= 3 points; the two y-neighbor
  comparisons cover all pairs.
* **upward** (lg n levels): each merged segment takes delta = the min of
  its halves, extracts the strip of points within delta of the divider
  (one pack, and the points are already y-sorted), and lets every strip
  point probe its next 7 strip neighbors — exclusive shifted gathers —
  before one segmented min-distribute closes the level.

Squared distances keep the arithmetic exact on integer inputs.  An EREW
P-RAM pays O(lg n) per level for the same scans: Table 1's O(lg² n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ceil_log2
from ..core import ops, segmented
from ..core.vector import Vector
from ..machine.model import Machine
from .kd_tree import _flags_after_split, _sort_order

__all__ = ["closest_pair", "ClosestPairResult"]

_INF = np.iinfo(np.int64).max


@dataclass
class ClosestPairResult:
    """``distance_sq`` — squared distance of the closest pair;
    ``pair`` — the two input indices achieving it."""

    distance_sq: int
    pair: tuple[int, int]


def closest_pair(machine: Machine, points, *,
                 max_iterations: int | None = None) -> ClosestPairResult:
    """Closest pair among integer points (``(n, 2)``, n >= 2).

    ``max_iterations`` bounds the downward median-split sweep; every level
    halves the largest segment, so the default ``⌈lg n⌉ + 2`` is reached
    only if the split stops making progress (e.g. corrupted segment
    descriptors under fault injection), in which case a diagnostic
    :class:`RuntimeError` is raised instead of looping forever.
    """
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    if max_iterations is None:
        max_iterations = ceil_log2(n) + 2
    m = machine

    x_ids = Vector(m, _sort_order(m, pts[:, 0]))
    y_ids = Vector(m, _sort_order(m, pts[:, 1]))
    sf0 = np.zeros(n, dtype=bool)
    sf0[0] = True
    flags_x = Vector(m, sf0)
    flags_y = Vector(m, sf0.copy())

    # ---- downward sweep: record each level's y-segmentation + divider ---- #
    level_sfy: list[np.ndarray] = []
    level_mid: list[np.ndarray] = []  # per y-position dividing x
    iteration = 0
    while True:
        sizes = np.diff(np.append(np.flatnonzero(flags_x.data), n))
        if (sizes <= 3).all():
            break
        if iteration >= max_iterations:
            big = sizes[sizes > 3]
            raise RuntimeError(
                f"closest_pair median split made no progress after "
                f"{max_iterations} levels: {len(big)} segment(s) larger "
                f"than 3 points remain (largest has {int(sizes.max())} of "
                f"{n} points)")
        iteration += 1
        # the divider of each segment is the x of the first upper-half point
        pos = segmented.seg_index(flags_x)
        length = segmented.seg_plus_distribute(
            Vector(m, np.ones(n, dtype=np.int64)), flags_x)
        half = (length + 1) // 2
        side = pos >= half
        m.charge_elementwise(n)
        xs_in_order = Vector(m, pts[x_ids.data, 0])
        first_upper = side & (pos == half)
        mid = segmented.seg_max_distribute(
            first_upper.where(xs_in_order, np.iinfo(np.int64).min), flags_x)

        level_sfy.append(flags_y.data.copy())
        mid_by_id = mid.permute(x_ids)
        mid_y_order = mid_by_id.gather(y_ids)
        level_mid.append(mid_y_order.data.copy())

        side_by_id = side.astype(np.int64).permute(x_ids)
        side_y = side_by_id.gather(y_ids) > 0

        x_ids = segmented.seg_split(x_ids, side, flags_x)
        flags_x = _flags_after_split(side, flags_x)
        y_ids = segmented.seg_split(y_ids, side_y, flags_y)
        flags_y = _flags_after_split(side_y, flags_y)

    # ---- bottom: pairwise distances within <= 3-point segments ----------- #
    ydata = y_ids.data
    ypts = pts[ydata]
    seg_id_y = np.cumsum(flags_y.data) - 1
    delta = Vector(m, np.full(n, _INF, dtype=np.int64))
    best_pair = np.full((n, 2), -1, dtype=np.int64)
    delta_arr, best_pair = _probe_neighbors(
        m, ypts, ydata, seg_id_y, delta.data.copy(), best_pair, probes=2)

    # ---- upward sweep ----------------------------------------------------- #
    for sfy, mid in zip(reversed(level_sfy), reversed(level_mid)):
        parent_sf = Vector(m, sfy)
        parent_seg = np.cumsum(sfy) - 1
        # the strip half-width: the parent segment's best delta so far (one
        # segmented min-distribute; per-element deltas stay intact for the
        # pair bookkeeping below)
        seg_delta = segmented.seg_min_distribute(
            Vector(m, delta_arr), parent_sf).data
        # strip extraction (y order is preserved by construction)
        m.charge_elementwise(n)
        finite = seg_delta < _INF
        within = np.zeros(n, dtype=bool)
        dx = np.abs(ypts[:, 0] - mid)
        within[finite] = dx[finite] * dx[finite] < seg_delta[finite]
        within |= ~finite  # with no candidate distance yet, probe everything
        strip = Vector(m, within)
        packed_pos = ops.pack(Vector(m, np.arange(n, dtype=np.int64)), strip)
        sp = packed_pos.data
        if len(sp):
            s_pts = ypts[sp]
            s_ids = ydata[sp]
            s_seg = parent_seg[sp]
            s_delta = np.full(len(sp), _INF, dtype=np.int64)
            s_pairs = np.full((len(sp), 2), -1, dtype=np.int64)
            s_delta, s_pairs = _probe_neighbors(
                m, s_pts, s_ids, s_seg, s_delta, s_pairs, probes=7)
            # scatter the strip minima back (one permute)
            m.charge_permute(n)
            scat = np.full(n, _INF, dtype=np.int64)
            scat[sp] = s_delta
            pair_scat = np.full((n, 2), -1, dtype=np.int64)
            pair_scat[sp] = s_pairs
            improved = scat < delta_arr
            best_pair = np.where(improved[:, None], pair_scat, best_pair)
            delta_arr = np.minimum(delta_arr, scat)
        # close the level: every element of a parent segment takes the
        # segment's winning (delta, pair) — one segmented min-distribute
        # with the pair identity riding on the min key
        segmented.seg_min_distribute(Vector(m, delta_arr), parent_sf)
        order = np.lexsort((np.arange(n), delta_arr, parent_seg))
        seg_first = order[np.searchsorted(
            parent_seg[order], np.arange(parent_seg.max() + 1))]
        best_pair = best_pair[seg_first][parent_seg]
        delta_arr = delta_arr[seg_first][parent_seg]

    best = int(delta_arr.min())
    winner = best_pair[int(np.argmin(delta_arr))]
    i, j = int(winner[0]), int(winner[1])
    return ClosestPairResult(distance_sq=best, pair=(min(i, j), max(i, j)))


def _probe_neighbors(machine: Machine, p: np.ndarray, ids: np.ndarray,
                     seg: np.ndarray, delta: np.ndarray, pairs: np.ndarray,
                     probes: int) -> tuple[np.ndarray, np.ndarray]:
    """Each element probes its next ``probes`` same-segment neighbors in
    y-order; returns the per-element minimum squared distance and pair.
    Each probe is one shifted exclusive gather plus elementwise steps."""
    k = len(p)
    for j in range(1, probes + 1):
        if j >= k:
            break
        machine.charge_block("gather", k)
        machine.charge_elementwise(k)
        tgt = np.arange(k) + j
        valid = (tgt < k)
        tgt = np.minimum(tgt, k - 1)
        same = valid & (seg[tgt] == seg)
        d = (p[:, 0] - p[tgt, 0]) ** 2 + (p[:, 1] - p[tgt, 1]) ** 2
        cand = np.where(same, d, _INF)
        better = cand < delta
        pairs[better] = np.column_stack((ids[better], ids[tgt[better]]))
        delta = np.minimum(delta, cand)
    return delta, pairs
