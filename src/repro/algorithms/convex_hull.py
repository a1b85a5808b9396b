"""Planar convex hull by segmented quickhull (Table 1, O(lg n) expected).

The divide-and-conquer recursion runs *breadth-first over segments*: every
live segment holds the candidate points strictly outside one directed hull
chord ``a -> b``, with the chord endpoints distributed across the segment.
One round, for all segments at once and in O(1) program steps each:

1. a segmented max-distribute finds each segment's farthest point ``f``
   (a hull vertex — reported immediately);
2. each candidate classifies itself: outside ``a -> f``, outside
   ``f -> b``, or inside the triangle (discarded);
3. a segmented three-way split, one pack to drop the discards, and new
   segment flags where the class changes.

Random point sets discard a constant fraction per round, giving the
expected O(lg n) rounds (adversarial inputs degrade to O(n), as quickhull
does).  Integer coordinates keep every orientation test exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ops, scans, segmented
from ..core.vector import Vector
from ..machine.model import Machine

__all__ = ["convex_hull", "HullResult"]


@dataclass
class HullResult:
    """``hull_indices`` — indices (into the input) of hull vertices in
    counter-clockwise order; ``rounds`` — quickhull rounds."""

    hull_indices: np.ndarray
    rounds: int


def _cross(ax, ay, bx, by, px, py):
    """Orientation of p relative to the directed line a -> b (> 0: left)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def convex_hull(machine: Machine, points, *, max_rounds: int | None = None) -> HullResult:
    """Convex hull of integer points (``(n, 2)`` array-like)."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    n = len(pts)
    if n == 0:
        return HullResult(hull_indices=np.empty(0, dtype=np.int64), rounds=0)
    m = machine
    x = Vector(m, pts[:, 0])
    y = Vector(m, pts[:, 1])
    idx = m.arange(n)

    # extreme points in lexicographic (x, y) order: two distributes
    m.charge_elementwise(n)
    lex = pts[:, 0] * (4 * (np.abs(pts[:, 1]).max() + 1)) + pts[:, 1]
    lo = int(np.argmin(lex))
    hi = int(np.argmax(lex))
    scans.min_distribute(Vector(m, lex))
    scans.max_distribute(Vector(m, lex))
    if lo == hi:  # all points identical
        return HullResult(hull_indices=np.array([lo], dtype=np.int64), rounds=0)

    ax0, ay0 = pts[lo]
    bx0, by0 = pts[hi]
    m.charge_elementwise(n)
    side = _cross(ax0, ay0, bx0, by0, pts[:, 0], pts[:, 1])
    upper = side > 0
    lower = side < 0

    # working vectors: candidates of the upper chord then the lower chord
    cand = np.flatnonzero(upper | lower)
    order = np.concatenate((cand[upper[cand]], cand[lower[cand]]))
    m.charge_permute(n)
    sf = np.zeros(len(order), dtype=bool)
    nu = int(upper.sum())
    if len(order):
        sf[0] = True
        if 0 < nu < len(order):
            sf[nu] = True
    seg_a = np.where(np.arange(len(order)) < nu, lo, hi)
    seg_b = np.where(np.arange(len(order)) < nu, hi, lo)

    cx = Vector(m, pts[order, 0])
    cy = Vector(m, pts[order, 1])
    cid = Vector(m, order.astype(np.int64))
    vax = Vector(m, pts[seg_a, 0]) if len(order) else Vector(m, np.empty(0, dtype=np.int64))
    vay = Vector(m, pts[seg_a, 1]) if len(order) else vax
    vbx = Vector(m, pts[seg_b, 0]) if len(order) else vax
    vby = Vector(m, pts[seg_b, 1]) if len(order) else vax
    flags = Vector(m, sf)

    hull: list[int] = [lo, hi]
    if max_rounds is None:
        max_rounds = n + 8
    rounds = 0
    while len(cx) > 0:
        if rounds >= max_rounds:
            raise RuntimeError(f"quickhull exceeded {max_rounds} rounds")
        rounds += 1
        k = len(cx)
        # farthest point from each segment's chord, uniquely keyed
        m.charge_elementwise(k)
        dist = _cross(vax.data, vay.data, vbx.data, vby.data, cx.data, cy.data)
        key = Vector(m, dist * n + (n - 1 - cid.data))
        best = segmented.seg_max_distribute(key, flags)
        holder = key == best
        hull.extend(ops.pack(cid, holder).data.tolist())

        # distribute the farthest point's coordinates over its segment
        fx = segmented.seg_max_distribute(
            holder.where(cx, np.iinfo(np.int64).min), flags)
        fy = segmented.seg_max_distribute(
            holder.where(cy, np.iinfo(np.int64).min), flags)

        # classify: strictly outside a->f, strictly outside f->b, or gone
        m.charge_elementwise(k)
        m.charge_elementwise(k)
        s1 = _cross(vax.data, vay.data, fx.data, fy.data, cx.data, cy.data) > 0
        s2 = _cross(fx.data, fy.data, vbx.data, vby.data, cx.data, cy.data) > 0
        keep1 = Vector(m, s1 & ~holder.data)
        keep2 = Vector(m, s2 & ~holder.data & ~s1)
        label = keep1.where(0, keep2.where(1, 2)).astype(np.int64)

        # new chord endpoints, chosen per element before the reshuffle
        nax = keep1.where(vax, fx)
        nay = keep1.where(vay, fy)
        nbx = keep1.where(fx, vbx)
        nby = keep1.where(fy, vby)

        perm = _split3_index(label, flags)
        survivors = (keep1 | keep2).permute(perm)
        moved = [v.permute(perm) for v in (cx, cy, cid, nax, nay, nbx, nby, label)]
        cx, cy, cid, vax, vay, vbx, vby, labelv = \
            [ops.pack(v, survivors) for v in moved]

        if len(cx):
            old_seg = segmented.segment_ids(flags).permute(perm)
            seg_packed = ops.pack(old_seg, survivors)
            # a new segment starts where the (segment, class) pair changes;
            # the pair is packed into one key (the class fits in two bits)
            # as part of the compare's elementwise step
            pair = Vector(m, seg_packed.data * 4 + labelv.data)
            flags = segmented.seg_flag_from_neighbor_change(pair)
        else:
            flags = Vector(m, np.empty(0, dtype=bool))

    ordered = _ccw_order(pts, np.array(sorted(set(hull)), dtype=np.int64))
    return HullResult(hull_indices=ordered, rounds=rounds)


def _split3_index(label: Vector, sf: Vector) -> Vector:
    """Permutation of the segmented three-way split by label 0/1/2."""
    m = label.machine
    l0 = label == 0
    l1 = label == 1
    l2 = label == 2
    n0 = segmented.seg_plus_distribute(l0.astype(np.int64), sf)
    n1 = segmented.seg_plus_distribute(l1.astype(np.int64), sf)
    i0 = segmented.seg_enumerate(l0, sf)
    i1 = segmented.seg_enumerate(l1, sf) + n0
    i2 = segmented.seg_enumerate(l2, sf) + n0 + n1
    local = l0.where(i0, l1.where(i1, i2))
    head = segmented.seg_copy(m.arange(len(label)), sf)
    return local + head


def _ccw_order(pts: np.ndarray, hull_idx: np.ndarray) -> np.ndarray:
    """Order hull vertices counter-clockwise (host-side presentation)."""
    hp = pts[hull_idx].astype(np.float64)
    cx, cy = hp.mean(axis=0)
    ang = np.arctan2(hp[:, 1] - cy, hp[:, 0] - cx)
    return hull_idx[np.argsort(ang)]
