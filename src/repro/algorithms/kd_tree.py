"""k-d tree construction in O(lg n) program steps (Table 1).

The trick (from Blelloch & Little's scan-model geometry) is to sort the
points *once per coordinate* and then maintain **all d orderings** through
every median split: splitting a node by its axis-median is trivial in that
axis's ordering (the first half of the segment), and every other ordering
follows by communicating each point's side through its point id (two
exclusive permute/gather steps per ordering) and applying the same stable
segmented split.  Every level therefore costs O(d) = O(1) program steps
for fixed dimension, and the ``lg n`` levels plus the ``d`` initial radix
sorts give O(lg n) total — where an EREW P-RAM pays O(lg n) *per level*
for the splits' scans, Table 1's O(lg² n).

Any dimension ``d >= 1`` is supported; the paper's planar case is d = 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import ceil_log2
from ..core import segmented
from ..core.vector import Vector
from ..machine.model import Machine
from .radix_sort import split_radix_sort_with_rank

__all__ = ["build_kd_tree", "KDTree", "KDLevel"]


@dataclass
class KDLevel:
    """One level of splits: the segment head positions (into the level's
    split-axis ordering) before splitting, and the axis used."""

    axis: int
    heads: np.ndarray
    sizes: np.ndarray


@dataclass
class KDTree:
    """The built tree: ``order`` is the input-point permutation in final
    kd order (leaves left to right); ``levels`` records each level's
    segmentation.  ``points`` keeps the inputs for validation."""

    order: np.ndarray
    levels: list[KDLevel] = field(default_factory=list)
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def validate(self) -> None:
        """Recursively check the kd property: at every node the left half's
        split-axis coordinates are <= the right half's (host-side)."""
        dims = self.points.shape[1] if len(self.points) else 2

        def rec(lo: int, hi: int, depth: int) -> None:
            size = hi - lo
            if size <= 1:
                return
            axis = depth % dims
            half = (size + 1) // 2
            seg = self.points[self.order[lo:hi], axis]
            left, right = seg[:half], seg[half:]
            if len(left) and len(right) and left.max() > right.min():
                raise AssertionError(
                    f"kd violation at [{lo}, {hi}) axis {axis}: "
                    f"{left.max()} > {right.min()}"
                )
            rec(lo, lo + half, depth + 1)
            rec(lo + half, hi, depth + 1)

        rec(0, len(self.order), 0)


def _sort_order(machine: Machine, keys: np.ndarray) -> np.ndarray:
    """Point ids sorted by integer key (split radix sort on key*n + id so
    duplicates order deterministically)."""
    n = len(keys)
    shift = keys - keys.min()
    combined = Vector(machine, shift.astype(np.int64) * n + np.arange(n))
    _, rank = split_radix_sort_with_rank(combined)
    return rank.data.copy()  # original slot == point id, now in sorted order


def build_kd_tree(machine: Machine, points) -> KDTree:
    """Build a k-d tree over integer points (``(n, d)`` array-like,
    ``d >= 1``; the paper's planar case is ``d = 2``)."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(f"points must have shape (n, d >= 1), got {pts.shape}")
    n, dims = pts.shape
    if n == 0:
        return KDTree(order=np.empty(0, dtype=np.int64), points=pts)
    m = machine

    # one global sort per coordinate (point ids in each axis ordering)
    orders = {ax: Vector(m, _sort_order(m, pts[:, ax])) for ax in range(dims)}
    sf0 = np.zeros(n, dtype=bool)
    sf0[0] = True
    flags = {ax: Vector(m, sf0.copy()) for ax in range(dims)}

    tree = KDTree(order=np.empty(0, dtype=np.int64), points=pts)
    levels = ceil_log2(n) if n > 1 else 0
    for depth in range(levels):
        axis = depth % dims
        sf = flags[axis]
        heads = np.flatnonzero(sf.data)
        sizes = np.diff(np.append(heads, n))
        tree.levels.append(KDLevel(axis=axis, heads=heads, sizes=sizes))
        if (sizes <= 1).all():
            break

        # side of each position in the split ordering: the lower half stays
        pos = segmented.seg_index(sf)
        length = segmented.seg_plus_distribute(
            Vector(m, np.ones(n, dtype=np.int64)), sf)
        side = pos >= (length + 1) // 2  # True: upper half

        # the side, indexed by point id, drives every other ordering
        side_by_id = side.astype(np.int64).permute(orders[axis])
        orders[axis] = segmented.seg_split(orders[axis], side, sf)
        flags[axis] = _flags_after_split(side, sf)
        for other in range(dims):
            if other == axis:
                continue
            side_other = side_by_id.gather(orders[other]) > 0
            orders[other] = segmented.seg_split(orders[other], side_other,
                                                flags[other])
            flags[other] = _flags_after_split(side_other, flags[other])

    tree.order = orders[0].data.copy()
    return tree


def _flags_after_split(side: Vector, sf: Vector) -> Vector:
    """Segment flags after a stable two-way split: a segment begins at each
    old head and where the side label flips (ride the labels through the
    same split, then mark changes)."""
    moved = segmented.seg_split(side.astype(np.int64), side, sf)
    return segmented.seg_flag_from_neighbor_change(moved, sf)
