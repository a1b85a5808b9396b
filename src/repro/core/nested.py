"""A nested-vector facade over the segmented toolkit.

The paper manipulates (values, segment-flags) pairs by hand; its
successors (the scan-vector model, NESL) bundled them into a *nested
vector* — a vector of vectors with data-parallel operations applied
within each subvector.  :class:`SegmentedVector` is that bundle for this
library: one flat :class:`~repro.core.vector.Vector` plus its segment
flags, with the Section 2.2/2.3 operations as methods.

>>> from repro import Machine
>>> from repro.core.nested import SegmentedVector
>>> m = Machine("scan")
>>> sv = SegmentedVector.from_nested(m, [[5, 1], [3, 4, 3, 9], [2, 6]])
>>> sv.plus_scan().to_nested()
[[0, 5], [0, 3, 7, 10], [0, 2]]
>>> sv.sums().to_list()
[6, 19, 8]

Every method charges exactly what the underlying segmented operation
charges; the facade adds no steps of its own.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..machine.model import Machine
from . import ops, segmented
from .vector import Vector

__all__ = ["SegmentedVector"]


class SegmentedVector:
    """A vector of subvectors, stored flat with segment flags."""

    __slots__ = ("values", "seg_flags")

    def __init__(self, values: Vector, seg_flags: Vector) -> None:
        segmented.check_segment_flags(values, seg_flags)
        self.values = values
        self.seg_flags = seg_flags

    # ------------------------------------------------------------------ #
    # Construction / deconstruction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_nested(cls, machine: Machine, nested: Iterable[Sequence]) -> "SegmentedVector":
        """Build from a list of (non-empty) lists."""
        nested = [list(seg) for seg in nested]
        if any(len(seg) == 0 for seg in nested):
            raise ValueError("segments must be non-empty (the representation "
                             "cannot express an empty segment)")
        flat = [x for seg in nested for x in seg]
        flags = []
        for seg in nested:
            flags.extend([True] + [False] * (len(seg) - 1))
        return cls(machine.vector(flat), machine.flags(flags))

    @classmethod
    def from_lengths(cls, values: Vector, lengths) -> "SegmentedVector":
        """Attach segment structure of the given lengths to a flat vector.

        The descriptor is validated here, at construction: lengths must be
        positive (this representation cannot express an empty segment) and
        must sum to the flat length — a corrupted descriptor (e.g. from a
        faulted allocation scan) fails immediately instead of silently
        mis-segmenting every later operation.
        """
        arr = np.asarray(lengths, dtype=np.int64)
        if (arr <= 0).any():
            bad = arr[arr <= 0]
            raise ValueError(
                f"segment lengths must be positive, got {bad.tolist()} "
                f"(negative or zero lengths corrupt the segment descriptor)")
        total = int(arr.sum())
        if total != len(values):
            raise ValueError(
                f"segment lengths sum to {total} but the flat vector holds "
                f"{len(values)} elements; the descriptor does not tile the "
                f"vector")
        flags = segmented.flags_from_lengths(values.machine, arr)
        return cls(values, flags)

    def to_nested(self) -> list[list]:
        """Host-side: the list-of-lists view."""
        out: list[list] = []
        for v, f in zip(self.values.to_list(), self.seg_flags.to_list()):
            if f:
                out.append([])
            out[-1].append(v)
        return out

    def __len__(self) -> int:
        """Number of segments."""
        return int(np.count_nonzero(self.seg_flags.data))

    @property
    def flat_length(self) -> int:
        return len(self.values)

    def lengths(self) -> np.ndarray:
        """Per-segment lengths (host-side view)."""
        return segmented.segment_lengths(self.seg_flags)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentedVector({self.to_nested()!r})"

    def _with(self, values: Vector) -> "SegmentedVector":
        return SegmentedVector(values, self.seg_flags)

    # ------------------------------------------------------------------ #
    # Per-segment scans and distributes
    # ------------------------------------------------------------------ #

    def plus_scan(self) -> "SegmentedVector":
        return self._with(segmented.seg_plus_scan(self.values, self.seg_flags))

    def max_scan(self, identity=None) -> "SegmentedVector":
        return self._with(segmented.seg_max_scan(self.values, self.seg_flags,
                                                 identity=identity))

    def min_scan(self, identity=None) -> "SegmentedVector":
        return self._with(segmented.seg_min_scan(self.values, self.seg_flags,
                                                 identity=identity))

    def back_plus_scan(self) -> "SegmentedVector":
        return self._with(segmented.seg_back_plus_scan(self.values, self.seg_flags))

    def copy_first(self) -> "SegmentedVector":
        """Each segment's head value copied across the segment."""
        return self._with(segmented.seg_copy(self.values, self.seg_flags))

    def index(self) -> "SegmentedVector":
        """Each element's offset within its segment."""
        return self._with(segmented.seg_index(self.seg_flags))

    def _distribute(self, fn) -> "SegmentedVector":
        return self._with(fn(self.values, self.seg_flags))

    def sum_distribute(self) -> "SegmentedVector":
        return self._distribute(segmented.seg_plus_distribute)

    def max_distribute(self) -> "SegmentedVector":
        return self._distribute(segmented.seg_max_distribute)

    def min_distribute(self) -> "SegmentedVector":
        return self._distribute(segmented.seg_min_distribute)

    # ------------------------------------------------------------------ #
    # Per-segment reductions (one value per segment)
    # ------------------------------------------------------------------ #

    def _heads(self, per_slot: Vector) -> Vector:
        return ops.pack(per_slot, self.seg_flags)

    def sums(self) -> Vector:
        """Per-segment sums as a dense vector (one per segment)."""
        return self._heads(segmented.seg_plus_distribute(self.values,
                                                         self.seg_flags))

    def maxima(self) -> Vector:
        return self._heads(segmented.seg_max_distribute(self.values,
                                                        self.seg_flags))

    def minima(self) -> Vector:
        return self._heads(segmented.seg_min_distribute(self.values,
                                                        self.seg_flags))

    # ------------------------------------------------------------------ #
    # Elementwise (the flat vector's operators, structure preserved)
    # ------------------------------------------------------------------ #

    def map(self, fn) -> "SegmentedVector":
        """Apply ``fn`` (Vector -> Vector, elementwise) inside each
        segment; the structure rides along unchanged."""
        out = fn(self.values)
        if not isinstance(out, Vector) or len(out) != len(self.values):
            raise ValueError("map function must return an equal-length Vector")
        return self._with(out)

    def __add__(self, other):
        rhs = other.values if isinstance(other, SegmentedVector) else other
        return self._with(self.values + rhs)

    def __mul__(self, other):
        rhs = other.values if isinstance(other, SegmentedVector) else other
        return self._with(self.values * rhs)

    # ------------------------------------------------------------------ #
    # Structure-changing operations
    # ------------------------------------------------------------------ #

    def split(self, flags: Vector) -> "SegmentedVector":
        """Within each segment, pack false-flagged elements first (stable);
        segments keep their extents."""
        return self._with(segmented.seg_split(self.values, flags, self.seg_flags))

    def pack(self, keep: Vector) -> "SegmentedVector":
        """Drop un-flagged elements; segments shrink and empty segments
        disappear from the structure."""
        if keep.dtype != np.bool_:
            raise TypeError("keep flags must be boolean")
        m = self.values.machine
        new_values = ops.pack(self.values, keep)
        seg_ids = segmented.segment_ids(self.seg_flags)
        surviving_ids = ops.pack(seg_ids, keep)
        if len(new_values):
            return SegmentedVector(
                new_values, segmented.seg_flag_from_neighbor_change(surviving_ids))
        # an empty result has no neighbours to compare; the flag rebuild is
        # still charged as a one-element shift and compare (a floor of one,
        # as flags_from_lengths charges its permute)
        m.charge_permute(1)
        m.charge_elementwise(1)
        return SegmentedVector(new_values, Vector(m, np.empty(0, dtype=bool)))

    def concat_segments(self, other: "SegmentedVector") -> "SegmentedVector":
        """Append the other nested vector's segments after this one's."""
        return SegmentedVector(
            ops.concat(self.values, other.values),
            ops.concat(self.seg_flags, other.seg_flags),
        )
