"""Segmented vectors and segmented scan operations (Section 2.3).

A segmented vector is an ordinary vector plus a parallel boolean vector of
*segment flags*; each ``True`` flag marks the first element of a segment
(Figure 4).  Segmented scans restart at every segment boundary, letting one
program step operate independently over many sets at once — the engine behind
the paper's quicksort, graph representation, and MST.

Every segmented operation here can be built from **at most two unsegmented
primitive scans** (Section 3.4, Figure 16): a segmented ``max-scan`` appends
the segment number to each value before an unsegmented ``max-scan``; a
segmented ``+-scan`` subtracts a copied segment-head offset from an
unsegmented ``+-scan``.  The functions in this module charge the machine
that construction's primitive cost and compute results through the
machine's execution backend (:meth:`repro.machine.Machine.execute`); the
segmented extreme scans execute as one linear-time kernel
(:func:`repro.backends.carry.seg_extreme_scan`) that needs no bit-append,
so arbitrary signed/float values cannot overflow.
The bit-literal constructions are in :mod:`repro.core.simulate` and are
tested to agree element-for-element.
"""
from __future__ import annotations

import numpy as np

from ..machine.model import Machine
from . import scans
from .vector import Vector

__all__ = [
    "SegmentError",
    "check_segment_flags",
    "check_flags_only",
    "segment_ids",
    "segment_heads",
    "segment_lengths",
    "flags_from_lengths",
    "seg_plus_scan",
    "seg_max_scan",
    "seg_min_scan",
    "seg_or_scan",
    "seg_and_scan",
    "seg_back_plus_scan",
    "seg_back_max_scan",
    "seg_back_min_scan",
    "seg_copy",
    "seg_back_copy",
    "seg_enumerate",
    "seg_index",
    "seg_plus_distribute",
    "seg_max_distribute",
    "seg_min_distribute",
    "seg_or_distribute",
    "seg_and_distribute",
    "seg_split",
    "seg_split3",
    "seg_flag_from_neighbor_change",
]


# --------------------------------------------------------------------- #
# Structure helpers
# --------------------------------------------------------------------- #

class SegmentError(ValueError, TypeError):
    """A segment descriptor violated its invariants: flags not boolean, a
    length mismatch with the values, or a first element that does not begin
    a segment.  Every segmented entry point raises this one type (it
    subclasses both ``ValueError`` and ``TypeError``, so pre-existing
    handlers of either keep working)."""


def check_segment_flags(values: Vector, seg_flags: Vector) -> np.ndarray:
    """Validate a (values, segment-flags) pair: same machine, same length,
    boolean flags, and the first element starts a segment.  Violations
    raise :class:`SegmentError`; every segmented entry point calls this
    (or :func:`check_flags_only` when there is no values vector) before
    charging any steps.  Returns the flags' array."""
    if seg_flags.machine is not values.machine:
        raise SegmentError("values and segment flags live on different machines")
    if seg_flags._n != values._n:
        raise SegmentError(
            f"segment flags length {seg_flags._n} != values length {values._n}"
        )
    return _check_flag_invariants(seg_flags)


def check_flags_only(seg_flags: Vector) -> np.ndarray:
    """Validate a bare segment-flag vector (entry points like
    :func:`segment_ids` that take no values vector); returns its array."""
    return _check_flag_invariants(seg_flags)


def _check_flag_invariants(seg_flags: Vector) -> np.ndarray:
    sf = seg_flags._storage if seg_flags._expr is None else seg_flags._data
    if sf.dtype != np.bool_:
        raise SegmentError("segment flags must be boolean")
    if len(sf) and not sf[0]:
        raise SegmentError("the first element must begin a segment (flags[0] is False)")
    return sf


# Charges: each operation pays its Section-3.4 construction in one call:
# ``Machine.charge_segmented`` (``scans`` scans, then ``elementwise``
# elementwise steps), or ``charge_seg_copy`` / ``charge_seg_distribute``,
# which pay that construction or, on the concurrent-read and
# combining-write models, the cheaper direct form (docs/cost_model.md).


def segment_ids(seg_flags: Vector) -> Vector:
    """The segment number of each element (one scan + one elementwise step)."""
    sf = check_flags_only(seg_flags)
    m = seg_flags.machine
    m.charge_segmented(len(sf), scans=1, elementwise=1)
    return Vector._adopt(m, m.execute("segment_ids", sf))


def segment_heads(seg_flags: Vector) -> np.ndarray:
    """Indices of segment heads (host-side helper; no steps charged)."""
    check_flags_only(seg_flags)
    return np.flatnonzero(seg_flags.data)


def segment_lengths(seg_flags: Vector) -> np.ndarray:
    """Length of each segment (host-side helper; no steps charged)."""
    check_flags_only(seg_flags)
    heads = np.flatnonzero(seg_flags.data)
    return np.diff(np.append(heads, len(seg_flags)))


def flags_from_lengths(machine: Machine, lengths) -> Vector:
    """Build segment flags for segments of the given lengths.

    This is the allocation pattern of Section 2.4 / Figure 8: a ``+-scan`` of
    the lengths gives head pointers, and a flag is permuted to each head.
    Charged as one scan plus one permute.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths < 0).any():
        raise ValueError("segment lengths must be non-negative")
    total = int(lengths.sum())
    machine.charge_scan(max(len(lengths), 1))
    machine.charge_permute(max(total, 1))
    heads = (np.cumsum(lengths) - lengths)[lengths > 0]
    flags = machine.execute("permute", np.ones(len(heads), dtype=bool),
                            heads, total, False)
    return Vector._adopt(machine, flags)


# --------------------------------------------------------------------- #
# Core segmented scans
# --------------------------------------------------------------------- #

def seg_plus_scan(values: Vector, seg_flags: Vector) -> Vector:
    """Segmented exclusive ``+-scan`` (Figure 4).

    Construction (Section 3.4): unsegmented ``+-scan``, copy the scan value
    at each segment head across the segment, subtract.  Charged as three
    scans (the copy is itself a segmented max-scan) plus elementwise steps.
    """
    sf = check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_segmented(len(sf), scans=3, elementwise=4)
    v = values._data
    if v.dtype == np.bool_:
        v = v.astype(np.int64)
    return Vector._adopt(m, m.execute("seg_plus_scan", v, sf))


def seg_max_scan(values: Vector, seg_flags: Vector, identity=None) -> Vector:
    """Segmented exclusive ``max-scan`` (Figure 4 / Figure 16).

    Charged as the paper's construction: one scan to number the segments,
    one unsegmented ``max-scan`` on the appended keys, plus the append /
    extract elementwise steps.
    """
    sf = check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_segmented(len(sf), scans=2, elementwise=3)
    if identity is None:
        identity = scans.max_identity(values.dtype)
    out = m.execute("seg_extreme_scan", values._data, sf, identity,
                    is_max=True)
    return Vector._adopt(m, out)


def seg_min_scan(values: Vector, seg_flags: Vector, identity=None) -> Vector:
    """Segmented exclusive ``min-scan`` (inverted segmented ``max-scan``)."""
    sf = check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_segmented(len(sf), scans=2, elementwise=5)
    if identity is None:
        identity = scans.min_identity(values.dtype)
    out = m.execute("seg_extreme_scan", values._data, sf, identity,
                    is_max=False)
    return Vector._adopt(m, out)


def seg_or_scan(values: Vector, seg_flags: Vector) -> Vector:
    """Segmented exclusive ``or-scan`` (one-bit segmented ``max-scan``)."""
    check_segment_flags(values, seg_flags)
    v = scans._one_bit(values)
    return seg_max_scan(v, seg_flags, identity=0) > 0


def seg_and_scan(values: Vector, seg_flags: Vector) -> Vector:
    """Segmented exclusive ``and-scan`` (one-bit segmented ``min-scan``)."""
    check_segment_flags(values, seg_flags)
    v = scans._one_bit(values)
    return seg_min_scan(v, seg_flags, identity=1) > 0


# --------------------------------------------------------------------- #
# Backward segmented scans
# --------------------------------------------------------------------- #

def _reverse_segment_flags(sf: np.ndarray) -> np.ndarray:
    """Segment-begin flags of the reversed vector: an element begins a
    reversed segment iff it *ends* a segment in the forward order."""
    n = len(sf)
    ends = np.empty(n, dtype=bool)
    if n:
        ends[:-1] = sf[1:]
        ends[-1] = True
    return ends[::-1]


def _seg_backward(forward, values: Vector, seg_flags: Vector, **kw) -> Vector:
    """Run the forward segmented scan ``forward`` from each segment's end
    to its start: reverse, scan, reverse (two extra permute steps)."""
    check_segment_flags(values, seg_flags)
    rsf = Vector._adopt(values.machine, _reverse_segment_flags(seg_flags.data))
    return forward(values.reverse(), rsf, **kw).reverse()


def seg_back_plus_scan(values: Vector, seg_flags: Vector) -> Vector:
    """Segmented exclusive ``+-scan`` running from each segment's end to its
    start."""
    return _seg_backward(seg_plus_scan, values, seg_flags)


def seg_back_max_scan(values: Vector, seg_flags: Vector, identity=None) -> Vector:
    """Backward segmented ``max-scan``."""
    return _seg_backward(seg_max_scan, values, seg_flags, identity=identity)


def seg_back_min_scan(values: Vector, seg_flags: Vector, identity=None) -> Vector:
    """Backward segmented ``min-scan``."""
    return _seg_backward(seg_min_scan, values, seg_flags, identity=identity)


# --------------------------------------------------------------------- #
# Segmented copy / enumerate / distribute (Section 2.2 within segments)
# --------------------------------------------------------------------- #

def seg_copy(values: Vector, seg_flags: Vector) -> Vector:
    """Copy each segment's first element across its segment (the segmented
    ``copy`` of Section 2.3.1, built on a segmented ``max-scan``)."""
    sf = check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_seg_copy(len(sf))
    return Vector._adopt(m, m.execute("seg_copy", values._data, sf))


def seg_back_copy(values: Vector, seg_flags: Vector) -> Vector:
    """Copy each segment's *last* element across its segment (a backward
    segmented copy, as used by ``+-distribute``)."""
    sf = check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_seg_copy(len(sf))
    return Vector._adopt(m, m.execute("seg_back_copy", values._data, sf))


def seg_enumerate(flags: Vector, seg_flags: Vector) -> Vector:
    """Number the ``True`` elements within each segment, starting at 0
    (segmented version of Figure 1's ``enumerate``)."""
    check_segment_flags(flags, seg_flags)
    return seg_plus_scan(flags.astype(np.int64), seg_flags)


def seg_index(seg_flags: Vector) -> Vector:
    """Each element's offset within its segment (a segmented ``+-scan`` of
    all ones)."""
    check_flags_only(seg_flags)
    ones = Vector._adopt(seg_flags.machine,
                         np.ones(len(seg_flags), dtype=np.int64))
    seg_flags.machine.charge_elementwise(len(seg_flags))
    return seg_plus_scan(ones, seg_flags)


def _seg_distribute(values: Vector, seg_flags: Vector, op: str) -> Vector:
    """Per-segment reduction distributed to every element of the segment:
    one segmented scan + one segmented copy worth of steps."""
    sf = check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_seg_distribute(len(sf))
    return Vector._adopt(m, m.execute("seg_distribute", values._data, sf, op))


def seg_plus_distribute(values: Vector, seg_flags: Vector) -> Vector:
    """Every element receives the sum of its segment."""
    return _seg_distribute(values, seg_flags, "sum")


def seg_max_distribute(values: Vector, seg_flags: Vector) -> Vector:
    """Every element receives the maximum of its segment."""
    return _seg_distribute(values, seg_flags, "max")


def seg_min_distribute(values: Vector, seg_flags: Vector) -> Vector:
    """Every element receives the minimum of its segment (used by the MST's
    ``min-distribute`` over edge weights)."""
    return _seg_distribute(values, seg_flags, "min")


def seg_or_distribute(values: Vector, seg_flags: Vector) -> Vector:
    return _seg_distribute(values, seg_flags, "or")


def seg_and_distribute(values: Vector, seg_flags: Vector) -> Vector:
    """Every element receives the AND of its segment (used by quicksort's
    sortedness check)."""
    return _seg_distribute(values, seg_flags, "and")


# --------------------------------------------------------------------- #
# Segmented split (the engine of quicksort, Section 2.3.1)
# --------------------------------------------------------------------- #

def seg_split(values: Vector, flags: Vector, seg_flags: Vector) -> Vector:
    """Segmented ``split``: within each segment, pack ``False`` elements to
    the bottom and ``True`` elements to the top, stably (Section 2.3.1).

    Built from a segmented enumerate for each side, a segmented copy of each
    segment's offset, and one permute — all O(1) program steps.
    """
    check_segment_flags(values, seg_flags)
    m = values.machine
    not_flags = ~flags
    i_down = seg_enumerate(not_flags, seg_flags)
    # within-segment index of True elements, counted from the segment top
    n_false = seg_plus_distribute(not_flags.astype(np.int64), seg_flags)
    i_up_rank = seg_enumerate(flags, seg_flags)
    i_up = n_false + i_up_rank
    local = flags.where(i_up, i_down)
    # global offset of each segment start
    head_pos = seg_copy(Vector._adopt(m, np.arange(len(values), dtype=np.int64)),
                        seg_flags)
    index = local + head_pos
    return values.permute(index)


def seg_split3(values: Vector, lesser: Vector, equal: Vector, seg_flags: Vector) -> Vector:
    """Three-way segmented split: within each segment pack elements flagged
    ``lesser`` to the bottom, ``equal`` to the middle and the rest to the
    top, stably — the quicksort split of Section 2.3.1.

    A constant number of segmented enumerates / distributes / copies plus
    one permute.
    """
    check_segment_flags(values, seg_flags)
    m = values.machine
    greater = ~(lesser | equal)
    n_less = seg_plus_distribute(lesser.astype(np.int64), seg_flags)
    n_eq = seg_plus_distribute(equal.astype(np.int64), seg_flags)
    i_less = seg_enumerate(lesser, seg_flags)
    i_eq = seg_enumerate(equal, seg_flags) + n_less
    i_gt = seg_enumerate(greater, seg_flags) + n_less + n_eq
    local = lesser.where(i_less, equal.where(i_eq, i_gt))
    head_pos = seg_copy(Vector._adopt(m, np.arange(len(values), dtype=np.int64)),
                        seg_flags)
    return values.permute(local + head_pos)


def seg_flag_from_neighbor_change(values: Vector,
                                  seg_flags: Vector | None = None) -> Vector:
    """New segment flags marking positions whose value differs from the
    previous element's — Step 4 of quicksort: knowing the pivot comparison
    class of each element, a new segment begins wherever the class changes.
    Old segment boundaries, if given, are kept; without them the first
    element alone begins a segment besides the changes (the flags of a
    vector sorted or packed by segment number).  One shift to the right
    neighbour plus one compare."""
    if seg_flags is not None:
        check_segment_flags(values, seg_flags)
    m = values.machine
    m.charge_permute(len(values))
    m.charge_elementwise(len(values))
    out = m.execute("adjacent_ne", values.data)
    if seg_flags is not None:
        out = m.execute("elementwise", np.logical_or, out, seg_flags.data)
    return Vector._adopt(m, out)
