"""Simple scan-built operations (Sections 2.2, 2.4, 2.5).

These are the constant-step building blocks Table 3 cross-references:
enumerating, copying, distributing sums, splitting, allocating, packing and
load balancing.  Each is a short composition of the scan primitives plus
elementwise steps and permutes, so the costs flow through the machine's
cost model automatically.
"""
from __future__ import annotations

import numpy as np

from ..machine.model import Machine
from . import scans
from .vector import Vector

__all__ = [
    "concat",
    "enumerate_",
    "back_enumerate",
    "count",
    "copy_",
    "split",
    "split3",
    "pack",
    "pack_index",
    "allocate",
    "distribute_to_segments",
    "load_balance",
]


def concat(a: Vector, b: Vector) -> Vector:
    """View two vectors as one longer vector (the processors of ``b`` are
    relabeled after those of ``a``; no data moves, so no steps are charged).
    """
    if a.machine is not b.machine:
        raise ValueError("vectors live on different machines")
    dtype = np.result_type(a.dtype, b.dtype) if len(a) and len(b) else (
        a.dtype if len(a) else b.dtype)
    return Vector._adopt(a.machine, np.concatenate(
        (a.data.astype(dtype, copy=False), b.data.astype(dtype, copy=False))))


def enumerate_(flags: Vector) -> Vector:
    """Return the integer ``i`` to the ``i``-th ``True`` element (Figure 1).

    Implemented by converting the flags to 0/1 and executing a ``+-scan``.
    """
    return scans.plus_scan(flags.astype(np.int64))


def back_enumerate(flags: Vector) -> Vector:
    """Enumerate ``True`` elements starting from the *top* of the vector
    (used to compute the upward indices of ``split``)."""
    return scans.back_plus_scan(flags.astype(np.int64))


def count(flags: Vector) -> int:
    """How many elements are ``True`` (a ``+-reduce`` of the flags)."""
    return scans.plus_reduce(flags.astype(np.int64))


def copy_(v: Vector) -> Vector:
    """Copy the first element across the whole vector (Figure 1).

    Implemented with one broadcast-shaped step (the paper implements it by
    scanning a vector holding the identity everywhere but position 0).
    """
    m = v.machine
    m.charge_broadcast(len(v))
    if len(v) == 0:
        return Vector._adopt(m, v.data.copy())
    return Vector._adopt(m, m.execute("full", len(v), v.data[0], v.dtype))


def split(v: Vector, flags: Vector) -> Vector:
    """The ``split`` operation of Figure 3: pack elements whose flag is
    ``False`` to the bottom of the vector and elements whose flag is ``True``
    to the top, preserving order within both groups.

    ::

        I-down <- enumerate(not(Flags))
        I-up   <- n - back-enumerate(Flags) - 1
        Index  <- if Flags then I-up else I-down
        permute(A, Index)
    """
    if flags.dtype != np.bool_:
        raise TypeError("split flags must be boolean")
    n = len(v)
    i_down = enumerate_(~flags)
    i_up = (n - 1) - back_enumerate(flags)
    index = flags.where(i_up, i_down)
    return v.permute(index)


def split3(v: Vector, lesser: Vector, equal: Vector) -> Vector:
    """Three-way split: elements flagged ``lesser`` go to the bottom,
    ``equal`` to the middle, and the rest to the top, stably (the quicksort
    split of Section 2.3.1, unsegmented form)."""
    n = len(v)
    greater = ~(lesser | equal)
    i_less = enumerate_(lesser)
    n_less = count(lesser)
    i_eq = enumerate_(equal) + n_less
    i_gt = (n - 1) - back_enumerate(greater)
    index = lesser.where(i_less, equal.where(i_eq, i_gt))
    return v.permute(index)


def pack_index(flags: Vector) -> tuple[Vector, int]:
    """Destination index of each ``True`` element when packing, and the
    packed length (one enumerate plus one reduce)."""
    idx = enumerate_(flags)
    m = count(flags)
    return idx, m


def pack(v: Vector, flags: Vector) -> Vector:
    """Pack the flagged elements into a vector of their own (Figure 11's
    ``pack``, the basis of load balancing and the halving merge)."""
    if flags.dtype != np.bool_:
        raise TypeError("pack flags must be boolean")
    idx, m = pack_index(flags)
    if m == 0:
        return Vector._adopt(v.machine, np.empty(0, dtype=v.dtype))
    # Only flagged processors write; the permute is still one step.
    v.machine.charge_permute(v._n)
    out = v.machine.execute("pack", v._data, flags._data, idx._data, m)
    return Vector._adopt(v.machine, out)


def allocate(machine: Machine, counts: Vector) -> tuple[Vector, Vector]:
    """Processor allocation (Section 2.4, Figure 8).

    Given a vector of non-negative integers ``counts``, allocate a contiguous
    segment of ``counts[i]`` new elements to each position ``i``.  Returns
    ``(seg_flags, hpointers)``: the segment flags of the new vector of length
    ``sum(counts)`` and the head pointer of each segment.
    """
    if counts.machine is not machine:
        raise ValueError("counts vector belongs to a different machine")
    c = counts.data
    if len(c) and c.min() < 0:
        raise ValueError("allocation counts must be non-negative")
    hpointers = scans.plus_scan(counts)
    total = scans.plus_reduce(counts)
    machine.charge_permute(max(total, 1))  # permute a flag to each head
    heads = hpointers.data[c > 0]
    flags = machine.execute("permute", np.ones(len(heads), dtype=bool),
                            heads, total, False)
    return Vector._adopt(machine, flags), hpointers


def distribute_to_segments(values: Vector, counts: Vector) -> tuple[Vector, Vector]:
    """Allocate ``counts[i]`` elements per position and give every new
    element the value of its source position (Figure 8's ``distribute``).

    Returns ``(distributed_values, seg_flags)``.
    """
    from . import segmented

    m = values.machine
    seg_flags, hpointers = allocate(m, counts)
    total = len(seg_flags)
    nonempty = counts.data > 0
    m.charge_permute(max(total, 1))  # permute each value to its segment head
    at_heads = m.execute("permute", values.data[nonempty],
                         hpointers.data[nonempty], total,
                         values.dtype.type(0))
    head_vec = Vector._adopt(m, at_heads)
    if total == 0:
        return head_vec, seg_flags
    return segmented.seg_copy(head_vec, seg_flags), seg_flags


def load_balance(v: Vector, keep: Vector) -> Vector:
    """Drop the un-flagged elements and pack the survivors into a dense
    vector so each of the machine's processors owns an equal block
    (Section 2.5, Figure 11).  With ``m`` survivors on ``p`` processors this
    is ``O(m/p + lg p)`` steps on an EREW machine and ``O(m/p)``-plus-a-
    constant on the scan model; here it is one pack."""
    return pack(v, keep)
