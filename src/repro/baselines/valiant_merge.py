"""Valiant's doubly-logarithmic merge — Table 1's merging row cites the
Shiloach–Vishkin/Valiant O(lg lg n) bound on the stronger P-RAM models.

The recursion: mark every ⌈√n⌉-th element of A and every ⌈√m⌉-th of B,
merge those samples recursively (the subproblem has ~√n + √m elements),
and use the sample ranks to cut both vectors into independent block pairs
that recurse in parallel.  The depth of the recursion is O(lg lg n); each
level costs O(1) parallel steps *given concurrent reads* (many blocks
read the shared sample ranks), so the algorithm demands a CREW/CRCW
machine — exactly the Table 1 caveat the scan model's halving merge
avoids.

Charging: every level of the (host-simulated) recursion charges a
constant number of gathers/elementwise steps over the elements live at
that level; the measured step count grows like lg lg n.
"""
from __future__ import annotations

import numpy as np

from ..core.vector import Vector
from ..machine.model import CapabilityError, Machine

__all__ = ["valiant_merge"]


def _require_concurrent_read(machine: Machine) -> None:
    if not machine.capabilities.concurrent_read:
        raise CapabilityError(
            "Valiant's merge needs concurrent reads (CREW/CRCW); "
            f"got {machine.model!r} — use halving_merge on the scan model"
        )


def valiant_merge(a: Vector, b: Vector) -> Vector:
    """Merge two sorted vectors in O(lg lg n) charged rounds (CREW+)."""
    m = a.machine
    _require_concurrent_read(m)
    if b.machine is not m:
        raise ValueError("operands live on different machines")
    av = a.data
    bv = b.data
    if len(av) > 1 and (np.diff(av) < 0).any():
        raise ValueError("a must be sorted")
    if len(bv) > 1 and (np.diff(bv) < 0).any():
        raise ValueError("b must be sorted")

    out = np.empty(len(av) + len(bv), dtype=np.result_type(av.dtype, bv.dtype))
    _merge_into(m, av, bv, out)
    return Vector(m, out)


def _merge_into(machine: Machine, a: np.ndarray, b: np.ndarray,
                out: np.ndarray) -> None:
    """Recursive level: charge O(1) parallel primitives over the level's
    total size, then recurse on independent block pairs *together* (they
    run in parallel, so one charge per depth, not per block)."""
    frontier = [(a, b, out)]
    while frontier:
        total = sum(len(x) + len(y) for x, y, _ in frontier)
        machine.charge_elementwise(max(total, 1))
        machine.charge_gather(max(total, 1), unique=False)  # sample lookups
        machine.charge_block("permute", max(total, 1))
        nxt = []
        for x, y, dest in frontier:
            nxt.extend(_one_level(x, y, dest))
        frontier = nxt


def _one_level(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """Split one (a, b) pair by its samples; return the sub-pairs that
    still need merging."""
    n, k = len(a), len(b)
    if n == 0:
        out[:] = b
        return []
    if k == 0:
        out[:] = a
        return []
    if n <= 2 or k <= 2:
        # one side is constant: finish in this level (each element of the
        # small side binary-searches the other concurrently)
        i = j = t = 0
        while i < n and j < k:
            if a[i] <= b[j]:
                out[t] = a[i]
                i += 1
            else:
                out[t] = b[j]
                j += 1
            t += 1
        out[t:] = np.concatenate((a[i:], b[j:]))
        return []

    sa = max(int(np.sqrt(n)), 1)
    sample_idx = np.arange(sa - 1, n, sa)
    samples = a[sample_idx]
    # every sample's rank in b, found concurrently (binary searches);
    # side="left" sends b's duplicates of a sample into the next block,
    # where the base merge keeps a's copies first (global stability)
    ranks = np.searchsorted(b, samples, side="left")

    subproblems = []
    prev_a = 0
    prev_b = 0
    prev_out = 0
    bounds = list(zip(sample_idx + 1, ranks)) + [(n, k)]
    for end_a, end_b in bounds:
        xa = a[prev_a:end_a]
        xb = b[prev_b:end_b]
        size = len(xa) + len(xb)
        dest = out[prev_out: prev_out + size]
        if size:
            subproblems.append((xa, xb, dest))
        prev_a, prev_b, prev_out = end_a, end_b, prev_out + size
    return subproblems
