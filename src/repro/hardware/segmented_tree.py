"""A direct segmented-scan circuit (the paper's Section 3 remark that
"some of the other scan operations, such as the segmented scan operations,
can be implemented directly with little additional hardware" [7]).

The tree of Figure 13 is reused; each unit additionally latches one *flag*
bit per child.  The operand streams send the segment flag first, then the
value bits, so the flag is latched before the serial adder/comparator
starts and the combine rule can switch on it:

* up sweep:    ``(vl, fl) ⊕ (vr, fr) = (vr if fr else vl ∘ vr,  fl | fr)``
* down sweep:  the left child receives the incoming carry; the right child
  receives ``vl`` if the left child's latched flag is set, otherwise
  ``carry ∘ vl``; a leaf whose own flag is set outputs the identity.

Hardware cost over the plain circuit: two flag flip-flops and a mux per
unit.  Cycle cost: one extra cycle for the flag, i.e. ``(m + 1) + 2 lg n``
versus the two-primitive simulation's two full scans over ``m + lg n``-bit
appended operands — the ablation `bench_ablation_segmented.py` quantifies
the gap.

This module simulates the tree sweep unit by unit (the combine rules run
exactly as wired) while reporting the bit-pipelined cycle count that the
flag-first framing permits.
"""
from __future__ import annotations

import numpy as np

from .._util import ceil_log2
from .tree import tree_scan_cycles

__all__ = ["SegmentedTreeScanCircuit", "segmented_scan_cycles",
           "simulated_segmented_scan_cycles"]


def segmented_scan_cycles(n_leaves: int, width: int) -> int:
    """Cycles for a direct segmented scan: the plain pipeline plus one
    leading flag bit."""
    return tree_scan_cycles(n_leaves, width + 1)


def simulated_segmented_scan_cycles(n_leaves: int, width: int) -> int:
    """Cycles for the Section 3.4 two-primitive simulation: an unsegmented
    ``+-scan`` to number the segments, then a ``max-scan`` over operands
    widened by the segment-number field (Figure 16)."""
    lg = ceil_log2(max(n_leaves, 2))
    return tree_scan_cycles(n_leaves, lg) + tree_scan_cycles(n_leaves, width + lg)


class SegmentedTreeScanCircuit:
    """Word-level simulation of the segmented tree scan, ``op`` in
    ``{"plus", "max"}``."""

    def __init__(self, n_leaves: int, width: int, op: str = "plus", *,
                 injector=None) -> None:
        if n_leaves < 2 or (n_leaves & (n_leaves - 1)) != 0:
            raise ValueError("n_leaves must be a power of two >= 2")
        if op not in ("plus", "max"):
            raise ValueError("op must be 'plus' or 'max'")
        self.n = n_leaves
        self.width = width
        self.op = op
        self.lg = ceil_log2(n_leaves)
        #: optional :class:`repro.faults.FaultInjector`; this simulator is
        #: sweep-level, so faults address ``(unit, field, bit)`` with the
        #: ``seg_*`` fields (the ``cycle`` coordinate is ignored)
        self.injector = injector

    def _identity(self):
        return 0 if self.op == "plus" else 0  # unsigned max identity

    def _combine(self, a: int, b: int) -> int:
        if self.op == "plus":
            return (a + b) & ((1 << self.width) - 1)
        return max(a, b)

    def scan(self, values, flags) -> tuple[np.ndarray, int]:
        """Exclusive segmented scan; returns ``(results, cycles)``."""
        vals = np.asarray(values, dtype=np.int64)
        segf = np.asarray(flags, dtype=bool)
        if len(vals) != self.n or len(segf) != self.n:
            raise ValueError(f"expected {self.n} values and flags")
        if len(vals) and (vals.min() < 0 or vals.max() >= (1 << self.width)):
            raise ValueError(f"values must lie in [0, 2^{self.width})")
        if self.n and not segf[0]:
            raise ValueError("the first leaf must start a segment")

        n = self.n
        faults = self._faults_by_unit()
        # up sweep: heap-indexed summaries (value, flag) per node
        sum_v = np.zeros(2 * n, dtype=np.int64)
        sum_f = np.zeros(2 * n, dtype=bool)
        stored_v = np.zeros(n, dtype=np.int64)   # left-child latch per unit
        stored_f = np.zeros(n, dtype=bool)
        sum_v[n:] = vals
        sum_f[n:] = segf
        for u in range(n - 1, 0, -1):
            lv, lf = sum_v[2 * u], sum_f[2 * u]
            rv, rf = sum_v[2 * u + 1], sum_f[2 * u + 1]
            stored_v[u], stored_f[u] = lv, lf
            sum_v[u] = rv if rf else self._combine(lv, rv)
            sum_f[u] = lf | rf
            for f in faults.get(u, ()):
                if f.field == "seg_up":
                    sum_v[u] ^= 1 << (f.bit % self.width)
                elif f.field == "seg_flag":
                    sum_f[u] = not sum_f[u]
                elif f.field == "seg_stored":
                    stored_v[u] ^= 1 << (f.bit % self.width)
                else:
                    continue  # seg_carry applies on the down sweep
                self.injector.counters.bump("injected")

        # down sweep: carries flow from the root (tied to the identity)
        carry = np.zeros(2 * n, dtype=np.int64)
        carry[1] = self._identity()
        for u in range(1, n):
            c = carry[u]
            carry[2 * u] = c
            lv, lf = stored_v[u], stored_f[u]
            carry[2 * u + 1] = lv if lf else self._combine(c, lv)
            for child in (2 * u, 2 * u + 1):
                for f in faults.get(child, ()):
                    if f.field == "seg_carry":
                        carry[child] ^= 1 << (f.bit % self.width)
                        self.injector.counters.bump("injected")

        # a leaf that starts a segment sees the identity, not the carry
        out = np.where(segf, self._identity(), carry[n:])
        return out, segmented_scan_cycles(self.n, self.width)

    def _faults_by_unit(self) -> dict:
        """Word-level fault schedule, grouped by heap node index."""
        if self.injector is None:
            return {}
        by_unit: dict[int, list] = {}
        for f in self.injector.segmented_faults():
            if not 1 <= f.unit < 2 * self.n:
                raise ValueError(
                    f"segmented fault unit {f.unit} outside [1, {2 * self.n})")
            by_unit.setdefault(f.unit, []).append(f)
        return by_unit
