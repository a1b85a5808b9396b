"""A streaming checksum checker for the tree scan circuit.

For an exclusive scan the last output and last input reassemble the
reduction::

    +-scan :  out[n-1] + in[n-1] == +-reduce(in)        (mod 2^width)
    max-scan: max(out[n-1], in[n-1]) == max-reduce(in)

The reduction itself streams out of the *root* of the scan tree for free
during the up sweep (Figure 13: the value reaching the root is the total),
so the checker hardware is tiny: a ``2 lg n - 1``-bit delay line to align
the root stream with the leaf outputs, one extra
:class:`~repro.hardware.unit.SumStateMachine` to combine ``out[n-1]`` with
``in[n-1]`` bit-serially, and a one-bit comparator flip-flop.  Cost:
:data:`CHECK_EXTRA_CYCLES` extra clocks to drain the comparator, ``+1``
state machine, ``2 lg n - 1`` FIFO bits.

Coverage is deliberately partial — this is the *cheap* rung of the
detection lattice.  A fault that corrupts a middle element of the down
sweep leaves both ``out[n-1]`` and the root total intact and slips
through; a fault on the up sweep usually breaks the identity and is
caught.  :class:`~repro.hardware.TMRTreeScanCircuit` provides the masking
rung above it, and the machine-level self-checking scans
(:func:`repro.core.simulate.sim_verify_plus_scan`) the complete one.
``benchmarks/bench_fault_tolerance.py`` measures all three.
"""
from __future__ import annotations

import numpy as np

from .tree import MAX, TreeScanCircuit, tree_scan_cycles

__all__ = ["ChecksumTreeScanCircuit", "CHECK_EXTRA_CYCLES",
           "checksum_scan_cycles"]

#: extra clocks after the last output bit: one for the combining state
#: machine, one to latch the comparator verdict
CHECK_EXTRA_CYCLES = 2


def checksum_scan_cycles(n_leaves: int, width: int) -> int:
    """Cycles for one checksum-checked scan: the plain pipeline plus the
    comparator drain."""
    return tree_scan_cycles(n_leaves, width) + CHECK_EXTRA_CYCLES


class ChecksumTreeScanCircuit:
    """A :class:`TreeScanCircuit` with the streaming end-to-end check."""

    def __init__(self, n_leaves: int, width: int, op: int, *,
                 injector=None) -> None:
        self.circuit = TreeScanCircuit(n_leaves, width, op,
                                       injector=injector)
        self.n = n_leaves
        self.width = width
        self.op = op
        #: set False when a wrapper (e.g. the TMR voter) classifies
        #: outcomes itself, to keep the fault ledger single-entry
        self.record_detections = True

    @property
    def injector(self):
        return self.circuit.injector

    @injector.setter
    def injector(self, value) -> None:
        self.circuit.injector = value

    def scan(self, values) -> tuple[np.ndarray, int, bool]:
        """Run one checked scan: ``(results, cycles, ok)``.

        ``ok`` is the checker's verdict — ``False`` means the scan-identity
        checksum failed and the result must not be trusted.  A detection
        is recorded in the injector's fault counters when one is attached.
        """
        results, cycles = self.circuit.scan(values)
        vals = np.asarray(values, dtype=np.int64)
        total = self.circuit.last_reduction()
        if len(vals) == 0:
            return results, cycles + CHECK_EXTRA_CYCLES, True
        if self.op == MAX:
            ok = max(int(results[-1]), int(vals[-1])) == total
        else:
            mask = (1 << self.width) - 1
            ok = (int(results[-1]) + int(vals[-1])) & mask == total
        if not ok and self.record_detections and self.injector is not None:
            self.injector.counters.bump("detected")
        return results, cycles + CHECK_EXTRA_CYCLES, ok

    # --- hardware inventory -------------------------------------------- #

    def num_state_machines(self) -> int:
        return self.circuit.num_state_machines() + 1

    def total_shift_register_bits(self) -> int:
        return self.circuit.total_shift_register_bits() + 2 * self.circuit.lg - 1
