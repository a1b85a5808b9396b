"""Triple-modular-redundant tree scan: three replicas and a bitwise
majority voter.

The three :class:`~repro.hardware.TreeScanCircuit` replicas run in
lock-step (same clock, same operand streams), so the voted scan costs the
same cycles as one circuit plus one voter register — the price is paid in
hardware: 3x the state machines and FIFO bits plus a few gates per voted
output bit (``maj(a,b,c) = ab + ac + bc``).

Any fault confined to a single replica is *masked*: the two healthy
replicas out-vote it bit by bit.  The voter also reports whether the
replicas disagreed at all, which doubles as a detection signal (a
disagreeing-but-correctly-voted scan means a replica is failing and
should be serviced).  Combined with the per-replica checksum check
(``checksum=True``) this is the top of the detection lattice measured in
``benchmarks/bench_fault_tolerance.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .selfcheck import CHECK_EXTRA_CYCLES, ChecksumTreeScanCircuit
from .tree import TreeScanCircuit, tree_scan_cycles

__all__ = ["TMRTreeScanCircuit", "TMRStats", "tmr_scan_cycles"]

#: one extra clock to latch the voted output bits
VOTE_EXTRA_CYCLES = 1


def tmr_scan_cycles(n_leaves: int, width: int, *,
                    checksum: bool = False) -> int:
    """Cycles for one TMR-voted scan (replicas run concurrently)."""
    base = tree_scan_cycles(n_leaves, width) + VOTE_EXTRA_CYCLES
    return base + (CHECK_EXTRA_CYCLES if checksum else 0)


@dataclass(frozen=True)
class TMRStats:
    """Voter observations for one scan."""

    #: number of output elements on which the replicas disagreed
    disagreements: int
    #: per-replica checksum verdicts (all True when ``checksum=False``)
    checks_ok: tuple[bool, bool, bool]

    @property
    def unanimous(self) -> bool:
        return self.disagreements == 0

    @property
    def flagged(self) -> bool:
        """True when the voter or any replica checksum raised a flag."""
        return self.disagreements > 0 or not all(self.checks_ok)


class TMRTreeScanCircuit:
    """Three tree scan replicas behind a bitwise majority voter.

    Faults address replicas through :class:`repro.faults.CircuitFault`'s
    ``replica`` field (0, 1 or 2); the single shared ``injector`` is
    consulted by all three replicas, each filtering on its own id.  With
    ``checksum=True`` every replica also runs the streaming checksum
    check of :class:`~repro.hardware.ChecksumTreeScanCircuit`.
    """

    def __init__(self, n_leaves: int, width: int, op: int, *,
                 injector=None, checksum: bool = False) -> None:
        self.n = n_leaves
        self.width = width
        self.op = op
        self.checksum = checksum
        if checksum:
            self.replicas = [ChecksumTreeScanCircuit(n_leaves, width, op)
                             for _ in range(3)]
            for r, c in enumerate(self.replicas):
                c.circuit.replica_id = r
                c.record_detections = False  # the voter classifies instead
        else:
            self.replicas = [TreeScanCircuit(n_leaves, width, op,
                                             replica_id=r)
                             for r in range(3)]
        self.injector = injector

    @property
    def injector(self):
        return self._injector

    @injector.setter
    def injector(self, value) -> None:
        self._injector = value
        for c in self.replicas:
            if self.checksum:
                c.circuit.injector = value
            else:
                c.injector = value

    def scan(self, values) -> tuple[np.ndarray, int, TMRStats]:
        """One voted scan: ``(voted_results, cycles, stats)``.

        A masked fault (vote disagreement with a correct majority) is
        recorded in the injector's fault counters; a failed per-replica
        checksum records a detection.
        """
        outs = []
        checks = []
        for c in self.replicas:
            if self.checksum:
                out, _, ok = c.scan(values)
            else:
                out, _ = c.scan(values)
                ok = True
            outs.append(np.asarray(out, dtype=np.int64))
            checks.append(bool(ok))
        a, b, c3 = outs
        voted = (a & b) | (a & c3) | (b & c3)
        disagreements = int(np.count_nonzero((a != b) | (a != c3)))
        if self._injector is not None:
            # one ledger entry per scan: a fault the vote out-voted is
            # masked; a checksum flag with unanimous replicas is a detection
            if disagreements:
                self._injector.counters.bump("masked")
            elif not all(checks):
                self._injector.counters.bump("detected")
        cycles = tmr_scan_cycles(self.n, self.width, checksum=self.checksum)
        return voted, cycles, TMRStats(disagreements=disagreements,
                                       checks_ok=tuple(checks))

    # --- hardware inventory -------------------------------------------- #

    def num_state_machines(self) -> int:
        return 3 * self.replicas[0].num_state_machines()

    def total_shift_register_bits(self) -> int:
        return 3 * self.replicas[0].total_shift_register_bits()