"""Seeded fault-injection campaigns over the scan circuits and machine.

A campaign answers the quantitative question behind the detection lattice:
*of all single-bit flips, how many does each scheme catch?*  Every trial
draws one uniformly random flip (:func:`~repro.faults.random_tree_fault_plan`)
from its own seed, runs one scan under the chosen protection scheme, and
classifies the outcome against a fault-free golden run:

========== ================= =======================================
outcome    output correct?   checker flagged?
========== ================= =======================================
no_effect  yes               no   (the flip landed on dead state)
masked     yes               yes  (TMR out-voted it / false alarm)
detected   no                yes  (wrong result, but *known* wrong)
silent     no                no   (wrong result, trusted — the bad case)
========== ================= =======================================

``coverage = 1 - silent/trials`` is the headline number; the acceptance
bar is >= 99% for the ``tmr+checksum`` scheme.  Campaigns are replayable:
the same ``base_seed`` always produces the same trial list.

:func:`run_machine_campaign` exercises the recovery layer instead: a
checked :class:`~repro.machine.Machine` whose injector corrupts scan
outputs, verifying that every injected fault is detected and retried away
and that the fault ledger reconciles.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import scans
from ..hardware.selfcheck import ChecksumTreeScanCircuit
from ..hardware.tmr import TMRTreeScanCircuit
from ..hardware.tree import MAX, PLUS, TreeScanCircuit
from ..machine.counters import FaultCounters
from ..machine.model import Machine
from .plan import FaultInjector, FaultPlan, PrimitiveFault, random_tree_fault_plan

__all__ = ["CIRCUIT_SCHEMES", "CampaignResult", "MachineCampaignResult",
           "run_circuit_campaign", "run_machine_campaign"]

#: protection schemes a circuit campaign can exercise, cheapest first
CIRCUIT_SCHEMES = ("unchecked", "checksum", "tmr", "tmr+checksum")


@dataclass
class CampaignResult:
    """Tally of one circuit fault-injection campaign."""

    scheme: str
    trials: int
    no_effect: int = 0
    masked: int = 0
    detected: int = 0
    silent: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of trials that did *not* end in a silently wrong
        result (correct-or-flagged)."""
        if self.trials == 0:
            return 1.0
        return 1.0 - self.silent / self.trials

    def row(self) -> str:
        return (f"{self.scheme:<14} {self.trials:>7} {self.no_effect:>10} "
                f"{self.masked:>7} {self.detected:>9} {self.silent:>7} "
                f"{100.0 * self.coverage:>9.1f}%")

    @staticmethod
    def header() -> str:
        return (f"{'scheme':<14} {'trials':>7} {'no_effect':>10} "
                f"{'masked':>7} {'detected':>9} {'silent':>7} "
                f"{'coverage':>10}")


def _build(scheme: str, n_leaves: int, width: int, op: int, injector):
    if scheme == "unchecked":
        return TreeScanCircuit(n_leaves, width, op, injector=injector)
    if scheme == "checksum":
        return ChecksumTreeScanCircuit(n_leaves, width, op, injector=injector)
    if scheme == "tmr":
        return TMRTreeScanCircuit(n_leaves, width, op, injector=injector)
    if scheme == "tmr+checksum":
        return TMRTreeScanCircuit(n_leaves, width, op, injector=injector,
                                  checksum=True)
    raise ValueError(f"unknown scheme {scheme!r}; "
                     f"expected one of {CIRCUIT_SCHEMES}")


def run_circuit_campaign(scheme: str, *, n_leaves: int = 8, width: int = 8,
                         trials: int = 200, op: int = PLUS,
                         base_seed: int = 0) -> CampaignResult:
    """Inject one random single-bit flip per trial into a scan circuit
    protected by ``scheme`` and classify every outcome.

    TMR schemes aim each trial's fault at replica ``seed % 3``, so the
    campaign exercises all three copies.  Deterministic in ``base_seed``.
    """
    result = CampaignResult(scheme=scheme, trials=trials)
    golden_circuit = TreeScanCircuit(n_leaves, width, op)
    tmr = scheme.startswith("tmr")
    for t in range(trials):
        seed = base_seed + t
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 1 << width, size=n_leaves)
        golden, _ = golden_circuit.scan(vals)

        replica = seed % 3 if tmr else 0
        plan = random_tree_fault_plan(seed, n_leaves=n_leaves, width=width,
                                     replica=replica)
        injector = FaultInjector(plan)
        circuit = _build(scheme, n_leaves, width, op, injector)
        if scheme == "unchecked":
            out, _ = circuit.scan(vals)
            flagged = False
        elif scheme == "checksum":
            out, _, ok = circuit.scan(vals)
            flagged = not ok
        else:
            out, _, stats = circuit.scan(vals)
            flagged = stats.flagged
        correct = bool(np.array_equal(np.asarray(out), golden))

        if correct and not flagged:
            result.no_effect += 1
        elif correct:
            result.masked += 1
        elif flagged:
            result.detected += 1
        else:
            result.silent += 1
    return result


@dataclass
class MachineCampaignResult:
    """Tally of one checked-machine recovery campaign."""

    trials: int
    correct_results: int = 0
    reconciled: int = 0
    degraded_machines: int = 0
    totals: FaultCounters = field(default_factory=FaultCounters)

    @property
    def all_correct(self) -> bool:
        return self.correct_results == self.trials

    @property
    def all_reconciled(self) -> bool:
        return self.reconciled == self.trials

    def summary(self) -> str:
        t = self.totals
        return (f"trials={self.trials} correct={self.correct_results} "
                f"reconciled={self.reconciled} "
                f"degraded_machines={self.degraded_machines} | "
                f"injected={t.injected} detected={t.detected} "
                f"retried={t.retried} corrected={t.corrected} "
                f"degraded_scans={t.degraded_scans} "
                f"undetected={t.undetected}")


def run_machine_campaign(*, trials: int = 50, n: int = 64,
                         base_seed: int = 0) -> MachineCampaignResult:
    """Recovery campaign: each trial builds a checked scan-model machine
    whose injector flips one bit in the output of its first primitive
    scan, then runs a ``plus_scan``.

    The corrupted attempt must be detected by the Section 3.4
    cross-verification and retried into a correct result, and every
    machine's fault ledger must reconcile
    (``injected == detected + masked + undetected``).
    """
    result = MachineCampaignResult(trials=trials)
    for t in range(trials):
        seed = base_seed + t
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 1 << 16, size=n)
        plan = FaultPlan(primitive_faults=(PrimitiveFault(
            op_index=0, kind="scan", element=seed % n, bit=seed % 63),),
            seed=seed)
        m = Machine("scan", reliability=True,
                    fault_injector=FaultInjector(plan))
        out = scans.plus_scan(m.vector(vals))

        expected = np.zeros(n, dtype=np.int64)
        np.cumsum(vals[:-1], out=expected[1:])
        if np.array_equal(out.data, expected):
            result.correct_results += 1
        fc = m.fault_counters
        if fc.reconciles():
            result.reconciled += 1
        if m.scan_unit_failed:
            result.degraded_machines += 1
        result.totals.absorb(fc)
    return result
