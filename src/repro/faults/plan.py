"""Deterministic fault plans and the injector that executes them.

A primitive a machine is built on must be a primitive that can be
*trusted*, and the logic-level simulators in :mod:`repro.hardware` are the
right place to measure what that trust costs.  This module provides the
seeded, replayable half of the story:

* :class:`CircuitFault` — one scheduled bit flip inside a scan circuit,
  addressed by ``(cycle, unit, field, bit)`` (and a TMR ``replica``).
* :class:`RouterFault` — a dropped or address-corrupted flit in the
  hypercube router, addressed by ``(dimension, message)``.
* :class:`PrimitiveFault` — one flipped bit in the output of a
  :class:`~repro.machine.Machine` primitive (``scan``, ``elementwise`` or
  ``permute``), addressed by the per-kind invocation index.  The injector
  attaches at the machine's single dispatch point
  (:meth:`repro.machine.Machine.execute`), so injection behaves
  identically on every execution backend (:mod:`repro.backends`).
* :class:`FaultPlan` — an immutable bundle of the above plus an optional
  seeded per-invocation corruption probability.  The same plan always
  injects the same faults: every campaign is replayable from its seed.
* :class:`FaultInjector` — the stateful executor a circuit, router or
  machine consults; it records every flip it actually applies in a
  :class:`~repro.machine.counters.FaultCounters` ledger.

Nothing here costs anything when absent: every hook in the simulators is
``if injector is None`` — with injection disabled, all step and cycle
counts are bit-identical to the unfaulted code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .._util import ceil_log2
from ..machine.counters import FaultCounters

__all__ = [
    "CIRCUIT_FIELDS",
    "SEGMENTED_FIELDS",
    "CircuitFault",
    "FaultInjector",
    "FaultPlan",
    "PrimitiveFault",
    "ReliabilityPolicy",
    "RouterFault",
    "ScanVerificationError",
    "random_tree_fault_plan",
    "tree_fifo_length",
]


class ScanVerificationError(RuntimeError):
    """A checked scan failed verification and the machine's reliability
    policy forbids degrading to the EREW fallback."""


#: flippable state in a :class:`~repro.hardware.TreeScanCircuit` unit:
#: the three flip-flops of each sum state machine (Figure 15), the left
#: carry register of the down sweep, and the FIFO bits (Figure 14).
CIRCUIT_FIELDS = (
    "up_s", "up_q1", "up_q2",
    "down_s", "down_q1", "down_q2", "down_left",
    "fifo",
)

#: flippable word-level state in a
#: :class:`~repro.hardware.SegmentedTreeScanCircuit` (its simulator is
#: sweep-level, not clocked, so faults address sweep values per unit).
SEGMENTED_FIELDS = ("seg_up", "seg_flag", "seg_stored", "seg_carry")


def tree_fifo_length(unit: int) -> int:
    """FIFO length of tree unit ``unit`` (heap index): ``2 * depth``."""
    return 2 * (int(unit).bit_length() - 1)


@dataclass(frozen=True)
class CircuitFault:
    """Flip one bit of scan-circuit state at one clock edge.

    ``field`` is one of :data:`CIRCUIT_FIELDS` (clocked tree circuit) or
    :data:`SEGMENTED_FIELDS` (word-level segmented circuit, where ``cycle``
    is ignored and ``bit`` selects the value bit).  ``bit`` indexes the
    FIFO slot for ``field="fifo"`` and is ignored for single flip-flops.
    ``replica`` addresses one copy of a TMR triple (0 for plain circuits).
    """

    cycle: int
    unit: int
    field: str
    bit: int = 0
    replica: int = 0


@dataclass(frozen=True)
class RouterFault:
    """Lose or misdirect one message at one hop of the hypercube route.

    ``kind="drop"`` deletes the flit before it is forwarded on dimension
    ``dimension``; ``kind="corrupt"`` flips address bit ``bit`` of the
    message's in-flight destination as it traverses that hop — the message
    keeps routing toward the corrupted address, ending at the wrong node
    whenever the flipped bit's dimension had not been routed yet.
    """

    dimension: int
    message: int
    kind: str = "drop"
    bit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "corrupt"):
            raise ValueError(f"router fault kind must be 'drop' or "
                             f"'corrupt', got {self.kind!r}")


@dataclass(frozen=True)
class PrimitiveFault:
    """Flip bit ``bit`` of element ``element`` in the output of the
    ``op_index``-th machine primitive of the given ``kind``.

    ``kind`` is ``"scan"``, ``"elementwise"`` or ``"permute"``; the
    invocation index counts every invocation of that kind on the machine,
    including verification and retry scans, so replays are exact.
    ``element`` is taken modulo the output length.
    """

    op_index: int
    kind: str = "scan"
    element: int = 0
    bit: int = 0


@dataclass(frozen=True)
class ReliabilityPolicy:
    """How a checked :class:`~repro.machine.Machine` responds to a scan
    that fails verification.

    ``max_retries`` bounds re-execution (each attempt re-charges the full
    primitive + verification cost); when retries are exhausted,
    ``degrade_on_failure`` selects between falling back to the EREW
    ``2⌈lg n⌉`` tree scan for the rest of the machine's life and raising
    :class:`ScanVerificationError`.
    """

    max_retries: int = 2
    degrade_on_failure: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-replayable fault campaign.

    ``probability`` adds seeded random output corruption on top of the
    scheduled faults: each machine-primitive invocation whose kind is in
    ``probability_kinds`` is corrupted (one random bit of one random
    element) with that probability, drawn from a generator seeded with
    ``seed`` — so two injectors built from the same plan flip exactly the
    same bits.
    """

    circuit_faults: tuple[CircuitFault, ...] = ()
    router_faults: tuple[RouterFault, ...] = ()
    primitive_faults: tuple[PrimitiveFault, ...] = ()
    probability: float = 0.0
    probability_kinds: tuple[str, ...] = ("scan",)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "circuit_faults", tuple(self.circuit_faults))
        object.__setattr__(self, "router_faults", tuple(self.router_faults))
        object.__setattr__(self, "primitive_faults",
                           tuple(self.primitive_faults))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], "
                             f"got {self.probability}")
        for f in self.circuit_faults:
            if f.field not in CIRCUIT_FIELDS + SEGMENTED_FIELDS:
                raise ValueError(f"unknown circuit fault field {f.field!r}; "
                                 f"expected one of {CIRCUIT_FIELDS + SEGMENTED_FIELDS}")
        for f in self.primitive_faults:
            if f.kind not in ("scan", "elementwise", "permute"):
                raise ValueError(f"unknown primitive fault kind {f.kind!r}")

    @property
    def empty(self) -> bool:
        return (not self.circuit_faults and not self.router_faults
                and not self.primitive_faults and self.probability == 0.0)


def random_tree_fault_plan(seed: int, *, n_leaves: int, width: int,
                           replica: int = 0) -> FaultPlan:
    """One uniformly random single-bit flip somewhere in one
    :class:`~repro.hardware.TreeScanCircuit` run — the unit of a
    fault-injection campaign.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    lg = ceil_log2(max(n_leaves, 2))
    total_cycles = width + 2 * lg - 2
    unit = int(rng.integers(1, n_leaves))
    fault_field = CIRCUIT_FIELDS[int(rng.integers(0, len(CIRCUIT_FIELDS)))]
    bit = 0
    if fault_field == "fifo":
        fifo_len = tree_fifo_length(unit)
        if fifo_len == 0:  # the root has no storage — flip its adder instead
            fault_field = "up_s"
        else:
            bit = int(rng.integers(0, fifo_len))
    cycle = int(rng.integers(0, total_cycles))
    return FaultPlan(circuit_faults=(CircuitFault(
        cycle=cycle, unit=unit, field=fault_field, bit=bit,
        replica=replica),), seed=seed)


class FaultInjector:
    """Executes a :class:`FaultPlan` against circuits, routers and
    machines, recording every applied flip.

    One injector holds the mutable campaign state (per-kind invocation
    counters and the probabilistic RNG); :meth:`reset` rewinds it to the
    start of the plan, after which the exact same faults replay.  Faults
    scheduled at circuit cycles are re-applied on every ``scan()`` the
    circuit runs (the flip is a property of the clock schedule, not of a
    particular run).
    """

    def __init__(self, plan: FaultPlan,
                 counters: Optional[FaultCounters] = None) -> None:
        self.plan = plan
        self.counters = counters if counters is not None else FaultCounters()
        self._circuit_by_cycle: dict[tuple[int, int], list[CircuitFault]] = {}
        self._segmented: list[CircuitFault] = []
        for f in plan.circuit_faults:
            if f.field in SEGMENTED_FIELDS:
                self._segmented.append(f)
            else:
                self._circuit_by_cycle.setdefault(
                    (f.replica, f.cycle), []).append(f)
        self._router_by_hop = {(f.dimension, f.message): f
                               for f in plan.router_faults}
        self._primitive_by_key: dict[tuple[str, int], list[PrimitiveFault]] = {}
        for f in plan.primitive_faults:
            self._primitive_by_key.setdefault((f.kind, f.op_index), []).append(f)
        self.reset()

    # ------------------------------------------------------------------ #
    # Replay control
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Rewind to the start of the plan (invocation counters and the
        probabilistic RNG); the injected-fault ledger is *not* cleared."""
        self._rng = np.random.default_rng(self.plan.seed)
        self._op_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Circuit-level faults (consumed by repro.hardware)
    # ------------------------------------------------------------------ #

    def circuit_faults_at(self, cycle: int,
                          replica: int = 0) -> Sequence[CircuitFault]:
        """Flips scheduled for this clock edge of this replica."""
        return self._circuit_by_cycle.get((replica, cycle), ())

    def segmented_faults(self) -> Sequence[CircuitFault]:
        """Word-level flips for the segmented tree circuit."""
        return self._segmented

    # ------------------------------------------------------------------ #
    # Router faults
    # ------------------------------------------------------------------ #

    def router_fault_at(self, dimension: int,
                        message: int) -> Optional[RouterFault]:
        return self._router_by_hop.get((dimension, message))

    # ------------------------------------------------------------------ #
    # Machine-primitive output corruption
    # ------------------------------------------------------------------ #

    def corrupt_primitive(self, kind: str, out: np.ndarray) -> np.ndarray:
        """Possibly flip bits in the output of one machine primitive.

        Consumes one invocation index of ``kind``; returns the (possibly
        copied-and-corrupted) array.  The fast path — nothing scheduled,
        zero probability — returns ``out`` untouched.
        """
        idx = self._op_counts.get(kind, 0)
        self._op_counts[kind] = idx + 1
        scheduled = self._primitive_by_key.get((kind, idx), ())
        p = self.plan.probability if kind in self.plan.probability_kinds else 0.0
        random_hit = p > 0.0 and len(out) > 0 and self._rng.random() < p
        if not scheduled and not random_hit:
            return out
        out = out.copy()
        for f in scheduled:
            if len(out) == 0:
                continue
            _flip_bit(out, f.element % len(out), f.bit)
            self.counters.bump("injected")
        if random_hit:
            e = int(self._rng.integers(0, len(out)))
            bit = int(self._rng.integers(0, 8 * out.dtype.itemsize))
            _flip_bit(out, e, bit)
            self.counters.bump("injected")
        return out


def _flip_bit(arr: np.ndarray, element: int, bit: int) -> None:
    """Flip one physical bit of ``arr[element]`` in place, for any dtype
    (bools flip their truth value; ints and floats flip the raw bit
    pattern, exactly what a storage fault does)."""
    if arr.dtype == np.bool_:
        arr[element] = not arr[element]
        return
    raw = arr.view(np.uint8).reshape(len(arr), arr.dtype.itemsize)
    byte, bit_in_byte = divmod(bit % (8 * arr.dtype.itemsize), 8)
    raw[element, byte] ^= np.uint8(1 << bit_in_byte)
