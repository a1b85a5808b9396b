"""Step accounting for simulated P-RAM machines.

The paper measures algorithms in *program steps* (its replacement for "unit
time"): one step is one primitive vector operation executed by all
processors.  :class:`StepCounter` accumulates those charges, broken down by
primitive kind, so benchmarks can report both totals and profiles
(e.g. "how many scans did the MST use?").
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..observe.metrics import Ledger

__all__ = ["FaultCounters", "ForkCounters", "StepCounter", "StepSnapshot"]


@dataclass
class FaultCounters(Ledger):
    """Bookkeeping for the fault-tolerance layer (:mod:`repro.faults`).

    ``injected`` is bumped by a :class:`~repro.faults.FaultInjector`
    each time it actually flips a bit; the remaining counters are bumped
    by whichever detection/recovery mechanism observed the fault.  The
    ledger always reconciles:
    ``injected == detected + masked + undetected``
    (``undetected`` is the derived remainder — faults nothing noticed,
    including flips that never reached an output).
    """

    prefix = "faults"

    injected: int = 0
    #: verification failures observed (checksum mismatch, self-check
    #: mismatch, delivery-receipt mismatch)
    detected: int = 0
    #: faults corrected *without* detection reaching the consumer (a TMR
    #: vote out-voting a bad replica)
    masked: int = 0
    #: retry attempts issued after a detection
    retried: int = 0
    #: detected faults whose retry produced a verified result
    corrected: int = 0
    #: primitive scans served by the degraded EREW fallback path
    degraded_scans: int = 0

    @property
    def undetected(self) -> int:
        """Injected faults no mechanism flagged or out-voted."""
        return self.injected - self.detected - self.masked

    def reconciles(self) -> bool:
        """``injected == detected + masked + undetected`` with every term
        non-negative (a detection ledger gone wrong shows up here as a
        negative remainder: more detections than injections)."""
        terms = (self.injected, self.detected, self.masked, self.retried,
                 self.corrected, self.degraded_scans, self.undetected)
        return all(t >= 0 for t in terms)


@dataclass
class ForkCounters(Ledger):
    """Spawn/sync/revoke ledger for the binary-forking model.

    Launching one primitive over ``p`` leaves forks a binary tree —
    ``p - 1`` spawns on the way down, ``p - 1`` syncs (joins) on the way
    back up — so a machine at quiescence always reconciles exactly:
    ``spawned == synced`` and no thread is ``live``.  ``revoked`` counts
    test-and-set reservation attempts that lost their race and must be
    re-forked in a later round (the retry currency of the BFGS random
    permutation); revokes never unbalance the ledger because the losing
    thread still joins.
    """

    prefix = "fork"

    spawned: int = 0
    synced: int = 0
    revoked: int = 0

    @property
    def live(self) -> int:
        """Threads forked but not yet joined (0 at every quiescent point)."""
        return self.spawned - self.synced

    def reconciles(self) -> bool:
        """``spawned == synced`` with every column non-negative — the
        ledger-style exactness the fault counters also promise."""
        return (self.spawned >= 0 and self.revoked >= 0
                and self.spawned == self.synced)


@dataclass(frozen=True)
class StepSnapshot:
    """An immutable point-in-time reading of a :class:`StepCounter`.

    ``backend`` names the execution engine that computed the charged
    primitives when the snapshot came from
    :meth:`repro.machine.Machine.snapshot` (``None`` when taken directly
    from a bare counter, which has no engine to name); ``fusion`` records
    the machine's lazy-fusion setting the same way.  Both are labels, not
    measurements: charges are identical whatever engine or fusion mode
    computed them.
    """

    steps: int
    by_kind: dict[str, int]
    ops: int
    backend: str | None = None
    fusion: bool | None = None

    @property
    def degraded(self) -> bool:
        """True when any charge in this reading came from the degraded
        EREW scan fallback (see :mod:`repro.faults`): a machine whose scan
        unit hard-failed charges its scans under the ``scan_degraded``
        kind, so the regime is visible in every snapshot and trace."""
        return bool(self.by_kind.get("scan_degraded"))

    def __sub__(self, other: "StepSnapshot") -> "StepSnapshot":
        kinds = Counter(self.by_kind)
        kinds.subtract(other.by_kind)
        return StepSnapshot(
            steps=self.steps - other.steps,
            by_kind={k: v for k, v in kinds.items() if v},
            ops=self.ops - other.ops,
            backend=self.backend,
            fusion=self.fusion,
        )


@dataclass
class StepCounter:
    """Accumulates program-step charges.

    ``steps`` is the paper's step complexity; ``ops`` counts primitive
    invocations regardless of their per-model cost (useful to verify that the
    *same* algorithm issues the same primitives on every model and only the
    charging differs).  ``listeners`` receive every ``(kind, cost)`` charge —
    the hook a :class:`~repro.observe.spans.Profiler` attaches to.
    """

    steps: int = 0
    ops: int = 0
    by_kind: Counter = field(default_factory=Counter)
    listeners: list = field(default_factory=list)

    def charge(self, kind: str, cost: int, times: int = 1) -> None:
        """Charge ``times`` primitives of ``kind`` costing ``cost`` steps
        each: the totals move once, and listeners still receive one
        ``(kind, cost)`` event per primitive, in order."""
        if cost < 0:
            raise ValueError(f"negative step charge for {kind!r}: {cost}")
        self.steps += cost * times
        self.ops += times
        self.by_kind[kind] += cost * times
        if self.listeners:
            for _ in range(times):
                for listener in self.listeners:
                    listener(kind, cost)

    def reset(self) -> None:
        self.steps = 0
        self.ops = 0
        self.by_kind.clear()

    def snapshot(self, backend: str | None = None,
                 fusion: bool | None = None) -> StepSnapshot:
        return StepSnapshot(steps=self.steps, by_kind=dict(self.by_kind),
                            ops=self.ops, backend=backend, fusion=fusion)

    @contextmanager
    def measure(self):
        """Context manager yielding a mutable holder whose ``.delta`` is the
        :class:`StepSnapshot` of charges made inside the block."""
        before = self.snapshot()

        class _Holder:
            delta: StepSnapshot | None = None

        holder = _Holder()
        try:
            yield holder
        finally:
            holder.delta = self.snapshot() - before
