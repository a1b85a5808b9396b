"""Deterministic chaos: scripted worker failures for testing recovery.

The supervision machinery in :mod:`repro.cluster.pool` is only trustworthy
if every recovery path runs in tests, and worker failures do not happen on
cue — unless we make them.  A :class:`ChaosPlan` is the distributed
sibling of :class:`repro.faults.plan.FaultPlan`: a frozen, seeded,
replayable script of *which worker misbehaves at which distributed op, in
which phase, and how*.  The same plan always produces the same kills,
hangs, and corruptions, so chaos tests assert exact ledger counts instead
of flaky distributions.

Directives travel *inside* the op command and are executed by the worker
itself (``os._exit`` for a kill, a sleep past the deadline for a hang, a
bit-flip after the checksum for a corruption) — the failure is real from
the supervisor's point of view, not simulated at the call site.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["ChaosAction", "ChaosPlan", "ChaosState", "CHAOS_KINDS"]

#: failure modes a chaos action can script
CHAOS_KINDS = ("kill", "hang", "corrupt")


@dataclass(frozen=True)
class ChaosAction:
    """One scripted misbehavior.

    ``op_id`` counts the backend's *distributed* ops from 0 (local
    fallbacks don't advance it); ``worker`` is the pool slot index;
    ``phase`` is 1 (the shard's carry, no output written) or 2 (the
shard's scan with its incoming carry, written once).  A non-``sticky``
    action fires once — the retried shard then succeeds, which is what
    lets tests distinguish "recovered by retry" from "degraded".
    """

    op_id: int
    worker: int
    kind: str
    phase: int = 1
    sticky: bool = False
    seconds: Optional[float] = None  #: hang duration (defaults to policy deadline + margin)

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of {CHAOS_KINDS}")
        if self.phase not in (1, 2):
            raise ValueError(f"chaos phase must be 1 or 2, got {self.phase}")
        if self.op_id < 0 or self.worker < 0:
            raise ValueError("op_id and worker must be non-negative")


@dataclass(frozen=True)
class ChaosPlan:
    """A replayable failure script plus an optional random kill rate.

    ``kill_probability`` adds seeded random kills on top of the scripted
    actions (each phase-1 dispatch rolls once); with the same seed the
    same dispatches die, so even "random" chaos is replayable.
    """

    actions: Tuple[ChaosAction, ...] = ()
    kill_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ValueError("kill_probability must be within [0, 1]")
        object.__setattr__(self, "actions", tuple(self.actions))


class ChaosState:
    """Mutable replay cursor over a :class:`ChaosPlan`.

    Owned by the backend (one per pool attachment); tracks which one-shot
    actions have fired and carries the seeded RNG for random kills.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._fired: set[ChaosAction] = set()
        self._rng = random.Random(plan.seed)
        self.injected = 0

    def directive(self, op_id: int, worker: int, phase: int):
        """The directive (if any) to attach to this dispatch.

        Returns ``None`` or a ``(kind, seconds)`` pair ready to ship in
        the op command.  Scripted actions match exactly; the random-kill
        roll only applies to phase 1 (a phase-2 retry reruns the same
        idempotent command, a path the scripted phase-2 actions cover).
        """
        for action in self.plan.actions:
            if (action.op_id, action.worker, action.phase) != (op_id, worker, phase):
                continue
            if not action.sticky and action in self._fired:
                continue
            self._fired.add(action)
            self.injected += 1
            return (action.kind, action.seconds)
        if (self.plan.kill_probability > 0.0 and phase == 1
                and self._rng.random() < self.plan.kill_probability):
            self.injected += 1
            return ("kill", None)
        return None
