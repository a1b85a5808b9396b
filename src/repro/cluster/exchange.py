"""Round-efficient exclusive carry exchange across shards.

After phase 1 every shard ``i`` holds a carry ``c_i`` (its local sum, max,
or segmented carry pair).  Phase 2 needs the *exclusive* prefix combination
``e_i = c_0 ⊕ … ⊕ c_{i-1}`` — exactly the ``MPI_Exscan`` collective whose
round complexity Träff's exclusive-prefix-sums paper drives down to the
⌈lg p⌉ lower bound (see PAPERS.md).  We run the exchange on the supervisor
over the already-collected carries, but keep Träff's *schedule*: a
distance-doubling sweep that finishes in ⌈lg p⌉ combining rounds rather
than the p−1 rounds of a serial fold, so the round count we charge to the
histogram (``cluster.carry_rounds``) is the one a real message-passing
machine would pay.

The doubling recurrence computes the *inclusive* prefix; the exclusive
result is read off by shifting through the identity, which is how Träff
derives Exscan from Scan without an extra communication round.  The
combine is any associative monoid; the distributed scans pass the carry
monoids of :mod:`repro.backends.carry` (``carry.monoid``): wrapping ``+``,
max (``np.maximum``, which propagates NaN), and the segmented
``(value, has_head)`` pairs of the segmented sum and of the segmented
max / min (min combines with ``np.fmin``, which passes over NaN).
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["exclusive_exchange", "exchange_rounds"]


def exchange_rounds(shards: int) -> int:
    """Combining rounds of the doubling schedule: ⌈lg p⌉ (0 for p ≤ 1)."""
    return max(0, math.ceil(math.log2(shards))) if shards > 1 else 0


def exclusive_exchange(carries: Sequence, combine: Callable, identity):
    """Exclusive prefix combination of per-shard carries.

    Returns ``(exclusive, rounds)`` where ``exclusive[i]`` is the fold of
    every carry strictly left of shard ``i`` (``identity`` for shard 0)
    and ``rounds`` is the number of combining rounds the doubling schedule
    used.  ``combine(a, b)`` must treat ``a`` as preceding ``b``.
    """
    p = len(carries)
    if p == 0:
        return [], 0
    inclusive = list(carries)
    rounds = 0
    dist = 1
    while dist < p:
        # one Träff round: every rank i >= dist folds in rank i-dist's
        # prefix; ranks below dist are already complete
        inclusive = [
            inclusive[i] if i < dist
            else combine(inclusive[i - dist], inclusive[i])
            for i in range(p)
        ]
        rounds += 1
        dist <<= 1
    exclusive = [identity] + inclusive[:-1]
    return exclusive, rounds
