"""List contraction by priority-local-minimum splicing (binary-forking).

Pointer jumping (:mod:`~repro.algorithms.list_ranking`) ranks a list in
O(lg n) steps but O(n lg n) work.  The BFGS list-contraction scheme
(PAPERS.md) is the work-optimal alternative the binary-forking model was
built around: give every node a random priority, and in each round splice
out the *interior* nodes that are strict priority local minima among
interior nodes.  No two spliced nodes are ever adjacent, so every pointer
read and write in a round is unique — the rounds are EREW-legal and run on
all five models unchanged.  A splice folds the node's skip distance into
its predecessor; replaying the rounds in reverse then assigns every node
its rank (distance from the head) in O(1) steps per round.

Expected O(lg n) rounds: each interior node is a local min with
probability ≥ 1/3 in a uniformly random priority order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._util import indices_distinct
from ..machine.model import Machine

__all__ = ["ContractionResult", "list_contraction", "serial_list_ranks"]


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of :func:`list_contraction`: ``ranks[i]`` is node ``i``'s
    distance from the head of the list; ``rounds`` the number of splice
    rounds (the replay adds the same number again)."""

    ranks: np.ndarray
    rounds: int


def _find_head(next_: np.ndarray) -> int:
    """The unique node no pointer targets (validates the chain shape)."""
    n = len(next_)
    tails = np.flatnonzero(next_ < 0)
    if len(tails) != 1:
        raise ValueError(f"expected exactly one tail (-1), got {len(tails)}")
    targets = next_[next_ >= 0]
    # range check first: the distinctness table is only n cells long
    if np.any(targets >= n) or not indices_distinct(targets, n):
        raise ValueError("next pointers must form a single chain "
                         "(each node at most one predecessor)")
    # with unique targets and one tail there is exactly one unpointed
    # node; cycles are caught by the coverage check in the serial walk
    heads = np.setdiff1d(np.arange(n), targets, assume_unique=False)
    return int(heads[0])


def serial_list_ranks(next_: np.ndarray) -> np.ndarray:
    """Walk the chain on the host: the oracle the contraction must match."""
    next_ = np.asarray(next_, dtype=np.int64)
    n = len(next_)
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ranks
    node, rank = _find_head(next_), 0
    while node >= 0:
        ranks[node] = rank
        rank += 1
        node = int(next_[node])
    if rank != n:
        raise ValueError("next pointers do not cover every node")
    return ranks


def list_contraction(
    machine: Machine,
    next_: np.ndarray,
    *,
    priorities: Optional[np.ndarray] = None,
) -> ContractionResult:
    """Rank a linked list given as successor pointers (``-1`` terminates).

    ``priorities`` defaults to a fresh random permutation of ``0..n-1``
    drawn from ``machine.rng``; pass one explicitly to replay an instance.
    """
    next_ = np.asarray(next_, dtype=np.int64).copy()
    n = len(next_)
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ContractionResult(ranks=ranks, rounds=0)
    head = _find_head(next_)
    serial_list_ranks(next_)  # validates coverage before we mutate charges
    if priorities is None:
        pri = machine.rng.permutation(n).astype(np.int64)
    else:
        pri = np.asarray(priorities, dtype=np.int64)
        if len(pri) != n or len(np.unique(pri)) != n:
            raise ValueError("priorities must be n distinct values")
    # predecessor pointers: one unique permute (in-degree is at most 1)
    srcs = np.flatnonzero(next_ >= 0).astype(np.int64)
    machine.charge_elementwise(n)
    prev = machine.execute("permute", srcs, next_[srcs], n, -1)
    machine.charge_permute(n)
    # dist[i]: current distance from i to next_[i] along the original list
    dist = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    sentinel = np.int64(n)  # larger than any priority
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while True:
        interior = alive & (prev >= 0) & (next_ >= 0)
        machine.charge_elementwise(n)
        if not interior.any():
            break
        # neighbours' priorities, with non-interior neighbours masked to
        # +inf so every maximal run of interior nodes keeps a local min
        safe_prev = np.where(interior, prev, 0)
        safe_next = np.where(interior, next_, 0)
        machine.charge_gather(n, unique=True)
        pri_prev = np.where(interior & interior[safe_prev],
                            pri[safe_prev], sentinel)
        machine.charge_gather(n, unique=True)
        pri_next = np.where(interior & interior[safe_next],
                            pri[safe_next], sentinel)
        machine.charge_elementwise(n)
        splice = interior & (pri < pri_prev) & (pri < pri_next)
        machine.charge_elementwise(n)
        nodes = np.flatnonzero(splice).astype(np.int64)
        parents = prev[nodes]
        successors = next_[nodes]
        # record dist(parent -> node) before folding for the replay
        machine.charge_gather(n, unique=True)
        parent_dist = dist[parents].copy()
        rounds.append((nodes, parents, parent_dist))
        machine.charge_elementwise(n)
        dist[parents] += dist[nodes]
        machine.charge_permute(n)
        next_[parents] = successors
        machine.charge_permute(n)
        prev[successors] = parents
        alive[nodes] = False
        prev[nodes] = -1
        next_[nodes] = -1
        machine.charge_permute(n)
    # only the head (and, for n >= 2, the tail) survive contraction
    ranks[head] = 0
    if n >= 2:
        tail = int(next_[head])
        machine.charge_elementwise(n)
        ranks[tail] = dist[head]
    # replay the rounds backwards: a spliced node sits parent_dist past
    # its parent, whose rank is already known
    for nodes, parents, parent_dist in reversed(rounds):
        machine.charge_gather(n, unique=True)
        machine.charge_elementwise(n)
        machine.charge_permute(n)
        ranks[nodes] = ranks[parents] + parent_dist
    return ContractionResult(ranks=ranks, rounds=len(rounds))
