"""List ranking by pointer jumping (Wyllie), plus a work-efficient
contraction variant (Table 5).

A linked list is given as a vector of successor indices (``-1`` terminates a
list; several disjoint lists may coexist).  Pointer jumping squares the
successor function ``ceil(lg n)`` times; every round reads each element's
current successor — and because the successor function of a disjoint union
of simple lists is injective, those reads hit *distinct* cells, so the
algorithm is EREW-legal and costs O(lg n) program steps with n processors.

Table 5's point is that the n-processor version does O(n lg n) work while an
O(n / lg n)-processor version can do O(n): :func:`list_rank_sampled`
randomly splices out an independent set of nodes, recurses on the shorter
list, and reinserts — geometric shrinkage gives O(n) expected work under the
long-vector cost model.
"""
from __future__ import annotations

import numpy as np

from .._util import ceil_log2
from ..core.vector import Vector

__all__ = ["list_rank", "list_rank_and_tail", "list_rank_sampled"]


def _charged_jump_round(m, n: int) -> None:
    """One pointer-jumping round: read successor's rank and successor's
    successor (two unique-index gathers) and add (one elementwise step)."""
    m.charge_block("gather", n)
    m.charge_block("gather", n)
    m.charge_elementwise(n)


def list_rank(next_: Vector) -> Vector:
    """Distance from each element to the end of its list.

    The last element of a list (``next == -1``) has rank 0; its predecessor
    rank 1; and so on.  O(lg n) program steps.
    """
    rank, _ = list_rank_and_tail(next_)
    return rank


def list_rank_and_tail(next_: Vector) -> tuple[Vector, Vector]:
    """Rank each element *and* report the index of its list's terminal
    element (Wyllie's algorithm computes both for free: after the pointers
    collapse, each element's last non-null pointer is the tail)."""
    m = next_.machine
    n = len(next_)
    ptr = next_.data.astype(np.int64).copy()
    if len(ptr) and (ptr.max() >= n or ptr.min() < -1):
        raise IndexError("successor indices must be in [-1, n)")
    rank = (ptr >= 0).astype(np.int64)
    tail = np.arange(n, dtype=np.int64)
    tail[ptr >= 0] = ptr[ptr >= 0]
    rounds = ceil_log2(n) if n > 1 else 0
    for _ in range(rounds):
        live = ptr >= 0
        if not live.any():
            break
        _charged_jump_round(m, n)
        nxt = ptr[live]
        rank[live] += rank[nxt]
        # tail[nxt] is either nxt's current pointer (nxt still live) or
        # nxt's already-final tail (nxt finished) — correct either way
        tail[live] = tail[nxt]
        ptr[live] = ptr[nxt]
    return Vector(m, rank), Vector(m, tail)


def list_rank_sampled(next_: Vector, *, base_size: int = 2) -> Vector:
    """Work-efficient list ranking by random splicing (Table 5).

    Each round flips a coin per live node; a node whose coin is heads and
    whose successor's coin is tails is *spliced out* (its predecessor's
    pointer skips it, accumulating its weight).  The spliced nodes form an
    independent set, so all splices commute; an expected constant fraction
    leaves each round.  The survivors are load-balanced (packed) and the
    process recurses; spliced nodes are then reinserted level by level.

    With ``p = n / lg n`` processors under the long-vector cost model this
    does O(n) work in O(lg n) rounds, versus O(n lg n) for plain pointer
    jumping.
    """
    m = next_.machine
    n = len(next_)
    if n == 0:
        return Vector(m, np.empty(0, dtype=np.int64))

    ptr = next_.data.astype(np.int64).copy()
    weight = np.ones(n, dtype=np.int64)  # weight of the link *leaving* each node
    alive = np.ones(n, dtype=bool)
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # splice only while the survivors overfill the machine; once one
    # element per processor remains, plain pointer jumping is optimal
    p_eff = m.num_processors if m.num_processors is not None else n
    threshold = max(base_size, p_eff)
    live_count = n
    while live_count > threshold:
        # one parallel round: coin flip, predecessor lookup, splice (a
        # constant number of elementwise steps, gathers and one pack)
        m.charge_elementwise(live_count)
        coins = m.rng.integers(0, 2, size=n).astype(bool) & alive
        # a node is spliced if heads and its successor is tails (or no succ)
        succ_ok = np.ones(n, dtype=bool)
        has_succ = alive & (ptr >= 0)
        if not has_succ.any():
            break  # every live node is already a list tail; nothing to rank
        succ_ok[has_succ] = ~coins[ptr[has_succ]]
        m.charge_block("gather", live_count)
        spliced = coins & succ_ok & has_succ  # keep list tails in place
        if spliced.any():
            # predecessors of spliced nodes skip over them
            pred = np.full(n, -1, dtype=np.int64)
            valid = alive & (ptr >= 0)
            pred[ptr[valid]] = np.flatnonzero(valid)
            m.charge_block("permute", live_count)
            sp = np.flatnonzero(spliced)
            has_pred = pred[sp] >= 0
            pw = sp[has_pred]
            m.charge_elementwise(live_count)
            weight_save = weight[sp].copy()
            ptr_save = ptr[sp].copy()
            weight[pred[pw]] += weight[pw]
            ptr[pred[pw]] = ptr[pw]
            alive[sp] = False
            levels.append((sp, ptr_save, weight_save))
        # load balance the survivors (a pack over the live elements)
        m.charge_scan(live_count)
        m.charge_block("permute", live_count)
        live_count = int(alive.sum())
        if not spliced.any() and live_count <= base_size * 4:
            break

    # rank the small remainder by pointer jumping (cheap: O(lg base) steps)
    rank = np.zeros(n, dtype=np.int64)
    live_idx = np.flatnonzero(alive)
    sub_next = np.full(len(live_idx), -1, dtype=np.int64)
    remap = np.full(n, -1, dtype=np.int64)
    remap[live_idx] = np.arange(len(live_idx))
    has = ptr[live_idx] >= 0
    sub_next[has] = remap[ptr[live_idx][has]]
    sub_weight = weight[live_idx]
    sub_rank = _weighted_jump(m, sub_next, sub_weight)
    rank[live_idx] = sub_rank

    # reinsert spliced levels in reverse order (each level touches only its
    # spliced nodes plus the already-ranked frontier: charge the level size)
    for sp, ptr_save, weight_save in reversed(levels):
        m.charge_block("gather", len(sp))
        m.charge_elementwise(len(sp))
        succ_rank = np.where(ptr_save >= 0, rank[np.clip(ptr_save, 0, n - 1)], 0)
        rank[sp] = succ_rank + weight_save * (ptr_save >= 0)
    return Vector(m, rank)


def _weighted_jump(m, ptr: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Weighted Wyllie ranking on a small list (host helper with charges)."""
    n = len(ptr)
    # invariant: rank[i] is the weighted distance from i to ptr[i]; adding
    # the successor's rank and doubling the pointer preserves it.
    rank = np.where(ptr >= 0, weight, 0).astype(np.int64)
    ptr = ptr.copy()
    rounds = ceil_log2(n) if n > 1 else 0
    for _ in range(rounds):
        live = ptr >= 0
        if not live.any():
            break
        _charged_jump_round(m, n)
        nxt = ptr[live]
        rank[live] += rank[nxt]
        ptr[live] = ptr[nxt]
    return rank
