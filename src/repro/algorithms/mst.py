"""Probabilistic minimum spanning tree / forest (Section 2.3.3).

Sollin/Borůvka with *random mate* star formation: every tree (a contracted
vertex of the segmented graph) flips a coin; each child tree finds its
minimum-weight incident edge with one segmented ``min-distribute``, and if
that edge leads to a parent tree it becomes a star edge.  All stars merge in
O(1) program steps (:func:`repro.graph.star_merge`).  An expected quarter of
the trees disappear each round, so O(lg n) rounds — and O(lg n) program
steps on the scan model, versus the Θ(lg² n) the same code costs under EREW
charging (Table 1's graph rows).

Ties are broken by edge id (the comparison key is ``weight · 2m + edge_id``),
which makes every tree's minimum unique; the selected edges then form a
minimum spanning forest for the original weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ceil_log2
from ..core import segmented
from ..core.vector import Vector
from ..graph.build import from_edges
from ..graph.star_merge import star_merge
from ..machine.model import Machine
from ..observe.spans import span

__all__ = ["minimum_spanning_tree", "MSTResult"]


@dataclass
class MSTResult:
    """Result of :func:`minimum_spanning_tree`.

    Attributes
    ----------
    edge_ids:
        Indices (into the input edge list) of the selected edges.
    total_weight:
        Sum of the selected edges' weights.
    rounds:
        Star-merge rounds executed.
    """

    edge_ids: np.ndarray
    total_weight: int
    rounds: int


def minimum_spanning_tree(machine: Machine, n_vertices: int, edges, weights,
                          *, max_rounds: int | None = None) -> MSTResult:
    """Compute a minimum spanning forest of an undirected weighted graph.

    Every vertex must have degree >= 1 (see
    :func:`repro.graph.from_edges`); the graph need not be connected — the
    result is then a minimum spanning forest.
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    g = from_edges(machine, n_vertices, edges, weights=weights)
    n_edges = len(edges)
    if max_rounds is None:
        max_rounds = 12 * (ceil_log2(max(n_vertices, 2)) + 2) + 20

    selected: list[np.ndarray] = []
    rounds = 0
    while g.num_slots > 0:
        if rounds >= max_rounds:
            raise RuntimeError(
                f"MST did not contract within {max_rounds} rounds "
                f"({g.num_vertices} vertices remain)"
            )
        rounds += 1
        with span(f"round[{rounds}]"):
            nv = g.num_vertices
            m = machine

            # coin flip: parent or child (one elementwise step over the
            # vertices)
            m.charge_elementwise(nv)
            coin_parent = Vector(m, m.rng.integers(0, 2, size=nv).astype(bool))

            # each tree's minimum incident edge, keyed uniquely
            w = g.slot_data["weight"]
            eid = g.slot_data["edge_id"]
            key = w * (2 * n_edges) + eid
            mn = segmented.seg_min_distribute(key, g.seg_flags)
            candidate = key == mn

            # a child's candidate edge is a star edge iff the other end is
            # a parent tree
            parent_slot = g.vertex_to_slots(coin_parent)
            other_is_parent = parent_slot.permute(g.cross_pointers)
            child_star = candidate & ~parent_slot & other_is_parent

            # trees that failed to mate stay put this round: treat as
            # parents
            has_star = g.slots_to_vertex(
                segmented.seg_or_distribute(child_star, g.seg_flags))
            merging_parent = coin_parent | ~has_star

            if not child_star.data.any():
                continue  # unlucky coins; try again

            # the chosen edges are MST edges (cut property); record them
            machine.charge_block("permute", g.num_slots)
            selected.append(eid.data[child_star.data].copy())

            star = child_star | child_star.permute(g.cross_pointers)
            result = star_merge(g, star, merging_parent, validate=False)
            g = result.graph

    edge_ids = (np.unique(np.concatenate(selected))
                if selected else np.empty(0, dtype=np.int64))
    total = int(weights[edge_ids].sum()) if len(edge_ids) else 0
    return MSTResult(edge_ids=edge_ids, total_weight=total, rounds=rounds)
