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
from ..graph.build import from_edges
from ..graph.star_merge import random_mate
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
            # each tree's minimum incident edge, keyed uniquely
            eid = g.slot_data["edge_id"]
            key = g.slot_data["weight"] * (2 * n_edges) + eid
            child_star, merge = random_mate(g, key)
            if merge is None:
                continue  # unlucky coins; try again

            # the chosen edges are MST edges (cut property); record them
            machine.charge_block("permute", g.num_slots)
            selected.append(eid.data[child_star.data].copy())
            g = merge.graph

    edge_ids = (np.unique(np.concatenate(selected))
                if selected else np.empty(0, dtype=np.int64))
    total = int(weights[edge_ids].sum()) if len(edge_ids) else 0
    return MSTResult(edge_ids=edge_ids, total_weight=total, rounds=rounds)
