"""Connected components in O(lg n) program steps (Table 1).

Runs the same random-mate star-merge engine as the minimum spanning tree —
with the edge weight replaced by the edge id, any incident edge will do —
recording the merge forest, then resolves every original vertex's component
label with one Euler-tour rootfix (:mod:`repro.algorithms.forest`).  On the
scan model both phases are O(lg n) program steps; under EREW charging the
same code is Θ(lg² n), the paper's advertised gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ceil_log2
from ..graph.build import from_edges
from ..graph.star_merge import random_mate
from ..machine.model import Machine
from .forest import rootfix

__all__ = ["connected_components", "ComponentsResult"]


@dataclass
class ComponentsResult:
    """Labels and statistics from :func:`connected_components`.

    ``labels[v]`` is the component representative (an original vertex id) of
    vertex ``v``; two vertices are connected iff their labels agree.
    """

    labels: np.ndarray
    num_components: int
    rounds: int


def connected_components(machine: Machine, n_vertices: int, edges,
                         *, max_rounds: int | None = None) -> ComponentsResult:
    """Label the connected components of an undirected graph.

    Isolated vertices are allowed (they label themselves); self-loops are
    not (the representation cannot hold them and they never affect
    connectivity).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    parent = np.arange(n_vertices, dtype=np.int64)
    if len(edges) == 0:
        return ComponentsResult(labels=parent, num_components=n_vertices, rounds=0)

    # compact away isolated vertices so every represented vertex has degree
    # >= 1 (one enumerate-shaped step)
    present = np.zeros(n_vertices, dtype=bool)
    present[edges.ravel()] = True
    machine.charge_scan(n_vertices)
    remap = np.cumsum(present) - 1
    compact_edges = remap[edges]
    originals = np.flatnonzero(present)

    g = from_edges(machine, int(present.sum()), compact_edges)
    g.vertex_reps = originals[g.vertex_reps]
    if max_rounds is None:
        max_rounds = 12 * (ceil_log2(max(n_vertices, 2)) + 2) + 20

    rounds = 0
    while g.num_slots > 0:
        if rounds >= max_rounds:
            raise RuntimeError(f"components did not contract in {max_rounds} rounds")
        rounds += 1
        # any incident edge will do: the minimum edge id is unique
        _, merge = random_mate(g, g.slot_data["edge_id"])
        if merge is None:
            continue
        for child_rep, parent_rep in merge.merged_pairs:
            parent[child_rep] = parent_rep
        g = merge.graph

    labels = rootfix(machine, parent)
    return ComponentsResult(
        labels=labels,
        num_components=int(len(np.unique(labels))),
        rounds=rounds,
    )
