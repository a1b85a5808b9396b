"""Rootfix on a forest via Euler tours — O(lg n) program steps.

Connected components needs a final step the paper delegates to its tree
machinery [7]: given the *merge forest* (each contracted vertex points to
the vertex that absorbed it), every original vertex must learn its root.
Naive pointer jumping on parent pointers is not EREW-legal (siblings read
the same parent cell concurrently), so we do it the scan-model way:

1. build the segmented graph of the forest (radix sort: O(lg n) steps);
2. form the Euler tour as a linked list of edge slots — the successor of a
   slot is the cross-pointer of the next slot in its segment (O(1) steps,
   and the successor function is a permutation, so every later read of it
   is exclusive);
3. break each tree's tour cycle at the root's head slot, seed the terminal
   slot with the root's id, and propagate it backward along the list by
   pointer jumping (O(lg n) steps, unique gathers only).

Every slot of a tree lies on that tree's tour, so after propagation each
vertex reads its root off any of its slots.
"""
from __future__ import annotations

import numpy as np

from .._util import ceil_log2
from ..graph.build import from_edges
from ..machine.model import Machine

__all__ = ["rootfix"]


def rootfix(machine: Machine, parent: np.ndarray) -> np.ndarray:
    """Return, for each node of a forest, the id of its root.

    ``parent[v]`` is ``v``'s parent, or ``v`` itself for roots.  Charged as
    the scan-model construction described in the module docstring.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    labels = np.arange(n, dtype=np.int64)
    child = np.flatnonzero(parent != labels)
    if len(child) == 0:
        return labels
    # Compact to the nodes that participate in edges; pure roots of
    # single-node trees keep their own label.
    involved = np.unique(np.concatenate((child, parent[child])))
    remap = np.full(n, -1, dtype=np.int64)
    remap[involved] = np.arange(len(involved))
    machine.charge_elementwise(max(len(involved), 1))
    edges = np.column_stack((remap[child], remap[parent[child]]))
    g = from_edges(machine, len(involved), edges)

    sf = g.seg_flags.data
    ns = g.num_slots
    succ = g.euler_successor()

    # break each tour at its root's head slot and seed the terminal with
    # the root id
    seg_id = np.cumsum(sf) - 1
    vertex_node = g.vertex_reps  # compact-vertex -> involved index
    node_of_slot = involved[vertex_node[seg_id]]
    is_root_node = parent[node_of_slot] == node_of_slot
    machine.charge_elementwise(ns)
    root_head = sf & is_root_node
    machine.charge_block("gather", ns)
    terminal = root_head[succ]
    machine.charge_block("gather", ns)
    seed_root = node_of_slot[succ]

    lab = np.where(terminal, seed_root, -1)
    ptr = np.where(terminal, -1, succ)

    rounds = ceil_log2(ns) if ns > 1 else 0
    for _ in range(rounds + 1):
        live = ptr >= 0
        if not live.any() and (lab >= 0).all():
            break
        machine.charge_block("gather", ns)
        machine.charge_block("gather", ns)
        machine.charge_elementwise(ns)
        tgt = np.clip(ptr, 0, ns - 1)
        lab = np.where((lab < 0) & (ptr >= 0), lab[tgt], lab)
        ptr = np.where(ptr >= 0, ptr[tgt], -1)

    if (lab < 0).any():  # pragma: no cover - defensive
        raise RuntimeError("rootfix propagation did not converge")

    # every slot of a vertex carries the same root; read it off the heads
    machine.charge_block("permute", ns)
    labels[node_of_slot[sf]] = lab[sf]
    # non-head slots belong to the same vertices; also cover leaf nodes that
    # appear only as children (they have slots too, so already covered)
    labels[node_of_slot] = lab
    return labels
