"""Treefix operations: per-vertex tree quantities in O(lg n) steps.

The paper points at its companion work [7]: "by keeping trees in a
particular form, we can similarly reduce the step complexity of many tree
operations … by O(lg n)".  The particular form is the **Euler tour** of
the tree laid out as a vector: build the segmented graph of the tree
(radix sort), link each arrival slot to its successor around the tour
(O(1) segmented steps), list-rank the tour (O(lg n) exclusive pointer
jumping), and permute the directed edges into tour order.  Every classic
tree quantity then falls out of one ``+-scan`` over the tour:

* **depth**      — scan of +1 on down edges, −1 on up edges;
* **preorder**   — scan of +1 on down edges;
* **postorder**  — scan of +1 on up edges;
* **subtree size / subtree sum** — difference of the scan between a
  vertex's down-edge and up-edge positions.

All communication is exclusive (the tour successor is a permutation), so
the whole construction is scan-model pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.vector import Vector
from ..graph.build import from_edges
from ..machine.model import Machine
from .list_ranking import list_rank

__all__ = ["RootedTree", "build_rooted_tree", "root_tree_edges"]


@dataclass
class RootedTree:
    """A rooted tree prepared for treefix operations.

    ``down_pos[v]`` / ``up_pos[v]`` are the tour positions of the edge
    entering / leaving vertex ``v``'s subtree (−1 for the root, whose
    subtree is the whole tour).  ``down_vertex[p]`` names the vertex whose
    down edge sits at tour position ``p`` (−1 if position ``p`` holds an
    up edge).
    """

    machine: Machine
    n: int
    root: int
    parent: np.ndarray
    tour_len: int
    down_pos: np.ndarray
    up_pos: np.ndarray
    down_vertex: np.ndarray
    is_down: np.ndarray

    # ------------------------------------------------------------------ #

    def _tour_scan(self, per_position: np.ndarray) -> np.ndarray:
        """Exclusive ``+-scan`` over the tour (one primitive scan)."""
        v = Vector(self.machine, per_position)
        from ..core import scans

        return scans.plus_scan(v).data

    def depths(self) -> np.ndarray:
        """Depth of every vertex (root = 0); one scan + O(1) steps."""
        self.machine.charge_elementwise(self.tour_len)
        contrib = np.where(self.is_down, 1, -1).astype(np.int64)
        ex = self._tour_scan(contrib)
        self.machine.charge_block("gather", self.n)
        out = np.zeros(self.n, dtype=np.int64)
        nonroot = self.down_pos >= 0
        out[nonroot] = ex[self.down_pos[nonroot]] + 1
        return out

    def preorder(self) -> np.ndarray:
        """Preorder number of every vertex (root = 0)."""
        self.machine.charge_elementwise(self.tour_len)
        ex = self._tour_scan(self.is_down.astype(np.int64))
        self.machine.charge_block("gather", self.n)
        out = np.zeros(self.n, dtype=np.int64)
        nonroot = self.down_pos >= 0
        out[nonroot] = ex[self.down_pos[nonroot]] + 1
        return out

    def postorder(self) -> np.ndarray:
        """Postorder number of every vertex (root = n − 1)."""
        self.machine.charge_elementwise(self.tour_len)
        ex = self._tour_scan((~self.is_down).astype(np.int64))
        self.machine.charge_block("gather", self.n)
        out = np.full(self.n, self.n - 1, dtype=np.int64)
        nonroot = self.up_pos >= 0
        out[nonroot] = ex[self.up_pos[nonroot]]
        return out

    def subtree_sizes(self) -> np.ndarray:
        """Number of vertices in each vertex's subtree (itself included)."""
        self.machine.charge_elementwise(self.tour_len)
        ex = self._tour_scan(self.is_down.astype(np.int64))
        self.machine.charge_block("gather", self.n)
        self.machine.charge_elementwise(self.n)
        out = np.full(self.n, self.n, dtype=np.int64)
        nonroot = self.down_pos >= 0
        # down edges strictly inside (down, up] count the proper subtree
        closing = ex[self.up_pos[nonroot]]
        opening = ex[self.down_pos[nonroot]]
        out[nonroot] = closing - opening
        return out

    def subtree_sums(self, values) -> np.ndarray:
        """Sum of ``values`` over each vertex's subtree (one scan)."""
        values = np.asarray(values, dtype=np.int64)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values")
        self.machine.charge_block("permute", self.tour_len)
        contrib = np.zeros(self.tour_len, dtype=np.int64)
        mask = self.down_vertex >= 0
        contrib[mask] = values[self.down_vertex[mask]]
        ex = self._tour_scan(contrib)
        self.machine.charge_block("gather", self.n)
        self.machine.charge_elementwise(self.n)
        out = np.full(self.n, values.sum(), dtype=np.int64)
        nonroot = self.down_pos >= 0
        # the exclusive scan at the up edge includes every down contribution
        # inside the subtree (the vertex's own down edge included), so the
        # difference against the scan at the down edge is the subtree sum
        out[nonroot] = ex[self.up_pos[nonroot]] - ex[self.down_pos[nonroot]]
        return out

    def subtree_min(self, values) -> np.ndarray:
        """Minimum of ``values`` over each subtree (itself included)."""
        return self._subtree_extreme(values, is_min=True)

    def subtree_max(self, values) -> np.ndarray:
        """Maximum of ``values`` over each subtree (itself included)."""
        return self._subtree_extreme(values, is_min=False)

    def _subtree_extreme(self, values, *, is_min: bool) -> np.ndarray:
        """Subtree min/max by a doubling (sparse) table over the tour.

        Min has no inverse, so the one-scan difference trick of
        ``subtree_sums`` does not apply; instead ``lg L`` rounds of
        shifted elementwise min build windows of every power-of-two width
        (each round an exclusive shifted gather — EREW-legal), and each
        vertex reads the two windows covering its tour interval.  The two
        final reads may collide between nested subtrees, so they are
        charged as a concurrent read where the model has one and as a
        sort-simulated read (an extra ``2 lg n`` factor on that single
        step) otherwise — which leaves the total at O(lg n) on both the
        scan model and EREW.
        """
        from .._util import ceil_log2

        values = np.asarray(values, dtype=np.int64)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values")
        if self.n == 1:
            return values.copy()
        ident = np.iinfo(np.int64).max if is_min else np.iinfo(np.int64).min
        combine = np.minimum if is_min else np.maximum
        L = self.tour_len
        m = self.machine

        m.charge_block("permute", L)
        base = np.full(L, ident, dtype=np.int64)
        mask = self.down_vertex >= 0
        base[mask] = values[self.down_vertex[mask]]

        tables = [base]
        k_max = ceil_log2(L)
        for k in range(1, k_max + 1):
            m.charge_block("gather", L)
            m.charge_elementwise(L)
            prev = tables[-1]
            shift = 1 << (k - 1)
            shifted = np.full(L, ident, dtype=np.int64)
            shifted[: L - shift] = prev[shift:]
            tables.append(combine(prev, shifted))

        # per-vertex range query [down, up] (the root spans the whole tour)
        a = np.where(self.down_pos >= 0, self.down_pos, 0)
        b = np.where(self.up_pos >= 0, self.up_pos, L - 1)
        width = b - a + 1
        k = np.array([int(w).bit_length() - 1 for w in width], dtype=np.int64)
        if self.machine.capabilities.concurrent_read:
            m.charge_block("gather", self.n)
            m.charge_block("gather", self.n)
        else:
            # simulate the concurrent read by sorting the requests
            for _ in range(2 * ceil_log2(max(self.n, 2))):
                m.charge_elementwise(self.n)
        stacked = np.stack(tables)
        left = stacked[k, a]
        right = stacked[k, b - (1 << k) + 1]
        return combine(left, right)

    def path_sums(self, values) -> np.ndarray:
        """Rootfix: for each vertex, the sum of ``values`` over its
        root-to-vertex path, itself included (one scan)."""
        values = np.asarray(values, dtype=np.int64)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values")
        self.machine.charge_block("permute", self.tour_len)
        contrib = np.zeros(self.tour_len, dtype=np.int64)
        mask = self.down_vertex >= 0
        contrib[mask] = values[self.down_vertex[mask]]
        up_mask = ~self.is_down
        # leaving a subtree cancels its root's contribution
        up_vertex = np.full(self.tour_len, -1, dtype=np.int64)
        nonroot = np.flatnonzero(self.down_pos >= 0)
        up_vertex[self.up_pos[nonroot]] = nonroot
        contrib[up_mask] = -values[np.maximum(up_vertex[up_mask], 0)]
        ex = self._tour_scan(contrib)
        self.machine.charge_block("gather", self.n)
        self.machine.charge_elementwise(self.n)
        # at v's down edge the scan holds the sum over v's strict ancestors
        # *below the root*; add the root's value and v's own
        out = np.empty(self.n, dtype=np.int64)
        nr = self.down_pos >= 0
        out[nr] = (ex[self.down_pos[nr]] + values[np.flatnonzero(nr)]
                   + values[self.root])
        out[self.root] = values[self.root]
        return out


def root_tree_edges(machine: Machine, n: int, edges, root: int = 0) -> np.ndarray:
    """Orient an unrooted tree (given as an edge list) away from ``root``:
    returns the parent array, in O(lg n) program steps.

    The Euler tour needs no orientation to build — an arrival slot is a
    *down* edge exactly when it is visited before its cross-pointer — so
    the tour itself discovers the parents.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) != n - 1:
        raise ValueError(f"a tree on {n} vertices has {n - 1} edges, "
                         f"got {len(edges)}")
    if n == 1:
        return np.array([root], dtype=np.int64)
    g, vertex_of_slot, pos = _euler_tour(machine, n, edges, root)
    cp = g.cross_pointers.data
    ns = g.num_slots
    machine.charge_block("gather", ns)
    is_down_slot = pos < pos[cp]  # first visit of the edge

    parent = np.full(n, -1, dtype=np.int64)
    machine.charge_block("permute", ns)
    parent[vertex_of_slot[is_down_slot]] = vertex_of_slot[cp[is_down_slot]]
    parent[root] = root
    if (parent < 0).any():
        raise ValueError("edge list is not a single connected tree")
    return parent


def build_rooted_tree(machine: Machine, parent) -> RootedTree:
    """Prepare a rooted tree (``parent[root] == root``) for treefix
    operations: O(lg n) program steps (radix-sort build + tour ranking)."""
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    roots = np.flatnonzero(parent == np.arange(n))
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    root = int(roots[0])
    if n == 1:
        return RootedTree(machine=machine, n=1, root=root, parent=parent,
                          tour_len=0,
                          down_pos=np.array([-1]), up_pos=np.array([-1]),
                          down_vertex=np.empty(0, dtype=np.int64),
                          is_down=np.empty(0, dtype=bool))

    child = np.flatnonzero(parent != np.arange(n))
    edges = np.column_stack((child, parent[child]))
    g, vertex_of_slot, pos = _euler_tour(machine, n, edges, root)
    cp = g.cross_pointers.data
    ns = g.num_slots
    machine.charge_elementwise(ns)  # the tour's root-head test

    # each slot is an *arrival*: a down edge iff the arriving vertex's
    # parent sits at the other end
    machine.charge_block("gather", ns)
    other_vertex = vertex_of_slot[cp]
    is_down_slot = parent[vertex_of_slot] == other_vertex

    down_pos = np.full(n, -1, dtype=np.int64)
    up_pos = np.full(n, -1, dtype=np.int64)
    machine.charge_block("permute", ns)
    machine.charge_block("permute", ns)
    down_pos[vertex_of_slot[is_down_slot]] = pos[is_down_slot]
    # the up edge of v arrives at parent(v) *from* v: its slot's other end
    # names v
    up_slots = ~is_down_slot
    up_pos[other_vertex[up_slots]] = pos[up_slots]
    up_pos[root] = -1

    is_down = np.zeros(ns, dtype=bool)
    down_vertex = np.full(ns, -1, dtype=np.int64)
    is_down[pos[is_down_slot]] = True
    down_vertex[pos[is_down_slot]] = vertex_of_slot[is_down_slot]

    return RootedTree(machine=machine, n=n, root=root, parent=parent,
                      tour_len=ns, down_pos=down_pos, up_pos=up_pos,
                      down_vertex=down_vertex, is_down=is_down)


def _euler_tour(machine: Machine, n: int, edges: np.ndarray, root: int):
    """Lay out the tree on ``n`` vertices given by ``edges`` as its Euler
    tour from ``root``.  Returns the segmented graph, each slot's vertex,
    and each slot's tour position (radix-sort build, O(1) successor,
    O(lg n) list ranking)."""
    g = from_edges(machine, n, edges)
    sf = g.seg_flags.data
    ns = g.num_slots
    succ = g.euler_successor()

    # the canonical tour starts with the root's first departure — the down
    # edge arriving at its first child, i.e. the cross-pointer of the
    # root's head slot; break the cycle just before that arrival
    vertex_of_slot = g.vertex_reps[np.cumsum(sf) - 1]
    h_r = int(np.flatnonzero(sf & (vertex_of_slot == root))[0])
    start_flag = np.zeros(ns, dtype=bool)
    start_flag[g.cross_pointers.data[h_r]] = True
    machine.charge_block("gather", ns)
    nxt = np.where(start_flag[succ], -1, succ)

    # tour positions via list ranking (distance to the tour's end)
    rank = list_rank(Vector(machine, nxt)).data
    machine.charge_elementwise(ns)
    return g, vertex_of_slot, (ns - 1) - rank
