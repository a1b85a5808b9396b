"""Building the segmented graph representation from an edge list.

The paper's recipe (Section 2.3.2): create two elements per edge (one per
end) and sort them by vertex number with the split radix sort — the vertex
numbers are integers below ``n``, so the sort costs O(lg n) program steps
and leaves each vertex's slots contiguous.  Cross-pointers fall out of the
sort permutation, because the two ends of edge ``e`` start at known
positions ``2e`` and ``2e + 1``.
"""
from __future__ import annotations

import numpy as np

from .._util import ceil_log2
from ..core.segmented import seg_flag_from_neighbor_change
from ..core.vector import Vector
from ..machine.model import Machine
from .segmented_graph import SegmentedGraph

__all__ = ["from_edges", "random_connected_graph"]


def from_edges(machine: Machine, n_vertices: int, edges, weights=None) -> SegmentedGraph:
    """Build a :class:`SegmentedGraph` from an ``(m, 2)`` edge array.

    Every vertex must have degree at least one (a vertex with no slots has
    no segment; the representation cannot express it — the paper's
    algorithms retire such vertices).  Self-loops are rejected.

    ``weights``, if given, is a length-``m`` integer vector of edge weights;
    an ``edge_id`` payload (the input edge index) is always attached.
    """
    # imported here: repro.algorithms packages the full algorithm suite,
    # parts of which import repro.graph back
    from ..algorithms.radix_sort import split_radix_sort_with_rank

    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    mcount = len(edges)
    if mcount == 0:
        raise ValueError("cannot build a segmented graph with no edges")
    if edges.min() < 0 or edges.max() >= n_vertices:
        raise ValueError("edge endpoint out of range")
    if (edges[:, 0] == edges[:, 1]).any():
        raise ValueError("self-loops are not representable")
    present = np.zeros(n_vertices, dtype=bool)
    present[edges.ravel()] = True
    if not present.all():
        missing = np.flatnonzero(~present)[:5].tolist()
        raise ValueError(
            f"every vertex needs degree >= 1; vertices {missing}... have none"
        )

    # two slots per edge: slot 2e is endpoint u_e, slot 2e+1 is endpoint v_e
    endpoint = np.empty(2 * mcount, dtype=np.int64)
    endpoint[0::2] = edges[:, 0]
    endpoint[1::2] = edges[:, 1]
    keys = Vector(machine, endpoint)

    bits = max(ceil_log2(n_vertices), 1)
    sorted_keys, rank = split_radix_sort_with_rank(keys, number_of_bits=bits)

    # rank[i] = original slot now sitting at position i.  Invert it to learn
    # each original slot's new home (one permute), then each new slot's
    # cross pointer is the new home of its original partner (one gather at
    # unique indices).
    n_slots = 2 * mcount
    new_home = machine.arange(n_slots).permute(rank)
    partner_of_rank = rank._binary(1, np.bitwise_xor)  # original partner slot
    cross = new_home.gather(partner_of_rank)

    # segment flags: a slot starts a segment where its vertex differs from
    # the previous slot's vertex
    seg_flags = seg_flag_from_neighbor_change(sorted_keys)

    slot_data: dict[str, Vector] = {}
    payloads = {"edge_id": np.arange(mcount, dtype=np.int64)}
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if len(weights) != mcount:
            raise ValueError("weights length must equal number of edges")
        payloads["weight"] = weights
    for name, per_edge in payloads.items():
        per_slot = np.repeat(per_edge, 2)
        slot_data[name] = Vector(machine, per_slot).permute(new_home)

    g = SegmentedGraph(
        machine=machine,
        seg_flags=seg_flags,
        cross_pointers=cross,
        slot_data=slot_data,
        vertex_reps=np.flatnonzero(present).astype(np.int64),
    )
    return g


def random_connected_graph(rng: np.random.Generator, n_vertices: int,
                           extra_edges: int, *, max_weight: int = 1_000_000
                           ) -> tuple[np.ndarray, np.ndarray]:
    """A random connected multigraph-free edge list with distinct weights:
    a random spanning tree plus ``extra_edges`` random non-duplicate edges.
    Returns ``(edges, weights)`` (host-side test/benchmark helper)."""
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    order = rng.permutation(n_vertices)
    tree_children = order[1:]
    # child i + 1 attaches below one of the i + 1 vertices before it: one
    # draw per bound, the same values and stream as a per-vertex loop
    attach = order[rng.integers(0, np.arange(1, n_vertices))]
    edge_set = {(min(int(a), int(b)), max(int(a), int(b)))
                for a, b in zip(attach, tree_children)}
    tries = 0
    while len(edge_set) < n_vertices - 1 + extra_edges and tries < 50 * (extra_edges + 1):
        u, v = rng.integers(0, n_vertices, size=2)
        tries += 1
        if u == v:
            continue
        edge_set.add((min(int(u), int(v)), max(int(u), int(v))))
    edges = np.array(sorted(edge_set), dtype=np.int64)
    # distinct weights make the MST unique (random-mate Sollin needs a
    # deterministic minimum per tree)
    weights = rng.permutation(len(edges)) * 7 + rng.integers(1, 7)
    return edges, weights.astype(np.int64)
