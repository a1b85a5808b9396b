"""The undirected segmented graph representation (Section 2.3.2, Figure 6).

A graph lives in a single segmented vector: one segment per vertex, one
element ("slot") per edge end.  Since each undirected edge is incident on
two vertices it occupies two slots, and the *cross-pointers* vector holds,
at each slot, the index of the edge's other slot (an involution).  Edge
weights and other per-edge payloads ride in parallel slot vectors.

The representation's payoff is that per-vertex reductions over incident
edges — "each vertex sums a value from all neighbors" — become segmented
scan operations: O(1) program steps on the scan model instead of the
O(lg n) of a P-RAM tree (the paper's neighbor-summing example).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import ops, segmented
from ..core.vector import Vector
from ..machine.model import Machine

__all__ = ["SegmentedGraph"]


@dataclass
class SegmentedGraph:
    """A graph in the segmented representation.

    Attributes
    ----------
    machine:
        The machine all vectors live on.
    seg_flags:
        Boolean slot vector; ``True`` marks the first slot of each vertex.
    cross_pointers:
        Integer slot vector; ``cross_pointers[s]`` is the slot of the other
        end of the edge at slot ``s`` (``cp[cp[s]] == s``).
    slot_data:
        Named per-slot payload vectors (``"weight"``, ``"edge_id"``, …);
        both slots of an edge carry equal payloads.
    vertex_reps:
        Host-side bookkeeping: for each current vertex (segment), the id of
        the original vertex that represents it.  Star-merging contracts
        vertices, and benchmarks/tests use this to interpret results; it is
        never read by charged operations.
    """

    machine: Machine
    seg_flags: Vector
    cross_pointers: Vector
    slot_data: dict[str, Vector] = field(default_factory=dict)
    vertex_reps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #

    @property
    def num_slots(self) -> int:
        return len(self.seg_flags)

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently represented (vertices of degree 0
        are not representable and have already been retired)."""
        return int(np.count_nonzero(self.seg_flags.data))

    @property
    def num_edges(self) -> int:
        return self.num_slots // 2

    def degrees(self) -> np.ndarray:
        """Per-vertex degree (host-side view; no steps charged)."""
        return segmented.segment_lengths(self.seg_flags)

    # ------------------------------------------------------------------ #
    # Charged graph operations
    # ------------------------------------------------------------------ #

    def slot_degrees(self) -> Vector:
        """Each slot receives its vertex's degree (one segmented distribute)."""
        ones = Vector(self.machine, np.ones(self.num_slots, dtype=np.int64))
        self.machine.charge_elementwise(self.num_slots)
        return segmented.seg_plus_distribute(ones, self.seg_flags)

    def slot_vertex_ids(self) -> Vector:
        """Each slot receives its vertex's (current, dense) id."""
        return segmented.segment_ids(self.seg_flags)

    def vertex_to_slots(self, per_vertex: Vector) -> Vector:
        """Distribute a per-vertex value to every slot of that vertex:
        permute the values to the segment heads, then a segmented copy.
        O(1) program steps."""
        if len(per_vertex) != self.num_vertices:
            raise ValueError(
                f"expected {self.num_vertices} per-vertex values, got {len(per_vertex)}"
            )
        m = self.machine
        heads = np.flatnonzero(self.seg_flags.data)
        head_index = Vector(m, heads.astype(np.int64))
        at_heads = per_vertex.permute(head_index, length=self.num_slots)
        return segmented.seg_copy(at_heads, self.seg_flags)

    def slots_to_vertex(self, per_slot: Vector) -> Vector:
        """Collect the value at each vertex's head slot into a dense
        per-vertex vector (one pack)."""
        return ops.pack(per_slot, self.seg_flags)

    def across_edges(self, per_slot: Vector) -> Vector:
        """Send each slot's value to the other end of its edge (one permute
        through the cross-pointers — they are a permutation)."""
        return per_slot.permute(self.cross_pointers)

    def neighbor_reduce(self, per_vertex: Vector, op: str = "sum") -> Vector:
        """Each vertex combines a value from all its neighbors — the
        paper's showcase O(1) operation: distribute over edges, cross,
        reduce within segments, read heads."""
        over_edges = self.vertex_to_slots(per_vertex)
        arrived = self.across_edges(over_edges)
        if op == "sum":
            reduced = segmented.seg_plus_distribute(arrived, self.seg_flags)
        elif op == "min":
            reduced = segmented.seg_min_distribute(arrived, self.seg_flags)
        elif op == "max":
            reduced = segmented.seg_max_distribute(arrived, self.seg_flags)
        else:
            raise ValueError(f"unknown neighbor reduce op {op!r}")
        return self.slots_to_vertex(reduced)

    def euler_successor(self) -> np.ndarray:
        """The Euler-tour successor of every slot: leave through the next
        slot of my segment (cyclically) and arrive at its other end.  The
        slot index is copied from each head and a length distributed over
        each segment, so it costs O(1) program steps, and the successor is
        a permutation, so every later read of it is exclusive."""
        m = self.machine
        ns = self.num_slots
        idx = np.arange(ns, dtype=np.int64)
        head_pos = segmented.seg_copy(Vector(m, idx), self.seg_flags).data
        seg_len = segmented.seg_plus_distribute(
            Vector(m, np.ones(ns, dtype=np.int64)), self.seg_flags).data
        m.charge_elementwise(ns)
        last = idx - head_pos + 1 == seg_len
        nxt_in_seg = np.where(last, head_pos, idx + 1)
        m.charge_block("gather", ns)  # the cross-pointers at unique indices
        return self.cross_pointers.data[nxt_in_seg]

    def subgraph(self, keep_vertex: Vector) -> "SegmentedGraph":
        """Delete the vertices whose flag is ``False`` (and every edge
        touching them), keeping the representation intact — the shrink step
        of the maximal-independent-set loop.  O(1) program steps (one
        :meth:`compact`, as in star-merge's deletion phase).

        Vertices that keep no edges disappear from the representation (the
        caller tracks them through ``vertex_reps``).
        """
        if len(keep_vertex) != self.num_vertices:
            raise ValueError("keep_vertex must be a per-vertex flag vector")
        keep_slot_self = self.vertex_to_slots(keep_vertex)
        keep_slot = keep_slot_self & keep_slot_self.permute(self.cross_pointers)
        return self.compact(keep_slot, self.cross_pointers,
                            self.slot_vertex_ids(), self.slot_data)

    def compact(self, keep: Vector, cross_pointers: Vector, vid: Vector,
                slot_data: dict[str, Vector]) -> "SegmentedGraph":
        """Pack the slots flagged ``keep`` into a new graph in O(1) program
        steps.  ``keep`` must agree across the two ends of every edge, the
        slot vectors are laid out like ``keep``, and ``vid`` names each
        slot's vertex in this graph (equal ids contiguous).  Each kept slot
        reads where its partner lands, the slots are packed, and a segment
        begins wherever the packed vertex id changes.  Vertices left with
        no slot disappear."""
        m = self.machine
        final_idx = ops.enumerate_(keep)
        if ops.count(keep) == 0:
            return SegmentedGraph(
                machine=m,
                seg_flags=Vector(m, np.empty(0, dtype=bool)),
                cross_pointers=Vector(m, np.empty(0, dtype=np.int64)),
                slot_data={k: Vector(m, np.empty(0, dtype=v.dtype))
                           for k, v in slot_data.items()},
                vertex_reps=np.empty(0, dtype=np.int64),
            )
        cp_routed = final_idx.gather(cross_pointers)  # where my partner lands
        final_cp = ops.pack(cp_routed, keep)
        final_vid = ops.pack(vid, keep)
        final_data = {k: ops.pack(v, keep) for k, v in slot_data.items()}
        sf = segmented.seg_flag_from_neighbor_change(final_vid)
        return SegmentedGraph(
            machine=m,
            seg_flags=sf,
            cross_pointers=final_cp,
            slot_data=final_data,
            vertex_reps=self.vertex_reps[final_vid.data[sf.data]],
        )

    # ------------------------------------------------------------------ #
    # Validation (host-side; used by tests)
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the structural invariants of the representation."""
        n = self.num_slots
        cp = self.cross_pointers.data
        sf = self.seg_flags.data
        if len(cp) != n:
            raise AssertionError("cross-pointer length mismatch")
        if n == 0:
            return
        if not sf[0]:
            raise AssertionError("first slot must start a segment")
        if n % 2 != 0:
            raise AssertionError("odd number of slots")
        if not np.array_equal(np.sort(cp), np.arange(n)):
            raise AssertionError("cross-pointers are not a permutation")
        if not np.array_equal(cp[cp], np.arange(n)):
            raise AssertionError("cross-pointers are not an involution")
        if (cp == np.arange(n)).any():
            raise AssertionError("a slot points at itself")
        seg_id = np.cumsum(sf) - 1
        if (seg_id[cp] == seg_id).any():
            raise AssertionError("a self-loop (intra-segment edge) is present")
        for name, vec in self.slot_data.items():
            if len(vec) != n:
                raise AssertionError(f"slot_data[{name!r}] length mismatch")
            if not np.array_equal(vec.data[cp], vec.data):
                raise AssertionError(f"slot_data[{name!r}] differs across edge ends")
        if len(self.vertex_reps) != self.num_vertices:
            raise AssertionError("vertex_reps length mismatch")

    def to_edge_set(self) -> set[tuple[int, int]]:
        """The multiset-free set of current edges as (min_rep, max_rep)
        pairs of *current vertex indices* (host-side; for tests)."""
        seg_id = np.cumsum(self.seg_flags.data) - 1
        cp = self.cross_pointers.data
        a = seg_id
        b = seg_id[cp]
        return {(int(min(x, y)), int(max(x, y))) for x, y in zip(a, b)}
