"""Maximum flow on the scan model (Table 1's last row).

Table 1 lists maximum flow at O(n² lg n) on the pure P-RAMs and O(n²) on
the scan model: whatever the pulse structure of the flow algorithm, each
pulse's vertex-local work — finding admissible arcs, summing arriving
flow, taking the minimum neighbor height — is a segmented operation, so
scans turn every O(lg n) pulse into O(1).

This module implements Goldberg–Tarjan **push–relabel** with that pulse
structure, on the segmented graph representation:

* each arc of the (symmetric) residual network is one slot, and its
  reverse arc is the slot's cross-pointer, so skew symmetry is a permute;
* a pulse lets every active vertex either push its excess along one
  admissible arc (lowest arc id — one segmented min-distribute picks it)
  or relabel to ``1 + min`` over residual arcs (another distribute);
* the flow arriving at each vertex is collected by permuting the push
  amounts across the cross-pointers and one segmented +-distribute.

Every pulse is O(1) program steps on the scan model and O(lg n) on EREW.
Undirected capacities (each edge usable in both directions) keep the
representation symmetric; the result is validated against a serial Dinic
on the equivalent directed network.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import segmented
from ..core.vector import Vector
from ..graph.build import from_edges
from ..machine.model import Machine

__all__ = ["max_flow", "MaxFlowResult"]

_INF = np.iinfo(np.int64).max // 4


@dataclass
class MaxFlowResult:
    """``value`` — the maximum s-t flow; ``pulses`` — push/relabel rounds."""

    value: int
    pulses: int


def max_flow(machine: Machine, n_vertices: int, edges, capacities,
             source: int, sink: int, *, max_pulses: int | None = None
             ) -> MaxFlowResult:
    """Maximum flow between ``source`` and ``sink`` where each undirected
    edge may carry up to its capacity in either direction."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    capacities = np.asarray(capacities, dtype=np.int64)
    if len(capacities) != len(edges):
        raise ValueError("capacities must match edges")
    if (capacities < 0).any():
        raise ValueError("capacities must be non-negative")
    if source == sink:
        raise ValueError("source and sink must differ")
    n = n_vertices

    g = from_edges(machine, n, edges, weights=capacities)
    ns = g.num_slots
    sf = g.seg_flags
    cp = g.cross_pointers.data
    seg_id = np.cumsum(sf.data) - 1
    slot_vertex = g.vertex_reps[seg_id]  # dense ids == original here
    other_vertex = slot_vertex[cp]
    cap = g.slot_data["weight"].data.astype(np.int64)

    # slot s carries the arc slot_vertex[s] -> other_vertex[s]; skew
    # symmetry: flow[s] == -flow[cp[s]]
    flow = np.zeros(ns, dtype=np.int64)
    height = np.zeros(n, dtype=np.int64)
    height[source] = n
    excess = np.zeros(n, dtype=np.int64)

    # saturate the source's arcs (one elementwise step + one distribute)
    machine.charge_elementwise(ns)
    src_slots = slot_vertex == source
    flow[src_slots] = cap[src_slots]
    flow[cp[src_slots]] = -cap[src_slots]
    np.add.at(excess, other_vertex[src_slots], cap[src_slots])
    machine.charge_scan(ns)

    if max_pulses is None:
        max_pulses = 40 * n * n + 200
    pulses = 0
    slot_ids = np.arange(ns, dtype=np.int64)

    while True:
        active = (excess > 0)
        active[source] = active[sink] = False
        if not active.any():
            break
        if pulses >= max_pulses:
            raise RuntimeError(f"push-relabel exceeded {max_pulses} pulses")
        pulses += 1

        # --- per-slot state (a constant number of parallel steps) -------- #
        machine.charge_elementwise(ns)
        residual = cap - flow
        active_slot = active[slot_vertex]
        admissible = active_slot & (residual > 0) & (
            height[slot_vertex] == height[other_vertex] + 1)

        # each active vertex picks its lowest admissible slot
        machine.charge_elementwise(ns)
        pick_key = np.where(admissible, slot_ids, _INF)
        best = segmented.seg_min_distribute(
            Vector(machine, pick_key), sf).data
        chosen = admissible & (slot_ids == best)

        # push min(excess, residual) along the chosen arcs (elementwise,
        # then the arriving amounts are summed per vertex with a permute
        # across the cross-pointers + one segmented distribute)
        machine.charge_elementwise(ns)
        amount = np.where(chosen, np.minimum(excess[slot_vertex], residual), 0)
        flow = flow + amount
        # skew symmetry (a push and a counter-push on the same edge cannot
        # both be admissible, so the updates never collide): one permute
        machine.charge_block("permute", ns)
        pushed = chosen
        flow[cp[pushed]] = -flow[pushed]

        machine.charge_scan(ns)
        np.add.at(excess, slot_vertex[pushed], -amount[pushed])
        np.add.at(excess, other_vertex[pushed], amount[pushed])

        # relabel the active vertices that had nothing admissible:
        # height <- 1 + min over residual arcs (one masked distribute)
        machine.charge_elementwise(ns)
        vertex_pushed = np.zeros(n, dtype=bool)
        vertex_pushed[slot_vertex[pushed]] = True
        need_relabel = active & ~vertex_pushed
        relabel_key = np.where(residual > 0, height[other_vertex], _INF)
        min_h = segmented.seg_min_distribute(
            Vector(machine, relabel_key), sf).data
        per_vertex_min = np.full(n, _INF, dtype=np.int64)
        per_vertex_min[slot_vertex[sf.data]] = min_h[sf.data]
        machine.charge_elementwise(n)
        can = need_relabel & (per_vertex_min < _INF)
        height[can] = per_vertex_min[can] + 1
        # a trapped vertex (no residual arcs at all) can never push again
        stuck = need_relabel & ~can
        excess[stuck] = 0

    return MaxFlowResult(value=int(excess[sink]), pulses=pulses)
