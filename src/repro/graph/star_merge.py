"""Star merging (Section 2.3.3, Figure 7): contract disjoint stars of
vertices into single vertices while maintaining the segmented graph
representation, in O(1) program steps for ``m`` edges.

A *star* is a parent vertex plus child vertices, each child joined to the
parent by a marked *star edge*.  The paper's four phases:

1. **Open space** — each child passes its segment length across its star
   edge; a segmented ``+-distribute`` sizes each parent's new segment and a
   ``+-scan`` allocates it (we keep the parent's own star end too, so the
   cross-pointers stay a valid involution until the deletion phase).
2. **Permute the children in** — each child learns its offset in the parent
   segment across the star edge, distributes it over its own slots, adds
   its within-segment index, and one global permute moves everything.
3. **Update cross-pointers** — each slot sends its new position to the
   other end of its edge.
4. **Delete internal edges** — edges whose two ends now share a segment
   (the star edges themselves, plus any edge between merged vertices) are
   packed away and the pointers updated once more.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import scans, segmented
from ..core.vector import Vector
from .segmented_graph import SegmentedGraph

__all__ = ["random_mate", "star_merge", "StarMergeResult"]


@dataclass
class StarMergeResult:
    """Outcome of one star-merge step.

    Attributes
    ----------
    graph:
        The merged graph (may have zero slots if everything contracted).
    merged_pairs:
        ``(k, 2)`` array of ``(child_rep, parent_rep)`` original-vertex ids,
        one row per child merged this step — the merge-forest edges used by
        connected components.
    retired_reps:
        Original-vertex ids of parent vertices whose segments emptied (their
        component is fully contracted).
    """

    graph: SegmentedGraph
    merged_pairs: np.ndarray
    retired_reps: np.ndarray


def _validate_star(g: SegmentedGraph, star_edge: Vector, parent: Vector) -> None:
    sf = g.seg_flags.data
    cp = g.cross_pointers.data
    star = star_edge.data
    par = parent.data
    if len(star) != g.num_slots:
        raise ValueError("star_edge must be a per-slot flag vector")
    if len(par) != g.num_vertices:
        raise ValueError("parent must be a per-vertex flag vector")
    seg_id = np.cumsum(sf) - 1
    par_slot = par[seg_id]
    # star flags agree across edge ends
    if not np.array_equal(star[cp], star):
        raise ValueError("star edge flags must mark both ends of each star edge")
    # star edges join a child end to a parent end
    if (par_slot[cp] == par_slot)[star].any():
        raise ValueError("a star edge joins two parents or two children")
    # each child has exactly one star edge
    child_star = star & ~par_slot
    per_vertex = np.bincount(seg_id[child_star], minlength=g.num_vertices)
    child_vertices = ~par
    if not np.array_equal(per_vertex[child_vertices], np.ones(child_vertices.sum())):
        raise ValueError("every child vertex needs exactly one star edge")
    if per_vertex[par].any():
        raise ValueError("a parent vertex is marked as the child end of a star edge")


def star_merge(g: SegmentedGraph, star_edge: Vector, parent: Vector,
               *, validate: bool = True) -> StarMergeResult:
    """Merge every star in ``g`` in O(1) program steps (see module doc)."""
    if validate:
        _validate_star(g, star_edge, parent)

    seg = g.seg_flags
    cp = g.cross_pointers
    parent_slot = g.vertex_to_slots(parent)
    child_slot = ~parent_slot

    # ---- phase 1: open space ------------------------------------------ #
    deg = g.slot_degrees()
    deg_other = deg.permute(cp)  # the other end's vertex degree
    needed = (parent_slot & star_edge).where(deg_other + 1, 1)
    masked = parent_slot.where(needed, 0)
    base = scans.plus_scan(masked)
    total = scans.plus_reduce(masked)

    # ---- phase 2: route every slot to its new position ----------------- #
    # parent slots: non-star keep their cell; star slots sit after their
    # child's block.  child slots: the parent's base crosses the star edge,
    # is spread over the child's segment, and the within-segment index
    # finishes the address.
    new_pos_parent = star_edge.where(base + deg_other, base)
    base_across = base.permute(cp)
    child_claim = (child_slot & star_edge).where(base_across, -1)
    child_base = segmented.seg_max_distribute(child_claim, seg)
    child_new = child_base + segmented.seg_index(seg)
    new_pos = parent_slot.where(new_pos_parent, child_new)

    # the merged vertex id (the parent's old segment id) rides along so the
    # new segment flags can be read off neighbor changes
    vid = g.slot_vertex_ids()
    vid_across = vid.permute(cp)
    child_pvid = segmented.seg_max_distribute(
        (child_slot & star_edge).where(vid_across, -1), seg)
    pvid = parent_slot.where(vid, child_pvid)

    new_vid = pvid.permute(new_pos, length=total)
    moved_data = {k: v.permute(new_pos, length=total) for k, v in g.slot_data.items()}

    # ---- phase 3: update the cross-pointers ---------------------------- #
    other_new = new_pos.permute(cp)
    cp_new = other_new.permute(new_pos, length=total)

    # ---- phase 4: delete intra-segment edges --------------------------- #
    other_vid = new_vid.permute(cp_new)
    merged = g.compact(other_vid != new_vid, cp_new, new_vid, moved_data)

    # ---- host-side bookkeeping (uncharged) ------------------------------ #
    seg_id = np.cumsum(seg.data) - 1
    child_star_mask = star_edge.data & ~parent.data[seg_id]
    child_vids = seg_id[child_star_mask]
    parent_vids = seg_id[cp.data[child_star_mask]]
    merged_pairs = np.column_stack(
        (g.vertex_reps[child_vids], g.vertex_reps[parent_vids])
    ) if child_vids.size else np.empty((0, 2), dtype=np.int64)

    parent_reps = g.vertex_reps[np.flatnonzero(parent.data)]
    retired = parent_reps[~np.isin(parent_reps, merged.vertex_reps)]
    return StarMergeResult(graph=merged, merged_pairs=merged_pairs,
                           retired_reps=retired)


def random_mate(g: SegmentedGraph, key: Vector
                ) -> tuple[Vector, StarMergeResult | None]:
    """One random-mate star round (Section 2.3.3), as the minimum spanning
    tree and connected components run it: every vertex flips a coin to be
    a parent or a child, each child's minimum-``key`` slot becomes a star
    edge if its other end is a parent, vertices that found no star act as
    parents, and every star merges.  ``key`` must be unique within each
    vertex.  Returns the child ends of the star edges and the merge, which
    is ``None`` when no child found a parent (unlucky coins).  O(1)
    program steps plus the merge's."""
    m = g.machine
    nv = g.num_vertices
    m.charge_elementwise(nv)
    coin_parent = Vector(m, m.rng.integers(0, 2, size=nv).astype(bool))
    candidate = key == segmented.seg_min_distribute(key, g.seg_flags)
    parent_slot = g.vertex_to_slots(coin_parent)
    other_is_parent = parent_slot.permute(g.cross_pointers)
    child_star = candidate & ~parent_slot & other_is_parent
    has_star = g.slots_to_vertex(
        segmented.seg_or_distribute(child_star, g.seg_flags))
    merging_parent = coin_parent | ~has_star
    if not child_star.data.any():
        return child_star, None
    star = child_star | child_star.permute(g.cross_pointers)
    return child_star, star_merge(g, star, merging_parent, validate=False)
