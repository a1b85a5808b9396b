"""The segmented graph representation and star merging (Section 2.3.2–2.3.3).

* :class:`repro.graph.SegmentedGraph` — Figure 6's representation.
* :func:`repro.graph.from_edges` — build it from an edge list by radix sort.
* :func:`repro.graph.star_merge` — Figure 7's O(1)-step star contraction.
* :func:`repro.graph.random_mate` — one random-mate star round (Section
  2.3.3), shared by the minimum spanning tree and connected components.
"""
from .build import from_edges, random_connected_graph
from .segmented_graph import SegmentedGraph
from .star_merge import StarMergeResult, random_mate, star_merge

__all__ = [
    "SegmentedGraph",
    "StarMergeResult",
    "from_edges",
    "random_connected_graph",
    "random_mate",
    "star_merge",
]
