"""Table 3, as executable cross-reference: each example algorithm uses
exactly the scan idioms the table attributes to it, observed through the
span profiler's charge profile."""
import numpy as np
import pytest

from repro import Machine
from repro.algorithms import (
    draw_lines,
    halving_merge,
    minimum_spanning_tree,
    quicksort,
    split_radix_sort,
)
from repro.graph import random_connected_graph
from repro.observe import profile, span


def _profile(run):
    m = Machine("scan", seed=0)
    with profile(m) as p:
        run(m)
    return p.by_kind(), m


class TestSplitRadixSort:
    """Table 3: uses *splitting* (enumerate + permute per bit)."""

    def test_profile(self, rng):
        data = rng.integers(0, 256, 128)
        kinds, _ = _profile(lambda m: split_radix_sort(m.vector(data),
                                                       number_of_bits=8))
        # 8 bits x (2 enumerates + 1 permute + elementwise glue)
        assert kinds["scan"] == 16
        assert kinds["permute"] == 8 * 3  # two reversals + the split permute
        assert "combine_write" not in kinds  # EREW-pure


class TestQuicksort:
    """Table 3: splitting, distributing sums, copying, segmented
    primitives — all of them, every iteration."""

    def test_profile(self, rng):
        data = rng.permutation(256)
        kinds, _ = _profile(lambda m: quicksort(m.vector(data)))
        assert kinds["scan"] > 50          # segmented ops everywhere
        assert kinds["permute"] > 5        # the three-way splits
        assert kinds["reduce"] > 5         # sortedness checks + distributes
        assert "combine_write" not in kinds


class TestMST:
    """Table 3: distributing sums, copying, segmented primitives."""

    def test_profile(self, rng):
        edges, weights = random_connected_graph(rng, 64, 64)
        kinds, m = _profile(
            lambda mm: minimum_spanning_tree(mm, 64, edges, weights))
        assert kinds["scan"] > 20          # segmented copies + distributes
        assert kinds["permute"] > 10       # cross-pointer traffic
        assert kinds["reduce"] > 0         # the per-round totals
        assert m.concurrent_writes_used == 0


class TestLineDrawing:
    """Table 3: allocating, copying, segmented primitives."""

    def test_profile(self):
        kinds, _ = _profile(
            lambda m: draw_lines(m, [[0, 0, 30, 12], [5, 9, 25, 2]]))
        assert kinds["scan"] >= 10         # the allocation + five distributes
        assert kinds["permute"] >= 6       # values to segment heads
        assert "gather" not in kinds       # pure allocation, no reads-by-index


class TestHalvingMerge:
    """Table 3: allocating, load balancing."""

    def test_profile(self, rng):
        a = np.sort(rng.integers(0, 10**5, 128))
        b = np.sort(rng.integers(0, 10**5, 128))
        kinds, _ = _profile(lambda m: halving_merge(m.vector(a), m.vector(b)))
        assert kinds["scan"] > 20          # packs (load balancing) + allocate
        assert kinds["permute"] > 10       # the routing of evens + odds
        assert kinds["gather"] > 0         # predecessor-position lookups


class TestPhaseAttribution:
    def test_mst_phases(self, rng):
        """The profiler attributes MST's steps to its stages sensibly."""
        edges, weights = random_connected_graph(rng, 64, 64)
        m = Machine("scan", seed=0)
        from repro.graph import from_edges

        with profile(m):
            with span("build") as build:
                from_edges(m, 64, edges, weights=weights)
            with span("solve") as solve:
                minimum_spanning_tree(m, 64, edges, weights)
        assert build.steps > 0
        assert solve.steps > build.steps  # rounds dominate
