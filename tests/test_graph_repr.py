"""The segmented graph representation (Section 2.3.2, Figure 6)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CapabilityError, Machine
from repro.graph import from_edges, random_connected_graph


def _m():
    return Machine("scan", seed=0)


SQUARE = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]


class TestBuild:
    def test_basic_shape(self):
        g = from_edges(_m(), 4, SQUARE)
        assert g.num_slots == 10
        assert g.num_vertices == 4
        assert g.num_edges == 5
        assert g.degrees().tolist() == [2, 3, 2, 3]
        g.validate()

    def test_edge_set_roundtrip(self):
        g = from_edges(_m(), 4, SQUARE)
        assert g.to_edge_set() == {(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)}

    def test_weights_ride_both_ends(self):
        g = from_edges(_m(), 4, SQUARE, weights=[5, 1, 7, 3, 2])
        g.validate()  # validates weight symmetry across cross-pointers
        cp = g.cross_pointers.data
        w = g.slot_data["weight"].data
        assert np.array_equal(w[cp], w)

    def test_figure6_style_graph(self):
        """A 5-vertex graph with the paper's segment structure: degrees
        (1, 3, 3, 2, 3) over 6 edges = 12 slots."""
        edges = [(0, 1), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]
        g = from_edges(_m(), 5, edges)
        assert g.num_slots == 12
        assert g.degrees().tolist() == [1, 3, 3, 2, 3]
        g.validate()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="elf-loop"):
            from_edges(_m(), 2, [(0, 0), (0, 1)])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError, match="degree"):
            from_edges(_m(), 3, [(0, 1)])

    def test_rejects_no_edges(self):
        with pytest.raises(ValueError):
            from_edges(_m(), 2, np.empty((0, 2), dtype=int))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            from_edges(_m(), 2, [(0, 5)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        edges, weights = random_connected_graph(rng, n, int(rng.integers(0, 30)))
        g = from_edges(_m(), n, edges, weights=weights)
        g.validate()
        assert g.num_vertices == n
        assert g.to_edge_set() == {tuple(sorted(e)) for e in edges.tolist()}

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    def test_random_graph_draws_match_per_vertex_form(self, seed, n):
        """The tree-attach draw is one vectorised ``integers`` call; it
        must give the per-vertex loop's graph and leave the stream where
        that loop did, so the extra edges and weights drawn after it (and
        every baseline built from this helper) stay the same."""
        def per_vertex(rng, n_vertices, extra_edges):
            order = rng.permutation(n_vertices)
            attach = np.array([order[rng.integers(0, i + 1)]
                               for i in range(n_vertices - 1)])
            edge_set = {(min(int(a), int(b)), max(int(a), int(b)))
                        for a, b in zip(attach, order[1:])}
            tries = 0
            while (len(edge_set) < n_vertices - 1 + extra_edges
                   and tries < 50 * (extra_edges + 1)):
                u, v = rng.integers(0, n_vertices, size=2)
                tries += 1
                if u != v:
                    edge_set.add((min(int(u), int(v)), max(int(u), int(v))))
            edges = np.array(sorted(edge_set), dtype=np.int64)
            weights = rng.permutation(len(edges)) * 7 + rng.integers(1, 7)
            return edges, weights.astype(np.int64)

        extra = n // 2 + 1
        edges, weights = random_connected_graph(
            np.random.default_rng(seed), n, extra)
        want_edges, want_weights = per_vertex(
            np.random.default_rng(seed), n, extra)
        assert np.array_equal(edges, want_edges)
        assert np.array_equal(weights, want_weights)


class TestChargedOperations:
    def test_neighbor_sum_of_ones_is_degree(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        out = g.neighbor_reduce(m.vector([1, 1, 1, 1]), "sum")
        assert out.to_list() == [2, 3, 2, 3]

    def test_neighbor_sum_values(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        out = g.neighbor_reduce(m.vector([1, 10, 100, 1000]), "sum")
        # v0 ~ {1,3}; v1 ~ {0,2,3}; v2 ~ {1,3}; v3 ~ {0,1,2}
        assert out.to_list() == [1010, 1101, 1010, 111]

    def test_neighbor_min_max(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        vals = m.vector([4, 9, 2, 7])
        assert g.neighbor_reduce(vals, "min").to_list() == [7, 2, 7, 2]
        assert g.neighbor_reduce(vals, "max").to_list() == [9, 7, 9, 9]

    def test_neighbor_sum_is_constant_steps(self):
        """The paper's showcase: O(1) steps independent of graph size."""
        steps = []
        for n in (32, 256):
            m = _m()
            rng = np.random.default_rng(1)
            edges, _ = random_connected_graph(rng, n, n)
            g = from_edges(m, n, edges)
            with m.measure() as r:
                g.neighbor_reduce(m.vector(np.ones(n, dtype=np.int64)), "sum")
            steps.append(r.delta.steps)
        assert steps[0] == steps[1]

    def test_across_edges_roundtrip(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        v = m.vector(np.arange(g.num_slots))
        out = g.across_edges(g.across_edges(v))
        assert out.to_list() == v.to_list()

    def test_vertex_to_slots_and_back(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        per_vertex = m.vector([10, 20, 30, 40])
        per_slot = g.vertex_to_slots(per_vertex)
        assert g.slots_to_vertex(per_slot).to_list() == [10, 20, 30, 40]

    def test_vertex_to_slots_length_checked(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        with pytest.raises(ValueError):
            g.vertex_to_slots(m.vector([1, 2]))


class TestSubgraph:
    def test_remove_one_vertex(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        sub = g.subgraph(m.flags([1, 0, 1, 1]))
        sub.validate()
        assert sub.num_vertices == 3
        # surviving edges: (2,3), (3,0)
        assert len(sub.to_edge_set()) == 2
        assert set(sub.vertex_reps.tolist()) == {0, 2, 3}

    def test_remove_all(self):
        m = _m()
        g = from_edges(m, 4, SQUARE)
        sub = g.subgraph(m.flags([0, 0, 0, 0]))
        assert sub.num_slots == 0
        assert sub.num_vertices == 0

    def test_vertex_losing_all_edges_disappears(self):
        m = _m()
        g = from_edges(m, 3, [(0, 1), (1, 2)])
        sub = g.subgraph(m.flags([1, 0, 1]))  # drop the middle vertex
        assert sub.num_slots == 0  # 0 and 2 had edges only through 1
