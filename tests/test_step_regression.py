"""Golden step counts: exact charges for fixed inputs.

The cost model is the instrument every benchmark reads; these pins make
any accidental change to a charge formula fail loudly and reviewably
(update the constant *with* the cost-model document, or not at all).

Scope note: this file pins *primitive and composite-operation* charges.
Whole-algorithm step totals are pinned by the golden-profile harness
(``tests/test_profile_baselines.py`` over the committed
``baselines/*.json``), which superseded the end-to-end constants that
used to live here — only algorithms without a profile workload keep an
inline pin below.
"""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import (biconnected_components, build_kd_tree,
                              build_rooted_tree, closest_pair,
                              connected_components, convex_hull,
                              minimum_spanning_tree, root_tree_edges, rootfix)
from repro.core import ops, scans, segmented
from repro.core.nested import SegmentedVector
from repro.core.vector import Vector
from repro.graph import from_edges, random_connected_graph, star_merge


def _v(model="scan", n=64):
    m = Machine(model)
    return m, m.vector(np.arange(n))


class TestPrimitivePins:
    def test_scan_charges(self):
        for model, expected in (("scan", 1), ("erew", 12), ("crcw", 12)):
            m, v = _v(model)
            scans.plus_scan(v)
            assert m.steps == expected, model

    def test_elementwise_and_permute(self):
        m, v = _v()
        _ = v + 1
        v.reverse()
        assert m.counter.by_kind == {"elementwise": 1, "permute": 1}

    def test_backward_scan(self):
        m, v = _v()
        scans.back_plus_scan(v)
        assert dict(m.counter.by_kind) == {"scan": 1, "permute": 2}

    def test_distribute(self):
        m, v = _v()
        scans.plus_distribute(v)
        assert dict(m.counter.by_kind) == {"reduce": 1, "broadcast": 1}

    def test_long_vector_scan(self):
        m = Machine("scan", num_processors=8)
        scans.plus_scan(m.vector(np.arange(64)))
        assert m.steps == 2 * 8 + 1


class TestCompositePins:
    def test_split(self):
        m, v = _v()
        ops.split(v, v.bit(0))
        assert m.steps == 11
        assert dict(m.counter.by_kind) == {
            "elementwise": 6, "scan": 2, "permute": 3}

    def test_pack(self):
        m, v = _v()
        ops.pack(v, v.bit(0))
        assert m.steps == 6  # bit + enumerate + count + permute glue

    def test_seg_plus_scan(self):
        m, v = _v()
        sf_arr = np.zeros(64, dtype=bool)
        sf_arr[::8] = True
        segmented.seg_plus_scan(v, m.flags(sf_arr))
        assert m.steps == 7  # 3 scans + 4 elementwise

    def test_seg_distribute_scan_vs_crcw(self):
        for model, expected in (("scan", 9), ("crcw", 3)):
            m = Machine(model)
            v = m.vector(np.arange(64))
            sf_arr = np.zeros(64, dtype=bool)
            sf_arr[::8] = True
            segmented.seg_plus_distribute(v, m.flags(sf_arr))
            assert m.steps == expected, model

    def test_allocate(self):
        m = Machine("scan")
        ops.allocate(m, m.vector([3, 0, 2, 5]))
        assert dict(m.counter.by_kind) == {"scan": 1, "reduce": 1, "permute": 1}


class TestAlgorithmPins:
    """Inline pins for algorithms *without* a golden-profile workload.

    Sorting, merging, line drawing, the graph algorithms, list ranking
    and tree contraction are pinned — with their full primitive mixes —
    by ``tests/test_profile_baselines.py``; re-pinning their totals here
    would just be a second constant to forget to update.
    """

    def test_visibility_is_nine_steps(self):
        from repro.algorithms import visibility
        m = Machine("scan")
        alt = m.vector(np.arange(64, dtype=float), dtype=float)
        sf_arr = np.zeros(64, dtype=bool)
        sf_arr[::16] = True
        dist = m.vector(np.arange(1.0, 65.0), dtype=float)
        with m.measure() as r:
            visibility(alt, m.flags(sf_arr), dist, 0.0)
        assert r.delta.steps == 7

    def test_big_add_is_fourteen_steps(self):
        from repro.algorithms import big_add
        m = Machine("scan")
        big_add(m, (1 << 100) - 1, 12345)
        assert m.steps == 14


# --------------------------------------------------------------------- #
# Segmented-idiom pins: every entry point built from the neighbour-change
# flags, the Euler-tour successor, slot compaction, the random-mate round
# or a backward segmented scan, pinned on all five models, with unbounded
# and with three processors.  Each pin in ``tests/idiom_pins.json`` is
# [result digest, steps, ops, by_kind]; the digest covers every array and
# scalar of the result.  The constants were taken before these idioms
# were folded into one definition each, and must not move.
# --------------------------------------------------------------------- #

_MODELS = ("erew", "crew", "crcw", "scan", "binary-forking")


def _canon(obj):
    """A repr-stable form of a result: arrays keep their dtype."""
    if isinstance(obj, Vector):
        obj = obj.data
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tolist())
    if isinstance(obj, Machine):
        return None
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, _canon(getattr(obj, f.name)))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple(sorted((k, _canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(x) for x in obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _digest(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()[:16]


_VALS = np.array([3, 3, 1, 4, 4, 4, 1, 5, 9, 9, 2, 6, 5, 5, 3, 5])
_SF = np.zeros(16, dtype=bool)
_SF[[0, 4, 5, 11]] = True
_PTS = np.array([[3, 7], [0, 0], [9, 2], [4, 4], [7, 8], [1, 9], [8, 5],
                 [2, 3], [6, 1], [5, 6], [9, 9], [0, 5], [3, 2]])


def _graph(m):
    edges, weights = random_connected_graph(np.random.default_rng(3), 10, 6)
    return from_edges(m, 10, edges, weights=weights)


def _tree_edges():
    parent = np.array([0, 0, 0, 1, 1, 2, 5, 5, 3, 6])
    child = np.arange(1, 10)
    return np.column_stack((child, parent[child])), parent


def _star(m):
    g = from_edges(m, 4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)],
                   weights=[5, 1, 7, 3, 2])
    eid = g.slot_data["edge_id"].data
    return star_merge(g, m.flags(np.isin(eid, [0, 1])), m.flags([0, 1, 0, 1]))


def _star_all(m):
    g = from_edges(m, 2, [(0, 1)])
    return star_merge(g, m.flags([True, True]), m.flags([0, 1]))


def _pack(m, keep):
    sv = SegmentedVector(m.vector(_VALS), m.flags(_SF))
    out = sv.pack(m.flags(keep))
    return out.values, out.seg_flags


def _biconnected(m):
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)]
    return biconnected_components(m, 7, edges)


IDIOM_CASES = {
    "seg_flag_from_neighbor_change": lambda m: (
        segmented.seg_flag_from_neighbor_change(m.vector(_VALS), m.flags(_SF))),
    "seg_back_plus_scan": lambda m: segmented.seg_back_plus_scan(
        m.vector(_VALS), m.flags(_SF)),
    "seg_back_max_scan": lambda m: segmented.seg_back_max_scan(
        m.vector(_VALS), m.flags(_SF)),
    "seg_back_min_scan": lambda m: segmented.seg_back_min_scan(
        m.vector(_VALS), m.flags(_SF)),
    "from_edges": _graph,
    "subgraph": lambda m: _graph(m).subgraph(
        m.flags(np.arange(10) % 3 != 0)),
    "subgraph_empty": lambda m: _graph(m).subgraph(
        m.flags(np.zeros(10, dtype=bool))),
    "star_merge": _star,
    "star_merge_all": _star_all,
    "pack": lambda m: _pack(m, _VALS % 2 == 1),
    "pack_empty": lambda m: _pack(m, np.zeros(16, dtype=bool)),
    "convex_hull": lambda m: convex_hull(m, _PTS),
    "build_kd_tree": lambda m: build_kd_tree(m, _PTS),
    "closest_pair": lambda m: closest_pair(m, _PTS),
    "rootfix": lambda m: rootfix(
        m, np.array([0, 0, 1, 3, 3, 4, 6, 6, 2, 9])),
    "root_tree_edges": lambda m: root_tree_edges(
        m, 10, _tree_edges()[0], root=4),
    "build_rooted_tree": lambda m: build_rooted_tree(
        m, _tree_edges()[1]),
    "minimum_spanning_tree": lambda m: minimum_spanning_tree(
        m, 10, *random_connected_graph(np.random.default_rng(5), 10, 8)),
    "connected_components": lambda m: connected_components(
        m, 12, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5), (8, 9),
                (10, 11), (9, 10)]),
    "biconnected_components": _biconnected,
}


def idiom_pin(name, model, p):
    """[result digest, steps, ops, by_kind] of one idiom case."""
    m = Machine(model, num_processors=p, seed=0)
    result = IDIOM_CASES[name](m)
    return [_digest(result), m.steps, m.counter.ops,
            dict(sorted(m.counter.by_kind.items()))]


IDIOM_PINS = json.loads(
    Path(__file__).with_name("idiom_pins.json").read_text())


class TestIdiomPins:
    @pytest.mark.parametrize("p", [None, 3])
    @pytest.mark.parametrize("model", _MODELS)
    @pytest.mark.parametrize("name", sorted(IDIOM_CASES))
    def test_idiom_charges(self, name, model, p):
        key = f"{name} {model} p={p or 'n'}"
        assert idiom_pin(name, model, p) == IDIOM_PINS[key]
