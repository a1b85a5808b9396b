"""Algebraic laws of the core operations, property-tested.

These are the identities the paper's constructions silently rely on;
each is stated as a law over arbitrary inputs rather than an example.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro._util import indices_distinct
from repro.core import ops, scans, segmented

ints = st.lists(st.integers(-10**6, 10**6), max_size=120)
nonempty_ints = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=120)


def _m():
    return Machine("scan")


@st.composite
def seg_case(draw):
    n = draw(st.integers(1, 80))
    values = draw(st.lists(st.integers(-10**4, 10**4), min_size=n, max_size=n))
    flags = [True] + [draw(st.booleans()) for _ in range(n - 1)]
    return values, flags


class TestScanLaws:
    @given(ints)
    @settings(max_examples=40, deadline=None)
    def test_scan_then_add_self_is_inclusive(self, xs):
        """exclusive scan + input = inclusive scan."""
        m = _m()
        v = m.vector(xs)
        incl = (scans.plus_scan(v) + v).to_list()
        assert incl == list(np.cumsum(xs)) if xs else incl == []

    @given(ints)
    @settings(max_examples=40, deadline=None)
    def test_backward_is_reverse_conjugate(self, xs):
        """back-scan == reverse ∘ scan ∘ reverse."""
        m = _m()
        v = m.vector(xs)
        direct = scans.back_plus_scan(v).to_list()
        conj = scans.plus_scan(m.vector(xs).reverse()).reverse().to_list()
        assert direct == conj

    @given(nonempty_ints)
    @settings(max_examples=40, deadline=None)
    def test_distribute_is_broadcast_of_reduce(self, xs):
        m = _m()
        v = m.vector(xs)
        assert scans.plus_distribute(v).to_list() == [sum(xs)] * len(xs)
        assert scans.max_distribute(v).to_list() == [max(xs)] * len(xs)

    @given(ints, ints)
    @settings(max_examples=40, deadline=None)
    def test_scan_is_linear(self, xs, ys):
        """plus_scan(a + b) == plus_scan(a) + plus_scan(b)."""
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        m = _m()
        a, b = m.vector(xs), m.vector(ys)
        lhs = scans.plus_scan(a + b).to_list()
        rhs = (scans.plus_scan(a) + scans.plus_scan(b)).to_list()
        assert lhs == rhs

    @given(ints)
    @settings(max_examples=40, deadline=None)
    def test_max_scan_is_monotone(self, xs):
        out = [int(x) for x in scans.max_scan(_m().vector(xs)).data]
        assert all(a <= b for a, b in zip(out, out[1:]))


class TestPermuteLaws:
    @given(st.permutations(list(range(40))))
    @settings(max_examples=30, deadline=None)
    def test_permute_roundtrip(self, perm):
        """permuting by p then by argsort(p) is the identity."""
        m = _m()
        v = m.vector(range(40))
        p = m.vector(perm)
        inv = m.vector(np.argsort(perm))
        # result[p[i]] = v[i]; applying the same construction with the
        # inverse permutation undoes it
        out = v.permute(p).permute(inv)
        assert np.array_equal(np.sort(out.data), np.arange(40))

    @given(st.permutations(list(range(30))))
    @settings(max_examples=30, deadline=None)
    def test_gather_inverts_scatter(self, perm):
        m = _m()
        v = m.vector(np.arange(30) * 7)
        p = m.vector(perm)
        assert v.permute(p).gather(p).to_list() == v.to_list()


@st.composite
def index_case(draw):
    """An in-range index vector and its table length: mostly distinct
    (a sample of ``range(length)``) or with forced duplicates, always
    touching ``0`` and ``length - 1`` when it holds two or more cells."""
    length = draw(st.integers(0, 64))
    if length == 0:
        return np.zeros(0, dtype=np.int64), 0
    cells = st.integers(0, length - 1)
    if draw(st.booleans()):
        idx = draw(st.lists(cells, max_size=length, unique=True))
    else:
        idx = draw(st.lists(cells, max_size=2 * length))
        if idx:
            idx.append(draw(st.sampled_from(idx)))  # one duplicate at least
    if draw(st.booleans()) and len(idx) >= 2:
        idx[0], idx[-1] = 0, length - 1  # both edges of the table
    return np.asarray(draw(st.permutations(idx)), dtype=np.int64), length


class TestIndicesDistinct:
    @given(index_case())
    @settings(max_examples=200, deadline=None)
    def test_verdict_matches_np_unique(self, case):
        """the linear mark-and-count check is np.unique's verdict."""
        idx, length = case
        assert indices_distinct(idx, length) == (
            len(np.unique(idx)) == len(idx))

    def test_edges_and_empty(self):
        assert indices_distinct(np.zeros(0, dtype=np.int64), 0)
        assert indices_distinct(np.zeros(0, dtype=np.int64), 5)
        assert indices_distinct(np.array([4, 0]), 5)
        assert not indices_distinct(np.array([0, 4, 0]), 5)
        assert not indices_distinct(np.array([4, 4]), 5)
        assert not indices_distinct(np.array([1, 0, 1]), 2)


class TestSplitPackLaws:
    @given(st.lists(st.integers(0, 255), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_split_twice_sorts_two_bits(self, xs):
        """split by bit0 then bit1 sorts values < 4 (radix sort's
        induction step)."""
        vals = [x % 4 for x in xs]
        m = _m()
        v = m.vector(vals)
        v = ops.split(v, v.bit(0))
        v = ops.split(v, v.bit(1))
        assert v.to_list() == sorted(vals)

    @given(st.lists(st.integers(0, 100), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_split_is_a_permutation(self, xs):
        m = _m()
        v = m.vector(xs)
        out = ops.split(v, (v % 3) == 0)
        assert sorted(out.to_list()) == sorted(xs)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_pack_of_conjunction_is_pack_of_pack(self, pairs):
        """pack(v, a&b) == pack(pack(v, a), b restricted to a)."""
        if not pairs:
            return
        vals = [p[0] for p in pairs]
        a = [p[1] for p in pairs]
        rng = np.random.default_rng(sum(vals) + 1)
        b = rng.random(len(vals)) < 0.5
        m = _m()
        v = m.vector(vals)
        both = ops.pack(v, m.flags(np.array(a) & b)).to_list()
        first = ops.pack(v, m.flags(a))
        b_restricted = ops.pack(m.flags(b), m.flags(a))
        nested = ops.pack(first, b_restricted).to_list()
        assert both == nested

    @given(st.lists(st.booleans(), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_counts_prefix_trues(self, flags):
        m = _m()
        out = ops.enumerate_(m.flags(flags)).to_list()
        total = ops.count(m.flags(flags))
        assert total == sum(flags)
        if flags:
            assert out[-1] + flags[-1] == total


class TestAllocationLaws:
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_allocate_lengths_roundtrip(self, counts):
        """the segments allocated for `counts` have exactly those lengths
        (zero-count positions vanish)."""
        m = _m()
        seg_flags, hp = ops.allocate(m, m.vector(counts))
        got = segmented.segment_lengths(seg_flags).tolist()
        assert got == [c for c in counts if c > 0]
        assert hp.to_list() == list(np.cumsum([0] + counts[:-1]))

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_distribute_then_heads_recovers_values(self, counts):
        m = _m()
        values = m.vector(np.arange(len(counts)) * 3 + 1)
        dist, seg_flags = ops.distribute_to_segments(values, m.vector(counts))
        heads = ops.pack(dist, seg_flags).to_list()
        assert heads == [v for v, c in zip(values.to_list(), counts) if c > 0]


class TestSegmentedGenericLaw:
    @given(seg_case())
    @settings(max_examples=40, deadline=None)
    def test_segmented_equals_per_segment_unsegmented(self, case):
        """THE segmented-scan law: running the segmented op equals running
        the unsegmented op on each segment independently."""
        values, flags = case
        m = _m()
        seg_out = segmented.seg_plus_scan(m.vector(values), m.flags(flags)).to_list()
        heads = [i for i, f in enumerate(flags) if f] + [len(flags)]
        for a, b in zip(heads, heads[1:]):
            m2 = _m()
            expect = scans.plus_scan(m2.vector(values[a:b])).to_list()
            assert seg_out[a:b] == expect

    @given(seg_case())
    @settings(max_examples=40, deadline=None)
    def test_single_segment_degenerates_to_unsegmented(self, case):
        values, _ = case
        m = _m()
        one_seg = [True] + [False] * (len(values) - 1)
        a = segmented.seg_max_scan(m.vector(values), m.flags(one_seg)).to_list()
        b = scans.max_scan(_m().vector(values)).to_list()
        assert a == b
