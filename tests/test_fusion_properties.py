"""Property-based eager-vs-lazy differential suite.

For arbitrary generated vectors and operator chains, running under
``fusion=True`` must be indistinguishable from ``fusion=False`` on every
backend: bit-identical results (dtype included) **and** bit-identical
step charges.  This is the property the whole refactor hangs on — the
lazy DAG is an execution strategy, never an observable.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.core import scans

BACKENDS = ("numpy", "blocked", "blocked:7", "reference", "native:0:7")

ints = st.lists(st.integers(-10**6, 10**6), max_size=120)
small_ints = st.lists(st.integers(-100, 100), max_size=60)
floats = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    max_size=120)

DTYPES = (np.int8, np.int16, np.uint8, np.uint32, np.int64, np.float64)


def _pair(backend, xs, dtype=None):
    """Two fresh machines on the same backend, fused and eager, plus the
    shared input array."""
    arr = np.asarray(xs, dtype=dtype)
    return (Machine("scan", backend=backend, fusion=True),
            Machine("scan", backend=backend, fusion=False), arr)


def _assert_same(spec_fused, spec_eager, out_fused, out_eager):
    assert out_fused.dtype == out_eager.dtype
    assert np.array_equal(out_fused, out_eager)
    assert spec_fused.steps == spec_eager.steps
    assert spec_fused.ops == spec_eager.ops
    assert spec_fused.by_kind == spec_eager.by_kind


def _differential(backend, xs, chain, dtype=None):
    mf, me, arr = _pair(backend, xs, dtype)
    out_f = chain(mf, mf.vector(arr))
    out_e = chain(me, me.vector(arr))
    _assert_same(mf.snapshot(), me.snapshot(), out_f.data, out_e.data)


class TestElementwiseChains:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_arithmetic_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: (v * 3 + 7) - (v // 2),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_reflected_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: (1000 - v) + (3 * v) - (7 % (v | 1)),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(floats)
    @settings(max_examples=25, deadline=None)
    def test_float_division_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: 1.0 / (v * v + 1.0) + v,
                      dtype=np.float64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_bool_coercion_chain(self, backend, xs):
        # comparisons produce bool vectors; & and | stay bool; bit() is
        # a composite callable with an explicit dtype; where re-enters
        # the numeric domain
        _differential(backend, xs,
                      lambda m, v: ((v > 0) & (v % 3 != 1)
                                    | v.bit(2)).where(v, -v),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(small_ints, st.sampled_from(DTYPES), st.sampled_from(DTYPES))
    @settings(max_examples=25, deadline=None)
    def test_mixed_dtype_chain(self, backend, xs, dt_a, dt_b):
        """Chains that cross dtype boundaries mid-stream promote the same
        way deferred as eager (NumPy promotion probed on empty slices)."""
        mf, me, arr = _pair(backend, xs, np.int64)
        def chain(m, v):
            return (v.astype(dt_a) + 1).astype(dt_b) * 2 - v.astype(dt_b)
        out_f = chain(mf, mf.vector(arr))
        out_e = chain(me, me.vector(arr))
        _assert_same(mf.snapshot(), me.snapshot(), out_f.data, out_e.data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_vector_chain(self, backend):
        _differential(backend, [],
                      lambda m, v: ((v + 1) * 2 > 0).where(v, v - 1),
                      dtype=np.int64)


class TestTerminalScans:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_plus_scan_of_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: scans.plus_scan(v * 2 - 1),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_max_scan_of_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: scans.max_scan((v | 1) * v),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_bool_plus_scan_widens(self, backend, xs):
        # plus_scan over a pending bool chain must widen to int64
        # exactly as the eager path does
        _differential(backend, xs,
                      lambda m, v: scans.plus_scan(v != 0),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_terminal(self, backend):
        _differential(backend, [],
                      lambda m, v: scans.plus_scan(v + 1),
                      dtype=np.int64)


class TestDistributedBackend:
    """The sharded backend is slow to spin up, so it gets a smaller
    example budget but the same contract."""

    @given(small_ints)
    @settings(max_examples=5, deadline=None)
    def test_chain_and_scan(self, xs):
        _differential("distributed:2:1", xs,
                      lambda m, v: scans.plus_scan((v * v + 1) - (v // 2)),
                      dtype=np.int64)

    @given(small_ints)
    @settings(max_examples=5, deadline=None)
    def test_bool_chain(self, xs):
        _differential("distributed:2:1", xs,
                      lambda m, v: ((v > 0) & (v != 7)).where(v, 0),
                      dtype=np.int64)
