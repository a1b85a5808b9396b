"""The native backend (repro.backends.native).

Hypothesis-driven differential testing of native against the numpy and
reference backends, across the dtype boundaries where scan bugs live
(unsigned wraparound, int64 overflow, NaN ordering, empty float64
vectors), at adversarial block sizes so every case crosses block
boundaries.  Native is the blocked backend with ``chunk = block``, so
these cases drive the shared carry monoids' chunk loop at blocks 1, 2,
3, 7 and 64.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.backends import (BlockedBackend, NativeBackend, NumPyBackend,
                            ReferenceBackend)
from repro.core import scans

_NP = NumPyBackend()
_REF = ReferenceBackend()

BLOCKS = [1, 2, 3, 7, 64]


def _each_native(block):
    """Native at ``block``, labelled for the assertion messages."""
    yield "native", NativeBackend(block=block)


INT_DTYPES = ["int8", "int16", "uint8", "uint32", "int64"]


def _int_elements(dtype):
    info = np.iinfo(dtype)
    return st.one_of(st.integers(info.min, info.max),
                     st.sampled_from([info.min, info.max, 0, 1]))


FLOAT_ELEMENTS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.5, 2.5, np.nan, np.inf, -np.inf, 1e300, -1e300])


# --------------------------------------------------------------------- #
# Unsegmented scans
# --------------------------------------------------------------------- #

@given(st.data())
@settings(max_examples=80, deadline=None)
def test_plus_scan_int_bit_identical(data):
    """Integer +-scans wrap modulo 2**width and must match numpy bit for
    bit on every engine, including sums that overflow many times over."""
    dtype = data.draw(st.sampled_from(INT_DTYPES))
    values = np.array(data.draw(st.lists(_int_elements(dtype), min_size=2,
                                         max_size=80)), dtype=dtype)
    block = data.draw(st.sampled_from(BLOCKS))
    with np.errstate(over="ignore"):
        want = _NP.plus_scan(values)
    for label, nat in _each_native(block):
        got = nat.plus_scan(values)
        assert got.dtype == want.dtype, label
        assert np.array_equal(got, want), (label, block)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_max_scan_bit_identical_including_nan(data):
    """max is exactly associative — even for floats with NaN, because the
    block carries combine with np.maximum, which absorbs NaN as the
    within-block np.maximum.accumulate does."""
    if data.draw(st.booleans()):
        dtype = data.draw(st.sampled_from(INT_DTYPES))
        elements = _int_elements(dtype)
    else:
        dtype, elements = "float64", FLOAT_ELEMENTS
    values = np.array(data.draw(st.lists(elements, min_size=2,
                                         max_size=80)), dtype=dtype)
    block = data.draw(st.sampled_from(BLOCKS))
    ident = values.min() if len(values) else np.asarray(0, dtype)[()]
    want = _NP.max_scan(values, ident)
    for label, nat in _each_native(block):
        got = nat.max_scan(values, ident)
        assert np.array_equal(got, want, equal_nan=True), (label, block)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_float_plus_scan_within_additive_tolerance(data):
    """Float +-carries re-associate across blocks (the verifier's
    documented additive tolerance); magnitudes here are corpus-tame."""
    values = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=80)),
        dtype=np.float64)
    block = data.draw(st.sampled_from(BLOCKS))
    want = _NP.plus_scan(values)
    for label, nat in _each_native(block):
        got = nat.plus_scan(values)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9), (label, block)


# --------------------------------------------------------------------- #
# Segmented scans (the Section 4 flag-carrying operator)
# --------------------------------------------------------------------- #

@given(st.data())
@settings(max_examples=80, deadline=None)
def test_seg_plus_scan_int_bit_identical(data):
    dtype = data.draw(st.sampled_from(INT_DTYPES))
    values = np.array(data.draw(st.lists(_int_elements(dtype), min_size=2,
                                         max_size=80)), dtype=dtype)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=len(values),
                                        max_size=len(values))), dtype=bool)
    flags[0] = True  # the machine always materializes a head at 0
    block = data.draw(st.sampled_from(BLOCKS))
    with np.errstate(over="ignore"):
        want = _NP.seg_plus_scan(values, flags)
        ref = _REF.seg_plus_scan(values, flags)
    assert np.array_equal(want, ref)
    for label, nat in _each_native(block):
        got = nat.seg_plus_scan(values, flags)
        assert np.array_equal(got, want), (label, block)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_seg_extreme_scan_bit_identical_including_nan(data):
    """Both directions, NaN-laced floats, non-bottom identities (the
    one-bit scans call seg_max_scan with identity=0): every engine
    matches numpy's answer exactly."""
    is_max = data.draw(st.booleans())
    if data.draw(st.booleans()):
        dtype = data.draw(st.sampled_from(INT_DTYPES))
        elements = _int_elements(dtype)
        info = np.iinfo(dtype)
        identity = data.draw(st.sampled_from(
            [info.min if is_max else info.max, 0, 1]))
    else:
        dtype, elements = "float64", FLOAT_ELEMENTS
        identity = data.draw(st.sampled_from(
            [-np.inf if is_max else np.inf, 0.0]))
    values = np.array(data.draw(st.lists(elements, min_size=2,
                                         max_size=80)), dtype=dtype)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=len(values),
                                        max_size=len(values))), dtype=bool)
    flags[0] = True  # the machine always materializes a head at 0
    block = data.draw(st.sampled_from(BLOCKS))
    want = _NP.seg_extreme_scan(values, flags, identity, is_max=is_max)
    ref = _REF.seg_extreme_scan(values, flags, identity, is_max=is_max)
    assert np.array_equal(want, ref, equal_nan=True)
    for label, nat in _each_native(block):
        got = nat.seg_extreme_scan(values, flags, identity, is_max=is_max)
        assert np.array_equal(got, want, equal_nan=True), (label, block)


# --------------------------------------------------------------------- #
# Dtype boundaries, pinned
# --------------------------------------------------------------------- #

class TestDtypeBoundaries:
    def test_uint32_wraps_not_promotes(self):
        values = np.array([2**32 - 1, 5, 2**32 - 2, 7], dtype=np.uint32)
        with np.errstate(over="ignore"):
            want = _NP.plus_scan(values)
        assert want.dtype == np.uint32  # no silent int64 promotion
        for label, nat in _each_native(2):
            got = nat.plus_scan(values)
            assert got.dtype == np.uint32, label
            assert np.array_equal(got, want), label

    def test_int64_overflow_wraps_like_numpy(self):
        values = np.full(9, np.iinfo(np.int64).max // 2, dtype=np.int64)
        with np.errstate(over="ignore"):
            want = _NP.plus_scan(values)
        for label, nat in _each_native(3):
            assert np.array_equal(nat.plus_scan(values), want), label

    def test_empty_and_single_float64_delegate(self):
        for values in (np.array([], dtype=np.float64),
                       np.array([3.5], dtype=np.float64)):
            want = _NP.plus_scan(values)
            got = NativeBackend(block=7).plus_scan(values)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_bool_vectors_delegate_to_numpy_semantics(self):
        nat = NativeBackend(block=2)
        values = np.array([True, False, True, True, False])
        assert np.array_equal(nat.max_scan(values, False),
                              _NP.max_scan(values, False))


# --------------------------------------------------------------------- #
# Machine-level integration: selection, fusion, step parity
# --------------------------------------------------------------------- #

class TestMachineIntegration:
    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native:0:128")
        m = Machine("scan")
        assert isinstance(m.backend, NativeBackend)
        assert m.backend.block == 128

    def test_bad_specs_raise(self):
        from repro.backends import get_backend
        with pytest.raises(ValueError, match="integer"):
            get_backend("native:fast")
        with pytest.raises(ValueError, match="at most two"):
            get_backend("native:1:2:3")
        with pytest.raises(ValueError, match="threads"):
            NativeBackend(threads=-1)
        with pytest.raises(ValueError, match="block"):
            NativeBackend(block=0)

    def test_fused_chain_matches_eager_and_numpy(self):
        data = (np.arange(500, dtype=np.int64) - 250).tolist()

        def run(backend, fusion):
            m = Machine("scan", backend=backend, fusion=fusion)
            v = m.vector(data)
            out = scans.plus_scan(v * v + 3)
            return out.to_list(), dict(m.counter.by_kind)

        want = run("numpy", False)
        for fusion in (False, True):
            got = run(NativeBackend(block=64), fusion)
            assert got == want, fusion

    def test_step_charges_match_numpy(self):
        def charges(backend):
            m = Machine("scan", backend=backend)
            v = m.vector(list(range(100)))
            scans.plus_scan(v)
            scans.max_scan(v)
            return dict(m.counter.by_kind)

        assert (charges(NativeBackend(block=16))
                == charges("numpy"))

    def test_temp_bytes_is_block_bounded(self):
        nat = NativeBackend(block=1024)
        big = 10**8  # a 100 MB output must not imply 100 MB of temps
        assert nat.temp_bytes("plus_scan", big) < 64 * 1024 * 1024


# --------------------------------------------------------------------- #
# Native is the blocked backend
# --------------------------------------------------------------------- #

class TestNativeIsBlocked:
    def test_is_blocked_with_chunk_equal_to_block(self):
        nat = NativeBackend(block=7)
        assert isinstance(nat, BlockedBackend)
        assert nat.chunk == nat.block == 7

    def test_every_scan_is_bit_identical_to_blocked(self):
        """Float +-scans included: the same chunk loop associates the
        same way."""
        rng = np.random.default_rng(5)
        values = rng.standard_normal(500)
        flags = rng.random(500) < 0.1
        flags[0] = True
        nat, blk = NativeBackend(block=7), BlockedBackend(chunk=7)
        for op, args in [("plus_scan", ()), ("max_scan", (-np.inf,)),
                         ("seg_plus_scan", (flags,))]:
            got = getattr(nat, op)(values, *args)
            assert np.array_equal(got, getattr(blk, op)(values, *args)), op
        got = nat.seg_extreme_scan(values, flags, np.inf, is_max=False)
        want = blk.seg_extreme_scan(values, flags, np.inf, is_max=False)
        assert np.array_equal(got, want)
