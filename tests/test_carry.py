"""The shared carry algebra (repro.backends.carry).

Every engine — numpy whole-vector, blocked chunks (native is blocked)
and the distributed shards — runs its segmented max/min
scans through :func:`seg_extreme_scan`, so this suite holds it to the
serial :class:`ReferenceBackend` loop directly: every fuzzer dtype, float
specials, flag densities from one giant segment to all heads, lengths on
both sides of the row width and of the single-row limit, and non-neutral
identities.  Both of its branches — Figure 16's appended keys and the
doubling kernel they fall back to — are held to the loop, with keys at
the 62-bit budget and one bit over it.  The four carry monoids the chunk
loops share are held to numpy's whole-vector scans over a vector cut at
random points, and their O(1) carry-outs to the full-pass sums.

Past one tile the kernel sweeps tile by tile; with the tile shrunk to 7
its tiled answer is held to the untiled kernel and to the loop on both
branches, and so is one real vector of two tiles and three elements.
Each monoid's ``carry_out`` (the distributed workers' phase 1) is held
to ``local``'s carry bit for bit.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import NumPyBackend, ReferenceBackend, carry
from repro.backends.carry import (appended_keys, doubling_scan,
                                  extreme_carry_out, extreme_combine,
                                  monoid, seg_extreme_scan)
from repro.verify import generate_cases, run_cases
from repro.verify.opset import DTYPES_FULL

_NP = NumPyBackend()
_REF = ReferenceBackend()

DTYPES = DTYPES_FULL + ("uint16", "uint64", "float32")
FLOAT_SPECIALS = (np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324)
#: one row up to 1024 elements, rows of 64 above: both sides of each edge
EDGE_LENGTHS = (1, 2, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 1087,
                1088, 1089, 2047, 2048, 2049, 4095, 4097)
#: head probability: one giant segment ... every element a head
DENSITIES = (0.0, 1 / 1024, 1 / 64, 1 / 7, 0.5, 1.0)


def _values(rng, dtype: str, n: int) -> np.ndarray:
    dt = np.dtype(dtype)
    if dt.kind == "b":
        return rng.random(n) < 0.5
    if dt.kind in "iu":
        info = np.iinfo(dt)
        pool = np.array([info.min, info.min + 1, info.max - 1, info.max,
                         0, 1, info.max // 2], dtype=dt)
        out = rng.integers(info.min, info.max, n, dtype=dt, endpoint=True)
        pick = rng.random(n) < 0.3
        out[pick] = rng.choice(pool, int(pick.sum()))
        return out
    out = rng.normal(scale=1e3, size=n).astype(dt)
    pick = rng.random(n) < 0.25
    out[pick] = rng.choice(np.array(FLOAT_SPECIALS, dtype=dt),
                           int(pick.sum()))
    return out


def _flags(rng, n: int, density: float) -> np.ndarray:
    flags = rng.random(n) < density
    flags[0] = True
    return flags


def _identity(dtype: str, is_max: bool, neutral: bool):
    dt = np.dtype(dtype)
    if not neutral:
        return 0  # seg_or_scan's identity: never combined into values
    if dt.kind == "b":
        return not is_max
    if dt.kind in "iu":
        return np.iinfo(dt).min if is_max else np.iinfo(dt).max
    return -np.inf if is_max else np.inf


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype
            and np.array_equal(got, want,
                               equal_nan=(want.dtype.kind == "f")))


cases = st.fixed_dictionaries({
    "dtype": st.sampled_from(DTYPES),
    "n": st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 300)),
    "density": st.sampled_from(DENSITIES),
    "is_max": st.booleans(),
    "neutral": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


def _draw(case):
    rng = np.random.default_rng(case["seed"])
    n, dtype = case["n"], case["dtype"]
    values = _values(rng, dtype, n)
    flags = _flags(rng, n, case["density"])
    ident = _identity(dtype, case["is_max"], case["neutral"])
    return rng, values, flags, ident


@settings(max_examples=150, deadline=None)
@given(case=cases)
def test_matches_the_serial_reference(case):
    _, values, flags, ident = _draw(case)
    before = values.copy()
    got = seg_extreme_scan(values, flags, ident, is_max=case["is_max"])
    want = _REF.seg_extreme_scan(values, flags, ident,
                                 is_max=case["is_max"])
    assert _same(got, want)
    # the fallback alone, on the integers the keyed branch now takes too
    assert _same(doubling_scan(values, flags, ident,
                               is_max=case["is_max"]), want)
    assert _same(values, before)  # the input is never written


def _cuts(data, n: int) -> list:
    if n < 2:
        return []
    return sorted(set(data.draw(st.lists(st.integers(1, n - 1),
                                         max_size=4))))


def _run_pieces(algebra, values, flags, cuts):
    """The chunk loop by hand: ``local`` each piece, ``apply`` the carry
    entering it (the identity too), ``combine`` the carry past it."""
    pieces, carry = [], algebra.identity
    n = len(values)
    for s, e in zip([0] + cuts, cuts + [n]):
        sfc = flags[s:e] if algebra.segmented else None
        out, carry_out = algebra.local(values[s:e], sfc)
        algebra.apply(out, sfc, carry)
        carry = algebra.combine(carry, carry_out)
        pieces.append(out)
    return np.concatenate(pieces), carry


@settings(max_examples=150, deadline=None)
@given(case=cases, data=st.data())
def test_split_continued_with_carry_equals_unsplit(case, data):
    _, values, flags, ident = _draw(case)
    is_max = case["is_max"]
    whole = seg_extreme_scan(values, flags, ident, is_max=is_max)
    algebra = monoid("seg_extreme", values.dtype, ident, is_max=is_max)
    got, _ = _run_pieces(algebra, values, flags, _cuts(data, len(values)))
    assert _same(got, whole)


INT_DTYPES = tuple(d for d in DTYPES if np.dtype(d).kind in "iu")


def _whole_scan(op, values, flags, ident, is_max):
    """numpy's whole-vector scan of ``op``."""
    if op == "plus_scan":
        return _NP.plus_scan(values)
    if op == "max_scan":
        return _NP.max_scan(values, ident)
    if op == "seg_plus":
        return _NP.seg_plus_scan(values, flags)
    return _NP.seg_extreme_scan(values, flags, ident, is_max=is_max)


def _same_carry(got, want) -> bool:
    if isinstance(want, tuple):
        return got[1] == want[1] and _same_carry(got[0], want[0])
    if want is None:
        return got is None
    return _same(np.asarray(got), np.asarray(want))


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(["plus_scan", "max_scan", "seg_plus",
                           "seg_extreme"]),
       case=cases, data=st.data())
def test_monoid_laws_over_random_cuts(op, case, data):
    """Each monoid's chunk loop over any cuts equals numpy's whole-vector
    scan — bit-identical on integers, NaN-aware on max/min floats — and
    its final carry equals the whole vector's carry out."""
    if op in ("plus_scan", "seg_plus"):
        case = {**case, "dtype": data.draw(st.sampled_from(INT_DTYPES))}
    if op == "max_scan":
        case = {**case, "is_max": True}
    _, values, flags, ident = _draw(case)
    ident = np.asarray(ident, dtype=values.dtype)[()]
    is_max = case["is_max"]
    algebra = monoid(op, values.dtype, ident, is_max=is_max)
    with np.errstate(over="ignore"):
        want = _whole_scan(op, values, flags, ident, is_max)
    got, carry = _run_pieces(algebra, values, flags,
                             _cuts(data, len(values)))
    assert _same(got, want)
    _, whole_carry = algebra.local(values, flags if algebra.segmented
                                   else None)
    assert _same_carry(carry, whole_carry)


@pytest.mark.parametrize("is_max", [True, False])
def test_no_head_at_zero_without_carry_starts_a_segment(is_max):
    values = np.array([3.0, np.nan, -1.0, 7.0])
    flags = np.array([False, False, True, False])
    headed = flags.copy()
    headed[0] = True
    assert _same(seg_extreme_scan(values, flags, 9.0, is_max=is_max),
                 seg_extreme_scan(values, headed, 9.0, is_max=is_max))


def test_carry_reaches_only_the_leading_run():
    values = np.array([1, 5, 2, 8, 0], dtype=np.int16)
    flags = np.array([False, False, True, False, False])
    algebra = monoid("seg_extreme", values.dtype, -99, is_max=True)
    got, _ = algebra.local(values, flags)
    algebra.apply(got, flags, (np.int16(4), False))
    assert got.tolist() == [4, 4, -99, 2, 8]


def test_nan_ordering_convention():
    values = np.array([2.0, np.nan, 1.0, 3.0])
    flags = np.array([True, False, False, False])
    assert extreme_combine(True) is np.maximum
    assert extreme_combine(False) is np.fmin
    got_max = seg_extreme_scan(values, flags, -np.inf, is_max=True)
    got_min = seg_extreme_scan(values, flags, np.inf, is_max=False)
    assert np.array_equal(got_max, [-np.inf, 2.0, np.nan, np.nan],
                          equal_nan=True)  # max propagates NaN
    assert got_min.tolist() == [np.inf, 2.0, 2.0, 1.0]  # min passes it over


@pytest.mark.parametrize("n", [130, 5000])
@pytest.mark.parametrize("is_max", [True, False])
def test_every_segment_length_reaches_its_head(n, is_max):
    """Each head holds its segment's extreme, so an element whose window
    stops one short of the head is wrong: this pins the number of
    doubling passes for every run length 1..64 (and longer), and the
    keyed branch gives the same answer."""
    rng = np.random.default_rng(3)
    lengths = np.resize(np.arange(1, 131), n)
    rng.shuffle(lengths)
    starts = np.cumsum(lengths) - lengths
    starts = starts[starts < n]
    flags = np.zeros(n, dtype=bool)
    flags[starts] = True
    head_of = np.cumsum(flags) - 1
    offset = np.arange(n) - starts[head_of]
    # heads are the extreme; values move away from it inside the segment
    values = (1000 - offset) if is_max else offset
    want = values[starts][head_of]
    want[flags] = -1
    got = doubling_scan(values, flags, -1, is_max=is_max)
    assert got.tolist() == want.tolist()
    assert seg_extreme_scan(values, flags, -1,
                            is_max=is_max).tolist() == want.tolist()


def test_carry_out_of_a_lone_unheaded_element():
    # no head and no carry: position 0 opens the segment, so the carry
    # out is the element itself, never clamped by the identity fill
    values, flags = np.array([5]), np.array([False])
    out = seg_extreme_scan(values, flags, 100, is_max=True)
    assert out.tolist() == [100]
    assert extreme_carry_out(values, flags, out, is_max=True) == 5
    # continuing an open segment whose extreme is 7: 7 enters, 7 leaves
    algebra = monoid("seg_extreme", values.dtype, 100, is_max=True)
    out, carry_out = algebra.local(values, flags)
    algebra.apply(out, flags, (7, False))
    assert out.tolist() == [7]
    assert algebra.combine((7, False), carry_out) == (7, False)


def test_empty_vector():
    out = seg_extreme_scan(np.array([], dtype=np.uint8),
                           np.array([], dtype=bool), 0, is_max=True)
    assert out.dtype == np.uint8 and len(out) == 0


@pytest.mark.parametrize("density", [0.0, 1 / 64])
@pytest.mark.parametrize("is_max", [True, False])
def test_two_levels_of_row_carries(density, is_max):
    """Past 64 * 1024 elements the row tails themselves span several
    rows, so the carry scan recurses a second time."""
    rng = np.random.default_rng(7)
    n = 64 * 1024 + 4099
    values = _values(rng, "float64", n)
    flags = _flags(rng, n, density)
    acc = np.maximum.accumulate if is_max else np.fmin.accumulate
    heads = np.flatnonzero(flags)
    want = np.empty(n)
    for s, e in zip(heads, np.append(heads[1:], n)):
        want[s] = 5.0
        want[s + 1:e] = acc(values[s:e - 1])
    got = seg_extreme_scan(values, flags, 5.0, is_max=is_max)
    assert _same(got, want)


# --------------------------------------------------------------------- #
# The two seg-extreme branches
# --------------------------------------------------------------------- #

I64 = np.iinfo(np.int64)


def _check_branch(values, flags, ident, is_max, *, keyed: bool):
    """``values`` take the branch named by ``keyed`` and agree with the
    serial loop (the doubling kernel too, whichever branch is taken)."""
    took = appended_keys(values, flags, is_max=is_max) is not None
    assert took == keyed
    want = _REF.seg_extreme_scan(values, flags, ident, is_max=is_max)
    assert _same(seg_extreme_scan(values, flags, ident, is_max=is_max),
                 want)
    assert _same(doubling_scan(values, flags, ident, is_max=is_max), want)
    # and as a chunk loop, continued across a cut
    algebra = monoid("seg_extreme", values.dtype, ident, is_max=is_max)
    cut = len(values) // 2
    got, _ = _run_pieces(algebra, values, flags, [cut] if cut else [])
    assert _same(got, want)


branch_cases = st.fixed_dictionaries({
    "n": st.integers(1, 200),
    "density": st.sampled_from(DENSITIES),
    "is_max": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=100, deadline=None)
@given(case=branch_cases, dtype=st.sampled_from(INT_DTYPES),
       span=st.integers(0, 40))
def test_keyed_branch_where_the_keys_fit(case, dtype, span):
    """Integers of a modest range: every dtype, signed and unsigned,
    offset anywhere inside the dtype (narrow ones up to their edges)."""
    rng = np.random.default_rng(case["seed"])
    info = np.iinfo(dtype)
    lo_max = max(info.min, min(info.max, (1 << 61))
                 - ((1 << span) - 1))
    lo = int(rng.integers(max(info.min, -(1 << 61)), lo_max,
                          endpoint=True))
    hi = min(info.max, lo + (1 << span) - 1)
    values = rng.integers(lo, hi, case["n"], dtype=dtype, endpoint=True)
    flags = _flags(rng, case["n"], case["density"])
    ident = _identity(dtype, case["is_max"], neutral=bool(span % 2))
    _check_branch(values, flags, ident, case["is_max"], keyed=True)


@pytest.mark.parametrize("is_max", [True, False])
@pytest.mark.parametrize("segments", [1, 2, 3, 7, 1000])
def test_keys_at_the_62_bit_budget_and_one_bit_over(is_max, segments):
    """``bits(hi - lo) + bits(#segments) == 62`` takes the keys; one bit
    more of range falls back.  Both answer as the serial loop does."""
    seg_bits = segments.bit_length()
    n = 2 * segments + 1
    flags = np.zeros(n, dtype=bool)
    flags[::2] = True
    flags[-1] = False
    rng = np.random.default_rng(segments)
    for range_bits, keyed in ((62 - seg_bits, True),
                              (63 - seg_bits, False)):
        for lo in (-(1 << 61), 0, -(1 << (range_bits - 1))):
            hi = lo + (1 << range_bits) - 1  # bits(hi - lo) == range_bits
            if lo <= -(1 << 62) or hi >= 1 << 62:
                continue
            values = rng.integers(lo, hi, n, dtype=np.int64, endpoint=True)
            values[:2] = (lo, hi)
            _check_branch(values, flags, I64.min if is_max else I64.max,
                          is_max, keyed=keyed)


@pytest.mark.parametrize("is_max", [True, False])
def test_keys_never_wrap_near_the_value_bound(is_max):
    """Values just inside ``(-2**62, 2**62)`` take the keys; one step
    outside, the doubling kernel."""
    flags = np.array([True, False, False, True, False])
    edge = (1 << 62) - 1
    for values, keyed in (([edge] * 4 + [edge - 3], True),
                          ([-edge] * 4 + [-edge + 3], True),
                          ([edge + 1] * 5, False),
                          ([-edge - 1] * 5, False)):
        _check_branch(np.array(values, dtype=np.int64), flags, 0, is_max,
                      keyed=keyed)


@settings(max_examples=60, deadline=None)
@given(case=branch_cases, dtype=st.sampled_from(["int64", "uint64"]))
def test_doubling_branch_at_the_64_bit_extremes(case, dtype):
    """int64 ``iinfo.min`` / ``iinfo.max`` and uint64 values >= 2**63
    never build keys, and still agree with the serial loop."""
    rng = np.random.default_rng(case["seed"])
    info = np.iinfo(dtype)
    values = rng.integers(info.min, info.max, case["n"], dtype=dtype,
                          endpoint=True)
    values[0] = info.max if dtype == "uint64" else info.min
    flags = _flags(rng, case["n"], case["density"])
    ident = _identity(dtype, case["is_max"], neutral=True)
    _check_branch(values, flags, ident, case["is_max"], keyed=False)


@settings(max_examples=60, deadline=None)
@given(case=branch_cases, dtype=st.sampled_from(["float32", "float64"]))
def test_doubling_branch_on_floats_with_nan(case, dtype):
    rng = np.random.default_rng(case["seed"])
    values = _values(rng, dtype, case["n"])
    values[rng.random(case["n"]) < 0.2] = np.nan
    flags = _flags(rng, case["n"], case["density"])
    ident = _identity(dtype, case["is_max"], neutral=True)
    _check_branch(values, flags, ident, case["is_max"], keyed=False)


@pytest.mark.parametrize("is_max", [True, False])
@pytest.mark.parametrize("dtype", ["int64", "uint64"])
def test_dtype_boundary_grid_takes_the_fallback(dtype, is_max):
    """The 64-bit rows of ``test_dtype_boundaries`` (``iinfo.min`` next
    to ``iinfo.max``) are declined by the key builder in every layout
    that grid runs; the narrow rows fit."""
    info = np.iinfo(dtype)
    vals = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
    if info.min < 0:
        vals.append(-1)
    values = np.array(vals, dtype=dtype)
    n = len(values)
    for lengths in ((n,), (1,) * n, (n - 1, 1)):
        flags = np.zeros(n, dtype=bool)
        flags[np.cumsum((0,) + lengths[:-1])] = True
        assert appended_keys(values, flags, is_max=is_max) is None
    for narrow in ("int8", "int16", "uint32"):
        info = np.iinfo(narrow)
        values = np.array([info.min, 0, info.max], dtype=narrow)
        assert appended_keys(values, np.ones(3, dtype=bool),
                             is_max=is_max) is not None


# --------------------------------------------------------------------- #
# O(1) carry-outs
# --------------------------------------------------------------------- #

def _full_pass_carry(op, values, flags, ident):
    """The carry-out as a second pass over the chunk computes it."""
    dt = values.dtype
    if op == "plus_scan":
        return values.sum(dtype=dt)
    if op == "max_scan":
        return np.maximum(ident, values.max())
    heads = np.flatnonzero(flags)
    if len(heads):
        return (values[heads[-1]:].sum(dtype=dt), True)
    return (values.sum(dtype=dt), False)


@settings(max_examples=200, deadline=None)
@given(op=st.sampled_from(["plus_scan", "max_scan", "seg_plus"]),
       dtype=st.sampled_from(["int8", "uint8", "float32", "float64"]),
       n=st.integers(1, 300), density=st.sampled_from(DENSITIES),
       seed=st.integers(0, 2**32 - 1))
def test_o1_carry_outs_equal_the_full_pass(op, dtype, n, density, seed):
    """``out[-1]`` combined with ``values[-1]`` is the chunk's carry:
    wrapping on narrow ints, NaN-propagating on float max, and silent.
    Float sums use small integers, whose sums are exact in any order."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    if dt.kind == "f" and op != "max_scan":
        values = rng.integers(-64, 64, n).astype(dt)
    else:
        values = _values(rng, dtype, n)
    flags = _flags(rng, n, density)
    flags[0] = bool(rng.random() < 0.5)  # a chunk may open mid-segment
    ident = _identity(dtype, True, neutral=True)
    algebra = monoid(op, dt, ident)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, carry = algebra.local(values, flags)
        with np.errstate(over="ignore"):
            want = _full_pass_carry(op, values, flags,
                                    np.asarray(ident, dtype=dt)[()])
    assert _same_carry(carry, want)


def test_monoids_are_cached_per_signature():
    assert monoid("seg_extreme", "int32", 0, True) is monoid(
        "seg_extreme", np.int32, 0, True)
    assert monoid("max_scan", "float64", 0.0) is not monoid(
        "max_scan", "float64", -0.0)
    assert monoid("max_scan", "int8", np.array(3)).identity == 3


def test_float_seg_plus_heads_are_exact_and_sums_close():
    """One running sum restarts at every head: on floats the restart's
    rounding residue never shows at a head, and the sums stay within
    the additive tolerance of the serial loop."""
    rng = np.random.default_rng(11)
    n = 5000
    values = rng.normal(scale=1e3, size=n)
    flags = _flags(rng, n, 1 / 16)
    got = _NP.seg_plus_scan(values, flags)
    assert (got[flags] == 0.0).all() and not np.signbit(got[flags]).any()
    want = _REF.seg_plus_scan(values, flags)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
    # the element holding an infinity still sees the finite sum before
    # it (later segments see inf - inf: the construction's known leak)
    values[7] = np.inf
    flags[:20] = [True] + [False] * 19
    with np.errstate(invalid="ignore"):
        got = _NP.seg_plus_scan(values, flags)
    assert np.isclose(got[7], values[:7].sum()) and got[8] == np.inf


# --------------------------------------------------------------------- #
# The tile-bounded kernel
# --------------------------------------------------------------------- #

TILE = 7
#: the fuzzer's segmented ops whose engines run the seg-extreme kernel
SEG_EXTREME_OPS = ("seg_max_scan", "seg_min_scan", "seg_or_scan",
                   "seg_and_scan", "seg_back_max_scan", "seg_back_min_scan",
                   "batched_seg_max_scan")


def _tile_values(rng, branch: str, n: int, layout: str) -> np.ndarray:
    if branch == "keyed":  # a modest range: the keys fit on every tile
        return rng.integers(-1000, 1000, n, dtype=np.int64)
    values = _values(rng, "float64", n)
    if layout == "nan_tiles":
        values[TILE:3 * TILE] = np.nan  # two whole tiles of NaN
    return values


def _tile_flags(rng, n: int, layout: str) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    if layout == "tile_starts":
        flags[::TILE] = True
    elif layout in ("headless_tiles", "nan_tiles"):
        flags[[0, 3 * TILE + 2]] = True  # tiles 1, 2 and 4+ hold no head
    else:
        flags = _flags(rng, n, 1 / 5)
    return flags


@pytest.mark.parametrize("layout", ["random", "tile_starts",
                                    "headless_tiles", "nan_tiles"])
@pytest.mark.parametrize("neutral", [True, False])
@pytest.mark.parametrize("is_max", [True, False])
@pytest.mark.parametrize("branch", ["keyed", "doubling"])
def test_tiled_kernel_matches_untiled_and_the_loop(branch, is_max, neutral,
                                                   layout, monkeypatch):
    """Tiles of 7: the keyed and the doubling branch, neutral identities
    and ``seg_or_scan``'s non-neutral ``0``, heads on every tile start,
    tiles with no head and tiles of NaN."""
    rng = np.random.default_rng(len(layout))
    n = 6 * TILE + 4
    values = _tile_values(rng, branch, n, layout)
    flags = _tile_flags(rng, n, layout)
    ident = _identity(str(values.dtype), is_max, neutral)
    assert (appended_keys(values[:TILE], flags[:TILE], is_max=is_max)
            is not None) == (branch == "keyed")
    untiled = seg_extreme_scan(values, flags, ident, is_max=is_max)
    want = _REF.seg_extreme_scan(values, flags, ident, is_max=is_max)
    monkeypatch.setattr(carry, "DEFAULT_CHUNK", TILE)
    tiled = seg_extreme_scan(values, flags, ident, is_max=is_max)
    assert _same(tiled, untiled) and _same(tiled, want)
    if branch == "keyed":  # the keys go straight into an int64 buffer
        buf = np.full(n, 12345, dtype=np.int64)
        assert seg_extreme_scan(values, flags, ident, is_max=is_max,
                                out=buf) is buf
        assert _same(buf, want)


@pytest.mark.parametrize("is_max", [True, False])
@pytest.mark.parametrize("branch", ["keyed", "doubling"])
def test_two_real_tiles_and_three(branch, is_max, monkeypatch):
    """A vector of ``2 * DEFAULT_CHUNK + 3`` at the real tile size: the
    tiled kernel, the kernel on the whole vector and the loop agree."""
    rng = np.random.default_rng(21)
    n = 2 * carry.DEFAULT_CHUNK + 3
    values = _tile_values(rng, branch, n, "random")
    flags = _flags(rng, n, 1 / 64)
    flags[carry.DEFAULT_CHUNK] = False  # the second tile opens mid-segment
    ident = _identity(str(values.dtype), is_max, neutral=True)
    tiled = seg_extreme_scan(values, flags, ident, is_max=is_max)
    want = _REF.seg_extreme_scan(values, flags, ident, is_max=is_max)
    monkeypatch.setattr(carry, "DEFAULT_CHUNK", n)
    untiled = seg_extreme_scan(values, flags, ident, is_max=is_max)
    assert _same(tiled, untiled) and _same(tiled, want)


def test_fuzzer_seg_extreme_ops_cross_tiles_on_numpy(monkeypatch):
    """The fuzzer's cases are too short to cross a real tile: with tiles
    of 7 its segmented extreme ops run numpy's tile loop against the
    serial oracle and the reference engine."""
    monkeypatch.setattr(carry, "DEFAULT_CHUNK", TILE)
    cases = generate_cases(5, 140, ops=SEG_EXTREME_OPS)
    assert max(len(c.values) for c in cases) > 2 * TILE
    outcomes = run_cases(cases, engines=("numpy", "reference"))
    bad = [d for o in outcomes for d in o.divergences]
    assert bad == [], "\n".join(d.describe() for d in bad[:5])


# --------------------------------------------------------------------- #
# Carry-only reductions: the distributed workers' phase 1
# --------------------------------------------------------------------- #

#: (monoid op, is_max): every carry-bearing scan
CARRY_OPS = (("plus_scan", True), ("max_scan", True), ("seg_plus", True),
             ("seg_extreme", True), ("seg_extreme", False))
CARRY_LAYOUTS = ("random", "headless", "last_only", "dense")


def _carry_values(rng, dtype: str, n: int, signed_zeros: bool):
    values = _values(rng, dtype, n)
    if values.dtype.kind == "f":
        pick = rng.random(n) < 0.2
        specials = [np.nan, np.inf, -np.inf] + ([0.0, -0.0] if signed_zeros
                                                 else [])
        values[pick] = rng.choice(np.array(specials), int(pick.sum()))
        if not signed_zeros:
            # which zero an extreme keeps depends on the order of
            # evaluation, which the dtype contract leaves open
            values[values == 0] = 0.0
    return values


def _carry_flags(rng, n: int, layout: str) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    if layout == "last_only":
        flags[-1] = True
    elif layout == "dense":
        flags = rng.random(n) < 0.5
    elif layout == "random":
        flags = rng.random(n) < 1 / 9
    return flags


@settings(max_examples=250, deadline=None)
@given(op=st.sampled_from(CARRY_OPS),
       dtype=st.sampled_from(["int8", "uint64", "bool", "float64"]),
       n=st.one_of(st.just(1), st.integers(1, 40)),
       layout=st.sampled_from(CARRY_LAYOUTS), tile=st.sampled_from([7, None]),
       seed=st.integers(0, 2**32 - 1))
def test_carry_out_is_locals_carry_bit_for_bit(op, dtype, n, layout, tile,
                                               seed):
    """int8 wraps, uint64 spans its range, bools, floats with NaN and
    +-inf; shards with no head, a head on the last element only, and one
    element; the float running sums replayed over tiles of 7 too."""
    name, is_max = op
    if name == "seg_plus" and dtype == "bool":
        return  # the Vector layer widens bools before a segmented sum
    rng = np.random.default_rng(seed)
    values = _carry_values(rng, dtype, n,
                           signed_zeros=name in ("plus_scan", "seg_plus"))
    flags = _carry_flags(rng, n, layout)
    ident = _identity(dtype, is_max, neutral=bool(seed % 2))
    algebra = monoid(name, values.dtype, ident, is_max=is_max)
    sfc = flags if algebra.segmented else None
    with np.errstate(all="ignore"):
        _, want = algebra.local(values, sfc)
        chunk = carry.DEFAULT_CHUNK
        try:
            carry.DEFAULT_CHUNK = tile or chunk
            got = algebra.carry_out(values, sfc)
        finally:
            carry.DEFAULT_CHUNK = chunk
    assert _same_carry(got, want)
    if algebra.segmented:
        assert type(got[1]) is bool


@pytest.mark.parametrize("op", CARRY_OPS)
def test_carry_out_of_a_vector_of_many_tiles(op):
    """Shard-sized inputs, float sums over several tiles: the carry the
    worker ships is the one ``local`` would have returned."""
    name, is_max = op
    rng = np.random.default_rng(17)
    n = 3 * carry.DEFAULT_CHUNK + 11
    values = rng.normal(scale=1e3, size=n)
    flags = _flags(rng, n, 1 / 64)
    flags[n - carry.DEFAULT_CHUNK - 50:] = False  # the open run crosses a tile
    algebra = monoid(name, values.dtype, np.inf if not is_max else -np.inf,
                     is_max=is_max)
    sfc = flags if algebra.segmented else None
    assert _same_carry(algebra.carry_out(values, sfc),
                       algebra.local(values, sfc)[1])
