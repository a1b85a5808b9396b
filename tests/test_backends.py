"""Execution backends: registry, selection, and differential equivalence.

The cost model decides what a primitive charges; a backend decides how it
computes.  These tests pin the contract that makes that split safe:

* the registry / ``Machine(backend=...)`` / ``REPRO_BACKEND`` selection
  surface behaves as documented;
* random programs over the machine's primitive vocabulary produce
  **bit-identical results and identical step charges** on all three
  backends (hypothesis-driven differential testing, integer vectors so
  equality is exact);
* fault injection and checked/degrading execution attach at the dispatch
  point and therefore behave identically on every backend;
* the blocked backend's carry propagation survives vectors spanning many
  chunks.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.backends import (
    BACKEND_ENV_VAR,
    Backend,
    BlockedBackend,
    DistributedBackend,
    NativeBackend,
    NumPyBackend,
    ReferenceBackend,
    available_backends,
    backend_specs,
    get_backend,
    resolve_backend,
)
from repro.core import ops, scans, segmented
from repro.core.vector import Vector
from repro.faults import FaultInjector, FaultPlan, PrimitiveFault

BACKEND_SPECS = ["numpy", "blocked:7", "reference", "native:0:3"]


# --------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------- #

class TestSelection:
    def test_registry_lists_all_five(self):
        assert available_backends() == ["blocked", "distributed", "native",
                                        "numpy", "reference"]

    def test_get_backend_parses_specs(self):
        assert isinstance(get_backend("numpy"), NumPyBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)
        b = get_backend("blocked:4096")
        assert isinstance(b, BlockedBackend) and b.chunk == 4096
        d = get_backend("distributed:2:100")
        assert isinstance(d, DistributedBackend)
        assert d.workers == 2 and d.min_distribute == 100
        nat = get_backend("native:2:1024")
        assert isinstance(nat, NativeBackend)
        assert nat.threads == 2 and nat.block == 1024

    def test_unknown_name_and_stray_argument_raise(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")
        with pytest.raises(ValueError, match="takes no"):
            get_backend("numpy:8")

    def test_unknown_backend_error_is_helpful(self):
        """The registry error teaches the fix: every registered name, the
        spec syntaxes, and both selection channels."""
        with pytest.raises(ValueError) as err:
            get_backend("cuda")
        message = str(err.value)
        for name in available_backends():
            assert name in message
        for syntax in backend_specs():
            assert syntax in message
        assert "distributed" in message
        assert BACKEND_ENV_VAR in message
        assert "Machine(backend=...)" in message

    def test_invalid_env_value_names_the_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp:9")
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR):
            resolve_backend(None)
        # a bad argument to a known name is wrapped the same way
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked:many")
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR):
            resolve_backend(None)

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), NumPyBackend)
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked:32")
        env = resolve_backend(None)
        assert isinstance(env, BlockedBackend) and env.chunk == 32
        # an explicit argument beats the environment
        assert isinstance(resolve_backend("reference"), ReferenceBackend)
        inst = BlockedBackend(chunk=5)
        assert resolve_backend(inst) is inst
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_machine_accepts_name_instance_and_env(self, monkeypatch):
        assert Machine("scan", backend="blocked:9").backend.chunk == 9
        inst = ReferenceBackend()
        assert Machine("scan", backend=inst).backend is inst
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        assert isinstance(Machine("scan").backend, BlockedBackend)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert isinstance(Machine("scan").backend, NumPyBackend)

    def test_repr_and_snapshot_identify_the_backend(self):
        # every repr / snapshot names the engine that produced its numbers,
        # so a profile report or failure message is never ambiguous
        assert "backend='numpy'" in repr(Machine("scan", backend="numpy"))
        assert "backend='blocked'" in repr(Machine("scan", backend="blocked"))
        assert Machine("scan", backend="reference").snapshot().backend == "reference"
        m = Machine("scan", backend="blocked")
        with m.measure() as r:
            scans.plus_scan(m.vector(range(8)))
        assert r.delta.backend == "blocked"  # deltas keep the stamp

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()

    def test_blocked_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            BlockedBackend(chunk=0)


# --------------------------------------------------------------------- #
# The Vector copy/adopt contract (no-copy path for backend results)
# --------------------------------------------------------------------- #

class TestVectorAdoption:
    def test_public_constructor_copies(self):
        m = Machine("scan")
        src = np.arange(8)
        v = Vector(m, src)
        src[:] = -1
        assert v.to_list() == list(range(8))

    def test_adopt_does_not_copy(self):
        m = Machine("scan")
        arr = np.arange(8)
        v = Vector._adopt(m, arr)
        assert v.data is arr
        assert not arr.flags.writeable  # adoption freezes the buffer

    def test_machine_factories_copy_caller_arrays(self):
        m = Machine("scan")
        src = np.arange(5)
        v = m.vector(src)
        src[:] = 9
        assert v.to_list() == [0, 1, 2, 3, 4]

    def test_primitive_results_are_fresh_and_frozen(self):
        m = Machine("scan")
        v = m.vector([3, 1, 2])
        out = scans.plus_scan(v)
        assert not out.data.flags.writeable
        with pytest.raises(ValueError):
            out.data[0] = 99


# --------------------------------------------------------------------- #
# Differential program equivalence
# --------------------------------------------------------------------- #

PROGRAM_OPS = [
    "add3", "rsub", "double", "neg", "abs", "maximum0", "where_sign",
    "plus_scan", "max_scan", "min_scan", "or_scan", "back_plus_scan",
    "reverse", "shift2", "shift_neg", "rotate", "gather_rev",
    "combine_sum", "split", "pack_even", "enumerate", "plus_distribute",
    "seg_plus_scan", "seg_max_scan", "seg_min_scan", "seg_copy",
    "seg_back_copy", "seg_plus_distribute", "seg_min_distribute",
    "seg_split", "neighbor_flags",
]


def _seg_flags(m, n):
    sf = np.zeros(n, dtype=bool)
    if n:
        sf[::4] = True
        sf[0] = True
    return m.flags(sf)


def _apply(m, v, op):
    """One step of the differential program; always returns an int64 vector."""
    n = len(v)
    if op == "add3":
        return v + 3
    if op == "rsub":
        return 1000 - v
    if op == "double":
        return v * 2
    if op == "neg":
        return -v
    if op == "abs":
        return abs(v)
    if op == "maximum0":
        return v.maximum(0)
    if op == "where_sign":
        return (v > 0).where(v, -1)
    if op == "plus_scan":
        return scans.plus_scan(v)
    if op == "max_scan":
        return scans.max_scan(v)
    if op == "min_scan":
        return scans.min_scan(v)
    if op == "or_scan":
        return scans.or_scan(v.bit(0)).astype(np.int64)
    if op == "back_plus_scan":
        return scans.back_plus_scan(v)
    if op == "reverse":
        return v.reverse()
    if op == "shift2":
        return v.shift(2, fill=7)
    if op == "shift_neg":
        return v.shift(-1, fill=-7)
    if op == "rotate":
        if n == 0:
            return v
        return v.permute(m.vector((np.arange(n) + 1) % n))
    if op == "gather_rev":
        if n == 0:
            return v
        return v.gather(m.vector(np.arange(n)[::-1].copy()))
    if op == "combine_sum":
        if n == 0:
            return v
        idx = m.vector(np.arange(n) % max(n // 2, 1))
        return v.combine_write(idx, length=n, op="sum")
    if op == "split":
        return ops.split(v, v.bit(0))
    if op == "pack_even":
        return ops.pack(v, v.bit(0))
    if op == "enumerate":
        return ops.enumerate_(v.bit(0))
    if op == "plus_distribute":
        return scans.plus_distribute(v)
    if op == "neighbor_flags":
        return segmented.seg_flag_from_neighbor_change(
            v, _seg_flags(m, n)).astype(np.int64)
    # remaining ops are segmented; seg_plus_scan of an empty vector keeps
    # the seed's length-1 quirk, so they only compose at n > 0
    if n == 0:
        return v
    sf = _seg_flags(m, n)
    if op == "seg_plus_scan":
        return segmented.seg_plus_scan(v, sf)
    if op == "seg_max_scan":
        return segmented.seg_max_scan(v, sf)
    if op == "seg_min_scan":
        return segmented.seg_min_scan(v, sf)
    if op == "seg_copy":
        return segmented.seg_copy(v, sf)
    if op == "seg_back_copy":
        return segmented.seg_back_copy(v, sf)
    if op == "seg_plus_distribute":
        return segmented.seg_plus_distribute(v, sf)
    if op == "seg_min_distribute":
        return segmented.seg_min_distribute(v, sf)
    if op == "seg_split":
        return segmented.seg_split(v, v.bit(0), sf)
    raise AssertionError(f"unknown program op {op!r}")


def _run_program(backend_spec, values, program):
    m = Machine("scan", backend=backend_spec, allow_concurrent_write=True)
    v = m.vector(np.asarray(values, dtype=np.int64))
    trace = []
    for op in program:
        v = _apply(m, v, op)
        assert v.dtype == np.int64, op
        trace.append(v.to_list())
    return trace, m.steps, dict(m.counter.by_kind)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-10**6, 10**6), max_size=30),
    program=st.lists(st.sampled_from(PROGRAM_OPS), max_size=6),
)
def test_differential_programs_bit_identical(values, program):
    """Random primitive programs: every backend returns the same bits after
    every operation AND charges the same steps of the same kinds."""
    baseline = _run_program("numpy", values, program)
    for spec in ("blocked:7", "reference", "native:0:3"):
        assert _run_program(spec, values, program) == baseline, spec


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(-100, 100), min_size=1, max_size=60),
    chunk=st.integers(1, 13),
)
def test_blocked_chunk_size_never_changes_results(values, chunk):
    """The chunk size is an execution detail: any chunk gives the bits the
    whole-vector backend gives, for scans crossing chunk boundaries."""
    m_np = Machine("scan")
    m_bl = Machine("scan", backend=BlockedBackend(chunk=chunk))
    sf = np.zeros(len(values), dtype=bool)
    sf[::3] = True
    for fn in (
        lambda mm: scans.plus_scan(mm.vector(values)).to_list(),
        lambda mm: scans.max_scan(mm.vector(values), identity=0).to_list(),
        lambda mm: segmented.seg_plus_scan(
            mm.vector(values), mm.flags(sf)).to_list(),
        lambda mm: segmented.seg_max_scan(
            mm.vector(values), mm.flags(sf)).to_list(),
    ):
        assert fn(m_np) == fn(m_bl)


# --------------------------------------------------------------------- #
# Cost transparency: observation never changes what it observes
# --------------------------------------------------------------------- #

def _run_program_observed(backend_spec, values, program):
    """``_run_program`` with a Profiler attached and a span per op."""
    from repro.observe import Profiler, span

    m = Machine("scan", backend=backend_spec, allow_concurrent_write=True)
    profiler = Profiler()
    profiler.attach(m)
    try:
        v = m.vector(np.asarray(values, dtype=np.int64))
        trace = []
        for i, op in enumerate(program):
            with span(f"op[{i}]:{op}"):
                v = _apply(m, v, op)
            trace.append(v.to_list())
    finally:
        profiler.detach()
    return (trace, m.steps, dict(m.counter.by_kind)), profiler


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.integers(-10**6, 10**6), max_size=30),
    program=st.lists(st.sampled_from(PROGRAM_OPS), max_size=6),
)
def test_observed_programs_bit_identical(values, program):
    """Attaching spans/metrics is free in the cost model: the observed run
    returns the same bits and charges the same steps as the bare run, on
    every backend — and the profiler's own ledger agrees with the
    machine's."""
    for spec in BACKEND_SPECS:
        bare = _run_program(spec, values, program)
        observed, profiler = _run_program_observed(spec, values, program)
        assert observed == bare, spec
        assert profiler.total_steps == bare[1], spec
        assert dict(profiler.by_kind()) == bare[2], spec
        # each program op got its own child span under the root
        assert len(profiler.root.children) == len(program), spec


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_profiler_is_transparent_for_a_real_algorithm(spec):
    """End to end on the paper's radix sort: profiled and unprofiled runs
    are step- and bit-identical (the acceptance invariant behind the
    golden-baseline harness)."""
    from repro.algorithms import split_radix_sort
    from repro.observe import Profiler

    data = np.arange(64)[::-1] % 256

    def run(observe):
        m = Machine("scan", backend=spec)
        profiler = Profiler()
        if observe:
            profiler.attach(m)
        try:
            out = split_radix_sort(m.vector(data), number_of_bits=8)
        finally:
            if observe:
                profiler.detach()
        return out.to_list(), m.steps, dict(m.counter.by_kind)

    assert run(observe=True) == run(observe=False)


# --------------------------------------------------------------------- #
# Fault injection and reliability are backend-independent
# --------------------------------------------------------------------- #

class TestFaultsAcrossBackends:
    def _faulted_run(self, spec):
        plan = FaultPlan(primitive_faults=(
            PrimitiveFault(op_index=0, kind="elementwise", element=2, bit=1),
            PrimitiveFault(op_index=1, kind="scan", element=3, bit=5),
            PrimitiveFault(op_index=0, kind="permute", element=0, bit=2),
        ), seed=3)
        m = Machine("scan", backend=spec, fault_injector=FaultInjector(plan))
        v = m.vector([5, 1, 4, 1, 5, 9, 2, 6])
        a = v + 1                       # elementwise fault 0 lands here
        b = scans.plus_scan(a)          # scan op 0: clean
        c = scans.plus_scan(b)          # scan op 1: corrupted
        d = c.permute(m.vector([1, 0, 3, 2, 5, 4, 7, 6]))  # permute fault
        return (a.to_list(), b.to_list(), c.to_list(), d.to_list(),
                m.fault_counters.injected, m.steps)

    def test_same_faults_same_corruption_everywhere(self):
        baseline = self._faulted_run("numpy")
        assert baseline[4] == 3  # all three planned flips landed
        for spec in ("blocked:3", "reference"):
            assert self._faulted_run(spec) == baseline, spec

    @pytest.mark.parametrize("spec", BACKEND_SPECS)
    def test_checked_scan_detects_and_retries(self, spec):
        plan = FaultPlan(primitive_faults=(
            PrimitiveFault(op_index=0, kind="scan", element=3, bit=7),),
            seed=0)
        m = Machine("scan", backend=spec, reliability=True,
                    fault_injector=FaultInjector(plan))
        v = m.vector([2, 1, 2, 3, 5, 8, 13, 21])
        out = scans.plus_scan(v)
        assert out.to_list() == [0, 2, 3, 5, 8, 13, 21, 34]
        assert m.fault_counters.detected >= 1
        assert m.fault_counters.corrected == 1

    @pytest.mark.parametrize("spec", BACKEND_SPECS)
    def test_degraded_machine_still_correct(self, spec):
        plan = FaultPlan(probability=1.0, probability_kinds=("scan",), seed=0)
        m = Machine("scan", backend=spec, reliability=True,
                    fault_injector=FaultInjector(plan))
        v = m.vector(list(range(12)))
        out = scans.plus_scan(v)
        assert m.scan_unit_failed
        assert out.to_list() == np.concatenate(
            ([0], np.cumsum(np.arange(12))[:-1])).tolist()
        assert m.fault_counters.degraded_scans >= 1


# --------------------------------------------------------------------- #
# Segmented-extreme NaN carries (regression)
# --------------------------------------------------------------------- #

class TestSegExtremeNaNCarries:
    """The min carry between chunks/shards used NaN-propagating
    ``np.minimum`` while the in-chunk scan orders NaN as a largest
    value: with NaN inside the open segment crossing a boundary,
    blocked and reference returned ``nan`` where numpy returns the real
    running min.  Fixed by ``np.fmin`` carries everywhere."""

    VALUES = np.array([0.0] * 6 + [np.nan, 1.0])
    FLAGS = np.array([True] + [False] * 7)

    def _seg_min(self, spec):
        m = Machine("scan", backend=spec)
        return segmented.seg_min_scan(m.vector(self.VALUES),
                                      m.flags(self.FLAGS)).data

    def test_chunk_boundary_carry_matches_numpy(self):
        want = self._seg_min("numpy")
        assert want[7] == 0.0  # NaN ordered largest, not propagated
        for spec in ("blocked:7", "blocked:2", "reference", "native:0:7"):
            got = self._seg_min(spec)
            assert np.array_equal(got, want, equal_nan=True), spec

    def test_shard_split_carry_matches_numpy(self):
        from repro.backends.carry import monoid

        v, sf = self.VALUES, self.FLAGS
        seg_min = monoid("seg_extreme", v.dtype, np.inf, is_max=False)
        out_a, carry_a = seg_min.local(v[:4], sf[:4])
        out_b, _ = seg_min.local(v[4:], sf[4:])
        # shard b has no head: it receives shard a's open-segment min
        seg_min.apply(out_b, sf[4:], carry_a)
        got = np.concatenate([out_a, out_b])
        assert np.array_equal(got, self._seg_min("numpy"), equal_nan=True)


# --------------------------------------------------------------------- #
# Reference combining writes wrap silently (regression)
# --------------------------------------------------------------------- #

def test_reference_combine_sum_wraps_without_warning():
    """Two ``2**62`` values summed into one int64 cell wrap to ``-2**63``;
    the serial loop raised ``RuntimeWarning: overflow`` under ``-W error``
    where every vectorized backend wraps quietly."""
    values = np.array([2**62, 2**62], dtype=np.int64)
    index = np.array([0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ReferenceBackend().combine_write(values, index, 1, "sum", 0)
    assert got.tolist() == [-2**63]
    assert np.array_equal(
        got, NumPyBackend().combine_write(values, index, 1, "sum", 0))


# --------------------------------------------------------------------- #
# Blocked carries at scale (acceptance: vector much larger than a chunk)
# --------------------------------------------------------------------- #

class TestBlockedCarries:
    def test_plus_scan_across_many_chunks(self):
        n, chunk = 10_000, 64
        m = Machine("scan", backend=BlockedBackend(chunk=chunk))
        rng = np.random.default_rng(0)
        data = rng.integers(-10**9, 10**9, n)
        out = scans.plus_scan(m.vector(data))
        expected = np.concatenate(([0], np.cumsum(data)[:-1]))
        assert np.array_equal(out.data, expected)

    def test_float_sum_reduce_is_numpys_at_any_chunk(self):
        # reduce is one whole-vector call on every chunk size, so a float
        # sum rounds exactly as numpy's does (no per-chunk partials)
        values = np.random.default_rng(3).standard_normal(10_000)
        want = NumPyBackend().reduce(values, "sum")
        got = BlockedBackend(chunk=64).reduce(values, "sum")
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_wraparound_carries_match_whole_vector_semantics(self):
        # sums overflow int64 many times over; modular carries must agree
        n = 1_000
        data = np.full(n, np.iinfo(np.int64).max // 3)
        m = Machine("scan", backend=BlockedBackend(chunk=17))
        out = scans.plus_scan(m.vector(data))
        expected = np.concatenate(([0], np.cumsum(data)[:-1]))
        assert np.array_equal(out.data, expected)

    @pytest.mark.parametrize("spec,n", [
        ("blocked", 150_000), ("blocked:1", 3_000), ("native", 150_000),
        ("native:0:1000", 20_000)])
    @pytest.mark.parametrize("op", ["sum", "max", "min", "or", "and"])
    def test_seg_distribute_many_segments_per_chunk(self, spec, n, op):
        """Thousands of segments per chunk, segments straddling chunk
        ends and chunks opening on a head: the per-chunk ``reduceat``
        plus the open segment's carry must give numpy's table."""
        rng = np.random.default_rng(11)
        flags = rng.random(n) < 1 / 8
        flags[0] = flags[-1] = True
        flags[::1000] = True  # heads on native:0:1000's chunk starts
        if op in ("or", "and"):
            values = rng.random(n) < 0.5
        elif op == "sum":
            values = rng.integers(-2**62, 2**62, n)  # sums wrap
        else:
            values = rng.standard_normal(n)
            values[rng.random(n) < 0.01] = np.nan
        backend = get_backend(spec)
        want = NumPyBackend().seg_distribute(values, flags, op)
        got = backend.seg_distribute(values, flags, op)
        nan = values.dtype.kind == "f"
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=nan)
        assert np.array_equal(backend.seg_back_copy(values, flags),
                              NumPyBackend().seg_back_copy(values, flags),
                              equal_nan=nan)

    def test_temporaries_stay_chunk_bounded(self):
        import tracemalloc

        n, chunk = 200_000, 1_024
        data = np.arange(n)
        # three whole-vector float64 temporaries on the numpy backend; the
        # blocked backend holds them one 1k-element chunk at a time and
        # only the boolean result (1 byte/element) is materialized in full
        fn = lambda a: (np.sin(a) + np.cos(a) * np.exp(-a * 1e-9)) > 0.5

        m_bl = Machine("scan", backend=BlockedBackend(chunk=chunk))
        v = m_bl.vector(data)
        tracemalloc.start()
        v._unary(fn).data  # .data forces the (possibly lazy) computation
        _, peak_blocked = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        m_np = Machine("scan", backend="numpy")
        v = m_np.vector(data)
        tracemalloc.start()
        v._unary(fn).data
        _, peak_numpy = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert peak_blocked < peak_numpy / 2

    def test_eager_elementwise_holds_only_its_result(self):
        """An eager elementwise map carries nothing across chunks, so it
        is one whole-vector call at every chunk size: it peaks at its
        result, with no per-chunk pieces to concatenate (bounding its
        temporaries is fusion's job)."""
        import tracemalloc

        n = 1 << 20
        m = Machine("scan", backend=BlockedBackend(chunk=4_096),
                    fusion=False)
        a, b = m.vector(np.arange(n)), m.vector(np.arange(n, 0, -1))
        tracemalloc.start()
        out = (a + b).data
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.array_equal(out, np.full(n, n))
        assert peak <= 1.1 * out.nbytes

    @pytest.mark.parametrize("op", ["min", "max", "sum", "any"])
    def test_combine_write_estimate_covers_its_buffers(self, op):
        """``combine_write`` has one whole-vector body at every chunk
        size: its ``length``-sized buffers beside the result (min/max's
        untouched mask) are not chunk-bounded, so neither is its
        ``temp_bytes`` estimate, at ``n`` far past the chunk."""
        import tracemalloc

        rng = np.random.default_rng(0)
        length, n = 100_000, 200_000
        values = rng.integers(-50, 50, n)
        index = rng.integers(0, length, n)
        b = BlockedBackend(chunk=1_024)
        tracemalloc.start()
        out = b.combine_write(values, index, length, op, 7)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        estimate = b.temp_bytes("combine_write", out.nbytes)
        assert peak - out.nbytes <= estimate
        if op in ("min", "max"):
            assert estimate >= length  # the bool mask, one byte a cell
