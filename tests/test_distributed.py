"""The distributed backend: sharded multi-process scans, done right.

The contract under test is the same one every backend signs — **bit-identical
results and identical step charges** — except this backend computes across
OS worker processes with shared memory and a carry exchange, so the tests
additionally pin:

* shard-kernel correctness for every carry-bearing primitive across dtypes,
  shard-count edge cases (n smaller than the pool, n == 1, carry-free
  shards), and a million-element vector;
* the round-efficient exclusive carry exchange (``ceil(lg p)`` rounds,
  order-correct for non-commutative combines);
* spec parsing (``distributed[:<workers>[:<min_n>]]``) and the helpful
  registry error (satellite: a typo'd backend name must teach the fix);
* Machine integration: step charges never depend on where the bytes were
  computed, even when chaos kills a worker mid-scan (the acceptance test);
* conformance-fuzzer parity against the numpy oracle.

The shared-memory arena a pool reuses across ops is pinned here too
(size-class growth and shrink, dtype and operand-set changes, chaos on a
reused ``out``, a respawned worker re-attaching).  Chaos recovery paths
get their own file (``test_distributed_chaos.py``),
as does teardown hygiene (``test_distributed_teardown.py``).
"""
import math
import os
import signal
import zlib

import numpy as np
import pytest

from repro import Machine
from repro.backends import get_backend
from repro.backends.distributed import DistributedBackend
from repro.backends.numpy_backend import NumPyBackend
from repro.cluster import (ChaosAction, ChaosPlan, RetryPolicy,
                           exchange_rounds, exclusive_exchange)
from repro.cluster import shardops
from repro.cluster.pool import WorkerPool
from repro.core import scans, segmented

# fast-failing policy for tests: generous deadline (the suite must pass on
# a loaded 1-CPU container), near-zero backoff so retries don't stall
QUICK = RetryPolicy(op_deadline=15.0, backoff_base=0.01, backoff_cap=0.05)

I64_MIN = np.iinfo(np.int64).min


@pytest.fixture(scope="module")
def dist():
    """One pool for the whole module's correctness tests (3 workers so a
    middle shard sees a non-trivial carry on both sides)."""
    backend = DistributedBackend(workers=3, min_distribute=1, policy=QUICK)
    yield backend
    backend.shutdown()


def _rng(seed=0):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------- #
# sharded correctness vs the in-process oracle
# --------------------------------------------------------------------------- #


class TestShardedCorrectness:
    oracle = NumPyBackend()

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint8", "float64"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 4097])
    def test_plus_scan(self, dist, dtype, n):
        values = _rng(n).integers(0, 50, size=n).astype(dtype)
        got = dist.plus_scan(values)
        want = self.oracle.plus_scan(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_plus_scan_uint8_wraps_like_the_oracle(self, dist):
        # the carry must wrap in the vector's dtype, not promote
        values = np.full(1000, 200, dtype=np.uint8)
        np.testing.assert_array_equal(dist.plus_scan(values),
                                      self.oracle.plus_scan(values))

    @pytest.mark.parametrize("n", [1, 3, 100, 4097])
    def test_max_scan(self, dist, n):
        values = _rng(n + 1).integers(-1000, 1000, size=n)
        identity = scans.max_identity(values.dtype)
        got = dist.max_scan(values, identity)
        np.testing.assert_array_equal(got,
                                      self.oracle.max_scan(values, identity))

    def test_max_scan_carry_free_shards(self, dist):
        # strictly decreasing: every incoming carry dominates; and strictly
        # increasing: every incoming carry is beaten — both must round-trip
        for values in (np.arange(999, -1, -1), np.arange(1000)):
            identity = scans.max_identity(values.dtype)
            np.testing.assert_array_equal(
                dist.max_scan(values, identity),
                self.oracle.max_scan(values, identity))

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 4097])
    def test_seg_plus_scan(self, dist, n):
        r = _rng(n + 2)
        values = r.integers(0, 100, size=n)
        flags = r.random(n) < 0.1
        flags[0] = True
        got = dist.seg_plus_scan(values, flags)
        np.testing.assert_array_equal(
            got, self.oracle.seg_plus_scan(values, flags))

    def test_seg_plus_scan_one_giant_segment(self, dist):
        # no interior heads: the segmented carry must flow across every
        # shard boundary exactly like the unsegmented one
        n = 3000
        values = _rng(5).integers(0, 100, size=n)
        flags = np.zeros(n, dtype=bool)
        flags[0] = True
        np.testing.assert_array_equal(
            dist.seg_plus_scan(values, flags),
            self.oracle.seg_plus_scan(values, flags))

    @pytest.mark.parametrize("is_max", [True, False])
    @pytest.mark.parametrize("n", [1, 7, 100, 4097])
    def test_seg_extreme_scan(self, dist, is_max, n):
        r = _rng(n + 3)
        values = r.integers(-500, 500, size=n)
        flags = r.random(n) < 0.07
        flags[0] = True
        identity = (scans.max_identity(values.dtype) if is_max
                    else scans.min_identity(values.dtype))
        got = dist.seg_extreme_scan(values, flags, identity, is_max=is_max)
        want = self.oracle.seg_extreme_scan(values, flags, identity,
                                            is_max=is_max)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    def test_reduce(self, dist, op):
        r = _rng(11)
        values = r.integers(-1000, 1000, size=5000)
        assert dist.reduce(values, op) == self.oracle.reduce(values, op)
        # a reduce runs in process, so no shard boundary re-associates a
        # float sum: it is numpy's, bit for bit
        for n in (5000, 100_003):
            floats = r.standard_normal(n)
            got, want = dist.reduce(floats, op), self.oracle.reduce(floats, op)
            assert got.dtype == want.dtype and got == want, (n, got, want)

    def test_reduce_never_spawns_a_pool(self):
        backend = DistributedBackend(workers=2, min_distribute=1,
                                     policy=QUICK)
        try:
            values = _rng(12).integers(0, 100, size=10_000)
            assert backend.reduce(values, "sum") == values.sum()
            assert backend._pool is None
        finally:
            backend.shutdown()

    def test_million_element_scan(self, dist):
        values = _rng(42).integers(0, 1000, size=1_000_003)
        np.testing.assert_array_equal(dist.plus_scan(values),
                                      self.oracle.plus_scan(values))

    def test_inputs_are_not_mutated(self, dist):
        values = _rng(1).integers(0, 100, size=10_000)
        before = values.copy()
        dist.plus_scan(values)
        np.testing.assert_array_equal(values, before)

    def test_small_vectors_stay_local(self):
        backend = DistributedBackend(workers=2, min_distribute=1000,
                                     policy=QUICK)
        try:
            backend.plus_scan(np.arange(10))
            # below the threshold no pool is ever spawned
            assert backend._pool is None
        finally:
            backend.shutdown()


# --------------------------------------------------------------------------- #
# the persistent shared-memory arena
# --------------------------------------------------------------------------- #


def _private(actions=(), workers=2):
    chaos = ChaosPlan(actions=tuple(actions)) if actions else None
    return DistributedBackend(workers=workers, min_distribute=1,
                              policy=QUICK, chaos=chaos)


def _segment_sizes(backend) -> dict:
    return {role: os.path.getsize(os.path.join("/dev/shm", name))
            for role, name in backend.pool.arena.names.items() if name}


class TestArenaReuse:
    """Every op after the first runs in segments an earlier op left
    behind; none of that may ever show in a result."""

    oracle = NumPyBackend()

    def test_growing_then_shrinking_across_size_classes(self):
        backend = _private()
        try:
            for i, n in enumerate((1000, 1024, 5000, 70_000, 300, 5000, 1)):
                r = _rng(i)
                values = r.integers(-1000, 1000, size=n)
                flags = r.random(n) < 0.05
                flags[0] = True
                np.testing.assert_array_equal(
                    backend.plus_scan(values),
                    self.oracle.plus_scan(values))
                np.testing.assert_array_equal(
                    backend.seg_plus_scan(values, flags),
                    self.oracle.seg_plus_scan(values, flags))
                # each role sits in the op's power-of-two size class
                sizes = _segment_sizes(backend)
                assert set(sizes) == {"values", "flags", "out"}
                for role, nbytes in (("values", values.nbytes),
                                     ("flags", flags.nbytes),
                                     ("out", values.nbytes)):
                    assert nbytes <= sizes[role] < 2 * nbytes
            # workers followed every replacement: no shard needed the
            # retry ladder (which would hide a stale attachment)
            assert backend.ledger.failures == 0
        finally:
            backend.shutdown()

    def test_flag_and_flagless_ops_interleaved_with_reduce(self, dist):
        r = _rng(17)
        n = 6000
        values = r.integers(-500, 500, size=n)
        flags = r.random(n) < 0.03
        flags[0] = True
        imax = scans.max_identity(values.dtype)
        imin = scans.min_identity(values.dtype)
        for step in range(2):
            values = values[::-1].copy() if step else values
            np.testing.assert_array_equal(dist.plus_scan(values),
                                          self.oracle.plus_scan(values))
            np.testing.assert_array_equal(
                dist.seg_plus_scan(values, flags),
                self.oracle.seg_plus_scan(values, flags))
            assert dist.reduce(values, "sum") == self.oracle.reduce(values,
                                                                    "sum")
            np.testing.assert_array_equal(
                dist.seg_extreme_scan(values, flags, imax, is_max=True),
                self.oracle.seg_extreme_scan(values, flags, imax,
                                             is_max=True))
            np.testing.assert_array_equal(dist.max_scan(values, imax),
                                          self.oracle.max_scan(values, imax))
            assert dist.reduce(values, "max") == self.oracle.reduce(values,
                                                                    "max")
            np.testing.assert_array_equal(
                dist.seg_extreme_scan(values, ~flags, imin, is_max=False),
                self.oracle.seg_extreme_scan(values, ~flags, imin,
                                             is_max=False))

    @pytest.mark.parametrize("int_dtype, float_dtype",
                             [("int64", "float64"), ("int32", "float32")])
    def test_float_op_after_int_op_of_the_same_byte_size(self, int_dtype,
                                                          float_dtype):
        backend = _private()
        try:
            n = 5000
            ints = _rng(3).integers(0, 50, size=n).astype(int_dtype)
            np.testing.assert_array_equal(backend.plus_scan(ints),
                                          self.oracle.plus_scan(ints))
            names = dict(backend.pool.arena.names)
            floats = _rng(4).integers(0, 50, size=n).astype(float_dtype)
            got = backend.plus_scan(floats)
            assert got.dtype == np.dtype(float_dtype)
            np.testing.assert_array_equal(got, self.oracle.plus_scan(floats))
            fmax = _rng(5).standard_normal(n).astype(float_dtype)
            ident = scans.max_identity(fmax.dtype)
            np.testing.assert_array_equal(backend.max_scan(fmax, ident),
                                          self.oracle.max_scan(fmax, ident))
            assert backend.pool.arena.names == names  # same segments reused
        finally:
            backend.shutdown()

    @pytest.mark.parametrize("kind", ["kill", "corrupt"])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_chaos_after_a_same_size_op_never_returns_stale_out(self, kind,
                                                                phase):
        # op 0 leaves its result in the arena's out segment; op 1, the same
        # size with different values, loses a shard to chaos (worker 0 runs
        # shard 0 in both phases)
        backend = _private([ChaosAction(op_id=1, worker=0, kind=kind,
                                        phase=phase)])
        try:
            n = 9000
            first = _rng(8).integers(1, 100, size=n)
            second = _rng(9).integers(1, 100, size=n)
            flags = np.zeros(n, dtype=bool)
            flags[::700] = True
            kept = backend.seg_plus_scan(first, flags)
            np.testing.assert_array_equal(
                kept, self.oracle.seg_plus_scan(first, flags))
            got = backend.seg_plus_scan(second, flags)
            np.testing.assert_array_equal(
                got, self.oracle.seg_plus_scan(second, flags))
            # a returned result is the caller's, not a view of the arena
            np.testing.assert_array_equal(
                kept, self.oracle.seg_plus_scan(first, flags))
            led = backend.ledger
            assert led.chaos_kills + led.chaos_corruptions == 1
            assert led.retries == 1 and led.reconciles()
        finally:
            backend.shutdown()

    def test_respawned_worker_reattaches_to_the_arena(self):
        backend = _private()
        try:
            n = 8000
            values = _rng(12).integers(0, 1000, size=n)
            backend.plus_scan(values)
            names = dict(backend.pool.arena.names)
            victim = backend.pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            backend.pool._slots[0].process.join(timeout=10.0)
            assert victim not in backend.pool.worker_pids()
            # the next op's health sweep respawns the slot; the new process
            # must attach to the existing segments and compute its shard
            for seed in (13, 14):
                values = _rng(seed).integers(0, 1000, size=n)
                np.testing.assert_array_equal(backend.plus_scan(values),
                                              self.oracle.plus_scan(values))
            pids = backend.pool.worker_pids()
            assert victim not in pids and len(pids) == 2
            assert backend.ledger.respawns == 1
            assert backend.ledger.failures == 0  # nothing was retried
            assert backend.pool.arena.names == names
        finally:
            backend.shutdown()


# --------------------------------------------------------------------------- #
# reduce-then-scan: what each phase writes and hashes
# --------------------------------------------------------------------------- #


class TestPhases:
    """Phase 1 ships carries and writes no output; phase 2 scans every
    shard into ``out`` once.  A corruption in either is caught by its own
    checksum and retried once."""

    oracle = NumPyBackend()

    @staticmethod
    def _scan(backend, op, values, flags):
        if op == "plus_scan":
            return backend.plus_scan(values)
        return backend.seg_extreme_scan(values, flags, I64_MIN, is_max=True)

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("op", ["plus_scan", "seg_max_scan"])
    def test_corruption_in_either_phase_is_caught_and_retried(
            self, op, phase, monkeypatch):
        backend = _private([ChaosAction(op_id=0, worker=1, kind="corrupt",
                                        phase=phase)])
        try:
            n = 9001
            values = _rng(21).integers(-1000, 1000, size=n)
            flags = _rng(22).random(n) < 0.01
            flags[0] = True
            want = self._scan(self.oracle, op, values, flags)
            # every failed checksum, with the host's view of what it covered
            failed = []
            check = WorkerPool._checksum_ok

            def spy(pool, job, cmd, reply):
                ok = check(pool, job, cmd, reply)
                if not ok:
                    out = (None if cmd["out"] is None else np.array(
                        job.view("out")[cmd["start"]:cmd["stop"]]))
                    failed.append((cmd["phase"], cmd["start"], out))
                return ok

            monkeypatch.setattr(WorkerPool, "_checksum_ok", spy)
            np.testing.assert_array_equal(
                self._scan(backend, op, values, flags), want)

            led = backend.ledger
            assert led.chaos_corruptions == 1
            assert led.corrupt_replies == 1 and led.failures == 1
            assert led.retries == 1 and led.degraded_shards == 0
            assert led.reconciles()
            # two shards, each dispatched once per phase, plus the retry
            assert led.shards == 5

            [(got_phase, start, out)] = failed
            assert got_phase == phase
            if phase == 1:
                # phase 1 writes nothing: the worker flipped the checksum
                # of its carry
                assert out is None
            else:
                # a real bit of the scanned shard, flipped in shared memory
                shard = want[start:start + len(out)]
                assert (out != shard).sum() == 1
                assert out[0] ^ shard[0] == 1
        finally:
            backend.shutdown()


# --------------------------------------------------------------------------- #
# the exclusive carry exchange
# --------------------------------------------------------------------------- #


class TestCarryExchange:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 16, 33])
    def test_round_count_matches_traff_bound(self, p):
        carries = list(range(p))
        _, rounds = exclusive_exchange(carries, lambda a, b: a + b, 0)
        expected = math.ceil(math.log2(p)) if p > 1 else 0
        assert rounds == expected
        assert exchange_rounds(p) == expected

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 16, 31])
    def test_matches_serial_exclusive_fold(self, p):
        carries = list(_rng(p).integers(-100, 100, size=p))
        exclusive, _ = exclusive_exchange(carries, lambda a, b: a + b, 0)
        acc, want = 0, []
        for c in carries:
            want.append(acc)
            acc += c
        assert exclusive == want

    def test_order_correct_for_non_commutative_combine(self):
        # string concatenation is associative but not commutative: any
        # operand-order mistake in the doubling schedule shows up here
        carries = list("abcdefg")
        exclusive, _ = exclusive_exchange(carries, lambda a, b: a + b, "")
        assert exclusive == ["", "a", "ab", "abc", "abcd", "abcde", "abcdef"]


# --------------------------------------------------------------------------- #
# shard kernels and checksums
# --------------------------------------------------------------------------- #


class TestShardOps:
    def test_plus_scan_shard_is_exclusive_with_total_carry(self):
        values = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        out, carry = shardops.plus_scan_shard(values)
        np.testing.assert_array_equal(out, [0, 3, 4, 8, 9])
        assert carry == 14 and carry.dtype == np.int64

    def test_plus_scan_shard_carry_wraps_in_dtype(self):
        values = np.full(3, 200, dtype=np.uint8)
        _, carry = shardops.plus_scan_shard(values)
        assert carry == np.uint8(600 % 256)

    def test_checksum_distinguishes_out_carry_and_none(self):
        out = np.arange(8)
        base = shardops.shard_checksum(out, np.int64(5))
        assert shardops.shard_checksum(out, np.int64(6)) != base
        assert shardops.shard_checksum(out, None) != base
        flipped = out.copy()
        flipped[3] ^= 1
        assert shardops.shard_checksum(flipped, np.int64(5)) != base

    @pytest.mark.parametrize("out", [
        np.arange(-5, 11, dtype=np.int64), np.arange(40, dtype=np.uint8),
        np.linspace(-1.0, 1.0, 9), np.array([True, False, True]),
        np.arange(30, dtype=np.int32)[7:19], np.empty(0), None,
    ], ids=["int64", "uint8", "float64", "bool", "slice", "empty", "none"])
    @pytest.mark.parametrize("carry", [
        None, np.int64(-3), np.float64(0.5), (np.int64(7), True),
        (None, False),
    ], ids=["none", "int", "float", "pair", "empty-pair"])
    def test_checksum_matches_the_concatenated_bytes(self, out, carry):
        payload = b"" if out is None else np.ascontiguousarray(out).tobytes()
        want = zlib.crc32(payload + shardops.carry_bytes(carry))
        assert shardops.shard_checksum(out, carry) == want

    def test_carry_bytes_tags_shapes_apart(self):
        # a scalar carry, a pair carry, and None must never collide just
        # because their payload bytes happen to match
        assert shardops.carry_bytes(None) != shardops.carry_bytes(np.int64(0))
        assert (shardops.carry_bytes((np.int64(1), True))
                != shardops.carry_bytes(np.int64(1)))


# --------------------------------------------------------------------------- #
# spec parsing and the helpful registry error (satellite)
# --------------------------------------------------------------------------- #


class TestSpec:
    def test_bare_and_full_specs(self):
        assert get_backend("distributed").workers == 4
        b = get_backend("distributed:8")
        assert (b.workers, b.min_distribute) == (8, 65536)
        b = get_backend("distributed:2:1")
        assert (b.workers, b.min_distribute) == (2, 1)

    @pytest.mark.parametrize("spec, match", [
        ("distributed:0", "worker count"),
        ("distributed:2:0", "min_distribute"),
        ("distributed:two", "must be integers"),
        ("distributed:2:1:0", "at most two"),
    ])
    def test_bad_specs_explain_themselves(self, spec, match):
        with pytest.raises(ValueError, match=match):
            get_backend(spec)
        # every spec error repeats the syntax or the offending value
        with pytest.raises(ValueError) as err:
            get_backend(spec)
        assert ("distributed" in str(err.value))


# --------------------------------------------------------------------------- #
# Machine integration: identical steps, chaos or not
# --------------------------------------------------------------------------- #


def _program(m: Machine):
    """A small mixed program touching every distributed primitive."""
    r = _rng(99)
    data = r.integers(0, 100, size=5000).tolist()
    flags = (r.random(5000) < 0.05)
    flags[0] = True
    v = m.vector(data)
    f = m.vector(flags.tolist())
    outs = [
        scans.plus_scan(v).to_list(),
        scans.max_scan(v).to_list(),
        segmented.seg_plus_scan(v, f).to_list(),
        segmented.seg_max_scan(v, f).to_list(),
        scans.plus_reduce(v),
    ]
    return outs, m.steps


class TestMachineIntegration:
    def test_results_and_steps_match_numpy(self, dist):
        got, got_steps = _program(Machine("scan", backend=dist))
        want, want_steps = _program(Machine("scan", backend="numpy"))
        assert got == want
        assert got_steps == want_steps

    def test_env_var_selects_distributed(self, monkeypatch, dist):
        monkeypatch.setenv("REPRO_BACKEND", "distributed:2:1")
        m = Machine("scan")
        assert isinstance(m.backend, DistributedBackend)
        assert (m.backend.workers, m.backend.min_distribute) == (2, 1)


class TestLocalLedger:
    def test_local_scans_before_the_pool_are_counted(self):
        # the first two scans stay local before any pool exists; the
        # ledger the pool brings must still count them
        backend = DistributedBackend(workers=2, min_distribute=1000,
                                     policy=QUICK)
        try:
            for n in (10, 10, 5000, 10):
                values = np.arange(n, dtype=np.int64)
                np.testing.assert_array_equal(backend.plus_scan(values),
                                              NumPyBackend().plus_scan(values))
            led = backend.ledger
            assert (led.ops, led.ops_distributed, led.ops_local) == (4, 1, 3)
            assert led.ops == led.ops_distributed + led.ops_local
        finally:
            backend.shutdown()


class TestAcceptance:
    """ISSUE acceptance: a seeded ChaosPlan kills a worker mid-scan of a
    million-element vector; results and step charges stay bit-identical to
    numpy and the ledger shows the retry/respawn that saved the op."""

    def test_chaos_kill_mid_million_element_scan(self):
        chaos = ChaosPlan(actions=(
            ChaosAction(op_id=0, worker=1, kind="kill", phase=1),), seed=7)
        backend = DistributedBackend(workers=3, min_distribute=1,
                                     policy=QUICK, chaos=chaos)
        try:
            n = 1_000_003
            data = _rng(7).integers(0, 1000, size=n)

            m = Machine("scan", backend=backend)
            v = m.vector(data.tolist())
            got = np.asarray(scans.plus_scan(v).data)

            oracle = Machine("scan", backend="numpy")
            want = np.asarray(scans.plus_scan(oracle.vector(data.tolist())).data)

            np.testing.assert_array_equal(got, want)
            assert m.steps == oracle.steps

            led = backend.ledger
            assert led.chaos_kills == 1
            assert led.crashes == 1
            assert led.retries == 1
            assert led.respawns == 1
            assert led.degraded_shards == 0
            assert led.reconciles()
        finally:
            backend.shutdown()


# --------------------------------------------------------------------------- #
# conformance-fuzzer parity (the cross-backend differential harness)
# --------------------------------------------------------------------------- #


class TestFuzzerConformance:
    def test_seeded_corpus_agrees_with_numpy(self):
        from repro.verify import generate_cases, run_cases

        outcomes = run_cases(generate_cases(5, 40),
                             engines=("numpy", "distributed:2:1"))
        bad = [d for o in outcomes for d in o.divergences]
        assert not bad, "\n".join(d.describe() for d in bad)
