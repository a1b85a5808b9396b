"""Chaos recovery: every failure mode, recovered, with exact bookkeeping.

A :class:`ChaosPlan` scripts real worker failures (``os._exit`` kills,
deadline-busting hangs, post-checksum bit flips) into specific distributed
ops, so these tests can assert three things chaos-free tests cannot:

* **results stay bit-identical** to the in-process oracle through kills,
  hangs, and corruptions, in phase 1 and phase 2;
* **the ledger tells the exact story** — which failure was classified as
  what, how many retries and respawns answered it, and the reconciliation
  invariant ``failures == retries + degraded_shards`` holds after every op;
* **degradation is a last resort** — host-side fallback happens only after
  the retry budget is spent (sticky failures), never before, and a fully
  retired pool flips to permanent in-process compute rather than failing.

Plans are frozen and seeded, so every count asserted here is deterministic.
"""
import numpy as np
import pytest

from repro.backends.distributed import DistributedBackend
from repro.backends.numpy_backend import NumPyBackend
from repro.cluster import ChaosAction, ChaosPlan, RetryPolicy

ORACLE = NumPyBackend()

#: short deadline so hang tests classify fast; near-zero backoff; a large
#: heartbeat interval so liveness pings never perturb the asserted counts
POLICY = RetryPolicy(op_deadline=1.5, backoff_base=0.01, backoff_cap=0.05,
                     heartbeat_interval=1000.0, max_worker_failures=10)


def make_backend(actions=(), policy=POLICY, workers=2, **plan_kw):
    chaos = ChaosPlan(actions=tuple(actions), **plan_kw)
    return DistributedBackend(workers=workers, min_distribute=1,
                              policy=policy, chaos=chaos)


def data(n=50_000, seed=0):
    return np.random.default_rng(seed).integers(0, 100, size=n)


class TestSingleFailureRecovery:
    """One scripted failure → one retry → one respawn → zero degradation."""

    @pytest.mark.parametrize("kind, classified_as", [
        ("kill", "crashes"),
        ("hang", "timeouts"),
        ("corrupt", "corrupt_replies"),
    ])
    def test_phase1_failure_recovers_bit_identically(self, kind,
                                                     classified_as):
        backend = make_backend([ChaosAction(op_id=0, worker=0, kind=kind)])
        try:
            values = data()
            got = backend.plus_scan(values)
            np.testing.assert_array_equal(got, ORACLE.plus_scan(values))

            led = backend.ledger
            assert getattr(led, classified_as) == 1
            assert led.failures == 1          # and nothing misclassified
            assert led.retries == 1
            assert led.respawns == 1
            assert led.degraded_shards == 0   # budget was never exhausted
            assert led.reconciles()
        finally:
            backend.shutdown()

    def test_phase2_kill_recovers_via_recompute(self):
        # phase 2 writes each shard's whole scan (its local scan with the
        # incoming carry folded in), so the killed shard's retry recomputes
        # it from the input and rewrites every byte; all-ones input gives
        # shard 1 a nonzero incoming carry to fold in
        backend = make_backend(
            [ChaosAction(op_id=0, worker=0, kind="kill", phase=2)])
        try:
            values = np.ones(50_000, dtype=np.int64)
            got = backend.plus_scan(values)
            np.testing.assert_array_equal(got, ORACLE.plus_scan(values))

            led = backend.ledger
            assert led.chaos_kills == 1
            assert led.crashes == 1
            assert led.retries == 1
            assert led.degraded_shards == 0
            assert led.reconciles()
        finally:
            backend.shutdown()

    def test_corruption_is_caught_by_checksum_not_luck(self):
        # a phase-1 corruption: phase 1 writes no output, so the worker
        # flips its reply's checksum instead, and only the host's checksum
        # verification classifies the reply as corrupt and retries it (a
        # flipped output byte in shared memory is phase 2's corruption,
        # pinned in tests/test_distributed.py::TestPhases)
        backend = make_backend(
            [ChaosAction(op_id=0, worker=1, kind="corrupt")])
        try:
            values = data(seed=3)
            np.testing.assert_array_equal(backend.plus_scan(values),
                                          ORACLE.plus_scan(values))
            assert backend.ledger.corrupt_replies == 1
            assert backend.ledger.reconciles()
        finally:
            backend.shutdown()

    def test_one_shot_actions_fire_once(self):
        # the same plan entry must not re-fire on the retry dispatch or on
        # the next op — two ops, one scripted kill, one total failure
        backend = make_backend([ChaosAction(op_id=0, worker=0, kind="kill")])
        try:
            values = data(seed=4)
            for _ in range(2):
                np.testing.assert_array_equal(backend.plus_scan(values),
                                              ORACLE.plus_scan(values))
            led = backend.ledger
            assert led.chaos_kills == 1
            assert led.failures == 1
            assert led.ops_distributed == 2
            assert led.reconciles()
        finally:
            backend.shutdown()


class TestDegradationLadder:
    """Host-side fallback only after the retry budget, never before."""

    def test_sticky_failure_degrades_after_exact_budget(self):
        # both workers die on every dispatch of op 0; with max_retries=1
        # each shard gets its one retry (also killed) and then degrades
        policy = RetryPolicy(op_deadline=1.5, backoff_base=0.01,
                             backoff_cap=0.05, heartbeat_interval=1000.0,
                             max_retries=1, max_worker_failures=10)
        backend = make_backend(
            [ChaosAction(op_id=0, worker=0, kind="kill", sticky=True),
             ChaosAction(op_id=0, worker=1, kind="kill", sticky=True)],
            policy=policy)
        try:
            values = data(seed=5)
            np.testing.assert_array_equal(backend.plus_scan(values),
                                          ORACLE.plus_scan(values))
            led = backend.ledger
            # 2 initial kills + 2 retry kills, every one classified
            assert led.chaos_kills == 4
            assert led.crashes == 4
            assert led.retries == 2           # exactly the budget, no more
            assert led.degraded_shards == 2   # then, and only then, degrade
            assert led.respawns == 4
            assert led.reconciles()
        finally:
            backend.shutdown()

    def test_retired_pool_degrades_to_permanent_local_compute(self):
        # max_worker_failures=1 retires a slot on its first failure; with
        # both slots sticky-killed the pool is declared broken, the op
        # completes host-side, and the *next* op never leaves the process
        policy = RetryPolicy(op_deadline=1.5, backoff_base=0.01,
                             heartbeat_interval=1000.0,
                             max_worker_failures=1)
        backend = make_backend(
            [ChaosAction(op_id=0, worker=0, kind="kill", sticky=True),
             ChaosAction(op_id=0, worker=1, kind="kill", sticky=True)],
            policy=policy)
        try:
            values = data(seed=6)
            np.testing.assert_array_equal(backend.plus_scan(values),
                                          ORACLE.plus_scan(values))
            led = backend.ledger
            assert led.dead_workers == 2
            assert led.pool_degradations == 1
            assert led.degraded_shards == 2
            assert led.retries == 0           # nobody left to retry on
            assert led.reconciles()
            assert backend.pool.broken and not backend.pool.available

            # the backend keeps answering — locally
            np.testing.assert_array_equal(backend.plus_scan(values),
                                          ORACLE.plus_scan(values))
            assert led.ops_local == 1
        finally:
            backend.shutdown()


class TestSeededRandomChaos:
    def test_same_seed_same_story(self):
        # kill_probability chaos is seeded: two fresh pools running the
        # same ops must log byte-for-byte the same campaign
        stories = []
        for _ in range(2):
            backend = make_backend([], kill_probability=0.5, seed=123)
            try:
                for s in range(3):
                    values = data(seed=s)
                    np.testing.assert_array_equal(
                        backend.plus_scan(values), ORACLE.plus_scan(values))
                led = backend.ledger
                assert led.reconciles()
                stories.append((led.chaos_kills, led.crashes, led.retries,
                                led.respawns, led.degraded_shards))
            finally:
                backend.shutdown()
        assert stories[0] == stories[1]
        assert stories[0][0] > 0  # the campaign actually killed someone


class TestPlanValidation:
    def test_rejects_unknown_kind_phase_and_negatives(self):
        with pytest.raises(ValueError, match="chaos kind"):
            ChaosAction(op_id=0, worker=0, kind="meteor")
        with pytest.raises(ValueError, match="phase"):
            ChaosAction(op_id=0, worker=0, kind="kill", phase=3)
        with pytest.raises(ValueError, match="non-negative"):
            ChaosAction(op_id=-1, worker=0, kind="kill")
        with pytest.raises(ValueError, match="kill_probability"):
            ChaosPlan(kill_probability=1.5)
