"""Unit tests for the lazy expression DAG and fused scan pipelines.

The differential property suite (eager vs lazy on every backend) lives in
``test_fusion_properties.py``; this file pins the mechanics: when chains
defer, what forces them, how charges stay logical, how plans compile, and
how the toggles surface.
"""
from operator import methodcaller

import numpy as np
import pytest

from repro import Machine
from repro.backends.blocked import BlockedBackend
from repro.backends.plan import FusedPlan, PlanStep
from repro.core import scans, segmented
from repro.core.lazy import LazyNode, compile_plan, probe_dtype
from repro.faults import FaultInjector, FaultPlan


def fused(backend="blocked"):
    return Machine("scan", backend=backend, fusion=True)


def eager():
    return Machine("scan", fusion=False)


class TestLaziness:
    def test_elementwise_defers_until_observed(self):
        m = fused()
        w = m.vector([1, 2, 3]) + 1
        assert w._expr is not None          # pending
        assert m.steps == 1                 # but already charged
        assert w.to_list() == [2, 3, 4]
        assert w._expr is None              # materialized
        assert m.steps == 1                 # observation charged nothing

    def test_len_and_dtype_do_not_force(self):
        m = fused()
        w = (m.vector([1.5, 2.5]) + 1) < 4
        assert len(w) == 2
        assert w.dtype == np.bool_
        assert w._expr is not None

    def test_forcing_is_idempotent(self):
        m = fused()
        w = m.vector([1, 2]) * 3
        first = w.data
        assert w.data is first

    def test_chain_executes_as_one_backend_op(self):
        m = fused()
        events = []
        m.backend.observers.append(events.append)
        v = m.vector([1, 2, 3, 4])
        ((v * 2 + 1) - v).data
        assert [e.op for e in events] == ["fused_pipeline"]

    def test_long_chain_does_not_recurse(self):
        m = fused()
        v = m.vector([1, 2, 3])
        for _ in range(5000):
            v = v + 1
        assert v.to_list() == [5001, 5002, 5003]

    def test_diamond_dag_evaluates_shared_node_once(self):
        m = fused()
        a = m.vector([1, 2, 3]) + 1
        d = (a * 2) + (a * 3)
        plan = compile_plan(d._pending_node())
        # a+1 appears once, not once per consumer
        assert len(plan.steps) == 4
        assert d.to_list() == [10, 15, 20]

    def test_caller_array_snapshotted_at_build(self):
        m = fused()
        rhs = np.array([10, 20, 30])
        w = m.vector([1, 2, 3]) + rhs
        rhs[:] = 0  # mutated after build: must not change the deferred value
        assert w.to_list() == [11, 22, 33]

    def test_repr_shows_values(self):
        m = fused()
        assert "2" in repr(m.vector([1]) + 1)


class TestCharges:
    def _chain(self, m):
        v = m.vector([3, 1, 4, 1, 5, 9, 2, 6])
        s = scans.plus_scan((v * v + 1) - (v // 2))
        t = scans.max_scan(v.astype(np.int64))
        (s + t).data
        return m.snapshot()

    def test_charges_bit_identical_eager_vs_lazy(self):
        lazy_snap = self._chain(fused())
        eager_snap = self._chain(eager())
        assert lazy_snap.steps == eager_snap.steps
        assert lazy_snap.ops == eager_snap.ops
        assert lazy_snap.by_kind == eager_snap.by_kind

    def test_never_forced_chain_is_still_charged(self):
        m, me = fused(), eager()
        for mm in (m, me):
            v = mm.vector([1, 2, 3])
            (v + 1) * 2  # built, never observed
        assert m.steps == me.steps == 2

    def test_blocked_charges_match_numpy_charges(self):
        a = self._chain(fused("numpy"))
        b = self._chain(Machine("scan", backend="blocked:3", fusion=True))
        assert a.by_kind == b.by_kind


class TestNonFusingBackends:
    """Backends without a chunked executor never build a DAG: a machine
    with fusion allowed runs eagerly there, with eager results and
    charges."""

    @pytest.mark.parametrize("backend", ["numpy", "reference",
                                         "distributed:2"])
    def test_fusion_allowed_still_runs_eagerly(self, backend):
        runs = {}
        for fusion in (True, False):
            m = Machine("scan", backend=backend, fusion=fusion)
            v = m.vector([3, 1, 4, 1, 5, 9, 2, 6])
            w = (v * v + 1) - (v // 2)
            assert w._expr is None and not m.fusion_enabled
            s = scans.plus_scan(w)
            t = scans.max_scan(v.astype(np.int64))
            runs[fusion] = ((s + t).to_list(), m.snapshot())
        (out_f, snap_f), (out_e, snap_e) = runs[True], runs[False]
        assert out_f == out_e
        assert snap_f.steps == snap_e.steps
        assert snap_f.by_kind == snap_e.by_kind

    def test_fusing_backends_declare_it(self):
        assert Machine("scan", backend="blocked", fusion=True).fusion_enabled
        assert Machine("scan", backend="native", fusion=True).fusion_enabled
        # and the switch turns it off there: elementwise ops run eagerly
        m = Machine("scan", backend="blocked", fusion=False)
        assert not m.fusion_enabled
        assert (m.vector([1]) + 1)._expr is None


class TestToggles:
    def test_default_is_on(self):
        assert Machine("scan").fusion is True

    def test_repr_and_snapshot_surface_fusion(self):
        m = fused()
        assert "fusion=on" in repr(m)
        assert m.snapshot().fusion is True
        me = eager()
        assert "fusion=off" in repr(me)
        assert me.snapshot().fusion is False

    def test_snapshot_delta_keeps_fusion(self):
        m = fused()
        with m.measure() as r:
            (m.vector([1, 2]) + 1).data
        assert r.delta.fusion is True


class TestForcingBoundaries:
    def test_permute_and_gather_force(self):
        m = fused()
        w = m.vector([10, 20, 30]) + 1
        idx = m.vector([2, 0, 1])
        assert w.permute(idx).to_list() == [21, 31, 11]
        assert w.gather(idx).to_list() == [31, 11, 21]

    def test_single_cell_access_forces(self):
        m = fused()
        w = m.vector([5, 6]) * 10
        assert w.first() == 50 and w.last() == 60

    def test_segmented_ops_force(self):
        m = fused()
        w = m.vector([1, 2, 3, 4]) + 1
        sf = m.flags([True, False, True, False])
        assert segmented.seg_plus_scan(w, sf).to_list() == [0, 2, 0, 4]

    def test_reduce_forces(self):
        m = fused()
        assert scans.plus_reduce(m.vector([1, 2, 3]) * 2) == 12

    def test_lazy_operand_feeds_lazy_consumer(self):
        m = fused()
        v = m.vector([1, 2, 3])
        f = (v + 1) > 2
        w = f.where(v * 10, -1)
        assert w.to_list() == [-1, 20, 30]


class TestTerminalFusion:
    def test_scan_of_pending_chain_is_one_backend_op(self):
        m = fused()
        events = []
        m.backend.observers.append(events.append)
        v = m.vector([1, 2, 3, 4])
        out = scans.plus_scan(v * 2)
        assert out.to_list() == [0, 2, 6, 12]
        assert [e.op for e in events] == ["fused_pipeline"]

    def test_bool_chain_widens_like_eager(self):
        m, me = fused(), eager()
        for mm in (m, me):
            v = mm.vector([1, 0, 2, 0, 3])
            out = scans.plus_scan(v != 0)
            assert out.to_list() == [0, 1, 1, 2, 2]
            assert out.dtype == np.int64
        assert m.steps == me.steps

    def test_max_scan_identity_respected(self):
        m = fused()
        v = m.vector([3, 1, 4])
        assert scans.max_scan(v * 1, identity=0).to_list() == [0, 3, 3]

    def test_blocked_terminal_carries_match_whole_vector(self):
        n = 1000
        data = np.full(n, np.iinfo(np.int64).max // 5)
        m = Machine("scan", backend=BlockedBackend(chunk=17), fusion=True)
        out = scans.plus_scan(m.vector(data) * 2 + 1)
        w = data * 2 + 1
        expected = np.concatenate(([0], np.cumsum(w)[:-1]))
        assert np.array_equal(out.data, expected)

    def test_blocked_fused_temp_bytes_chunk_bounded(self):
        chunk = 64
        m = Machine("scan", backend=BlockedBackend(chunk=chunk), fusion=True)
        events = []
        m.backend.observers.append(events.append)
        v = m.vector(np.arange(100_000))
        scans.plus_scan((v * 2 + 1) - (v // 3)).data
        (event,) = [e for e in events if e.op == "fused_pipeline"]
        assert event.temp_bytes <= 4 * chunk * 8  # 4 steps, 8-byte elements
        assert event.out_bytes == 100_000 * 8


class TestFaultsAndReliability:
    def test_fault_injector_suspends_fusion(self):
        m = Machine("scan", backend="blocked", fusion=True,
                    fault_injector=FaultInjector(FaultPlan()))
        assert m.fusion is True and m.fusion_enabled is False
        assert (m.vector([1]) + 1)._expr is None  # eager despite fusion=on

    def test_checked_scans_coexist_with_fusion(self):
        m = Machine("scan", backend="blocked", reliability=True,
                    fusion=True)
        v = m.vector([1, 2, 3, 4])
        assert scans.plus_scan(v + 1).to_list() == [0, 2, 5, 9]


class TestPlanStructures:
    def test_where_and_astype_steps_match_eager(self):
        # a step holds the eager path's own callable: np.where and
        # methodcaller("astype", ...) evaluate as-is, chunk by chunk
        flags = np.array([True, False, True, True, False])
        a = np.arange(5, dtype=np.int16)
        to_f32 = methodcaller("astype", np.float32)
        steps = (PlanStep(fn=np.where, dtype=np.dtype(np.int16),
                          args=(("in", 0), ("in", 1), ("const", -1))),
                 PlanStep(fn=to_f32, dtype=np.dtype(np.float32),
                          args=(("step", 0),)))
        plan = FusedPlan(inputs=(flags, a), steps=steps, n=5)
        want = to_f32(np.where(flags, a, -1))
        for size in (2, 5):
            got = plan.evaluate(size)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            FusedPlan(inputs=(), steps=(), n=0)

    def test_unknown_terminal_rejected(self):
        step = PlanStep(fn=methodcaller("astype", int), dtype=np.dtype(int),
                        args=(("in", 0),))
        with pytest.raises(ValueError, match="unknown terminal"):
            FusedPlan(inputs=(np.arange(3),), steps=(step,), n=3,
                      terminal="sort_scan")

    def test_probe_matches_numpy_promotion(self):
        a = np.arange(3, dtype=np.int8)
        node = LazyNode(np.add, (a, 1), 3, probe_dtype(np.add, (a, 1)))
        assert node.dtype == np.add(a, 1).dtype

    def test_describe_names_the_chain(self):
        m = fused()
        v = m.vector([1, 2])
        plan = compile_plan((v + 1)._pending_node(), terminal="plus_scan")
        assert "add" in plan.describe() and "plus_scan" in plan.describe()
