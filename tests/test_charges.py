"""The closed-form charges against the per-call formulas they replace.

``Machine`` derives its charging constants once, at construction, from
its model's capabilities and its processor count, and every
``charge_*`` is then one frame of closed-form arithmetic.
:class:`Oracle` below is the formula set as ``Machine`` computed it
before that (block, effective ``p``, cross-scan cost and fork span each
a method looked up per charge), kept here as the reference.  Every
model, processor count and charge kind, including the ``times`` forms
and the segmented constructions, must move ``steps``, ``ops``,
``by_kind``, ``peak_elements``, the fork ledger, the listener event
stream and the ``scan.invocations`` / ``scan.n`` metrics exactly as
the oracle does.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CapabilityError, Machine
from repro._util import ceil_div, ceil_log2
from repro.machine import CAPABILITIES, MODEL_NAMES, StepCounter
from repro.observe.metrics import registry


class Oracle:
    """The charge formulas computed per call, as ``Machine`` methods."""

    def __init__(self, model, num_processors, allow_concurrent_write):
        self.model = model
        self.capabilities = CAPABILITIES[model]
        self.num_processors = num_processors
        self.allow_concurrent_write = allow_concurrent_write
        self.counter = StepCounter()
        self.fork = {"spawned": 0, "synced": 0, "revoked": 0}
        self.peak_elements = 0
        self.concurrent_writes_used = 0
        self.scan_ns: list = []

    # -------------------------- cost formulas ------------------------- #

    def _block(self, n):
        self.peak_elements = max(self.peak_elements, n)
        if n == 0:
            return 0
        if self.num_processors is None:
            return 1
        return ceil_div(n, min(self.num_processors, n))

    def _effective_p(self, n):
        if self.num_processors is None:
            return n
        return min(self.num_processors, n)

    def _cross_scan_cost(self, p):
        if p <= 1:
            return 1
        if self.capabilities.unit_scan:
            return 1
        return max(1, 2 * ceil_log2(p))

    def _fork_record(self, n):
        if not self.capabilities.forked or n <= 0:
            return
        p = self._effective_p(n)
        if p > 1:
            self.fork["spawned"] += p - 1
            self.fork["synced"] += p - 1

    def _spawn_span(self, n):
        if not self.capabilities.forked or n <= 0:
            return 0
        self._fork_record(n)
        p = self._effective_p(n)
        return 2 * ceil_log2(p) if p > 1 else 0

    # ---------------------------- charges ----------------------------- #

    def charge_elementwise(self, n):
        self.counter.charge("elementwise", self._block(n) + self._spawn_span(n))

    def charge_permute(self, n):
        self.counter.charge("permute", self._block(n) + self._spawn_span(n))

    def charge_gather(self, n, *, unique):
        if not unique and not self.capabilities.concurrent_read:
            raise CapabilityError("concurrent read")
        self.counter.charge("gather", self._block(n) + self._spawn_span(n))

    def charge_block(self, kind, n):
        self.counter.charge(kind, self._block(n))

    def charge_scan(self, n):
        self.scan_ns.append(n)
        if n == 0:
            self.counter.charge("scan", 0)
            return
        block = self._block(n)
        p = self._effective_p(n)
        self._fork_record(n)
        if block <= 1:
            cost = self._cross_scan_cost(p)
        else:
            cost = 2 * block + self._cross_scan_cost(p)
        self.counter.charge("scan", cost)

    def charge_broadcast(self, n):
        if n == 0:
            self.counter.charge("broadcast", 0)
            return
        block = self._block(n)
        p = self._effective_p(n)
        if self.capabilities.forked:
            cross = self._spawn_span(n) or 1
        elif self.capabilities.concurrent_read:
            cross = 1
        elif self.capabilities.unit_scan:
            cross = 1
        else:
            cross = max(1, ceil_log2(p))
        self.counter.charge("broadcast",
                            (block - 1) + cross if block > 1 else cross)

    def charge_reduce(self, n):
        if n == 0:
            self.counter.charge("reduce", 0)
            return
        block = self._block(n)
        p = self._effective_p(n)
        if self.capabilities.forked:
            cross = self._spawn_span(n) or 1
        elif self.capabilities.combining_write:
            cross = 1
        elif self.capabilities.unit_scan:
            cross = 1
        else:
            cross = max(1, ceil_log2(p))
        self.counter.charge("reduce",
                            (block - 1) + cross if block > 1 else cross)

    def charge_combine_write(self, n):
        if not self.capabilities.concurrent_write:
            if not self.allow_concurrent_write:
                raise CapabilityError("concurrent write")
            self.concurrent_writes_used += 1
        self.counter.charge("combine_write",
                            self._block(n) + self._spawn_span(n))

    def charge_test_and_set(self, n, *, revoked=0):
        if revoked:
            self.fork["revoked"] += revoked
        if n == 0:
            self.counter.charge("test_and_set", 0)
            return
        block = self._block(n)
        p = self._effective_p(n)
        if self.capabilities.test_and_set:
            cost = block + self._spawn_span(n)
        else:
            cost = block + (2 * ceil_log2(p) if p > 1 else 0)
        self.counter.charge("test_and_set", cost)

    # ----------------- segmented constructions (Section 3.4) ---------- #

    def charge_segmented(self, n, scans, elementwise):
        for _ in range(scans):
            self.charge_scan(n)
        for _ in range(elementwise):
            self.charge_elementwise(n)

    def charge_seg_copy(self, n):
        if self.capabilities.concurrent_read:
            self.counter.charge("memory", self._block(n))
            self.charge_broadcast(n)
        else:
            self.charge_segmented(n, 2, 3)

    def charge_seg_distribute(self, n):
        caps = self.capabilities
        if caps.combining_write and caps.concurrent_read:
            self.counter.charge("combine_write", self._block(n))
            self.charge_broadcast(n)
            self.charge_elementwise(n)
        else:
            self.charge_segmented(n, 4, 5)


def _old_bucket(v):
    return 0 if v <= 1 else math.ceil(math.log2(v))


# one charge: (kind, n, times, unique, (scans, elementwise), block kind);
# each kind reads the fields it takes
KINDS = ("elementwise", "permute", "scan", "gather", "block", "broadcast",
         "reduce", "combine_write", "test_and_set", "segmented",
         "seg_copy", "seg_distribute")
CONSTRUCTIONS = ((1, 1), (3, 4), (2, 3), (2, 5), (4, 5))

charge_st = st.tuples(
    st.sampled_from(KINDS),
    st.one_of(st.integers(0, 4), st.integers(0, 10 ** 6)),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from(CONSTRUCTIONS),
    st.sampled_from(("memory", "gather", "permute", "combine_write")),
)


def _apply(target, charge, *, times_in_one_call):
    """Make one charge on ``target``; the ``times`` forms are repeated
    single calls on the oracle.  Returns the exception type raised."""
    kind, n, times, flag, (scans, ew), block_kind = charge
    try:
        if kind in ("elementwise", "permute", "scan"):
            fn = getattr(target, f"charge_{kind}")
            if times_in_one_call:
                fn(n, times)
            else:
                for _ in range(times):
                    fn(n)
        elif kind == "gather":
            target.charge_gather(n, unique=flag)
        elif kind == "block":
            target.charge_block(block_kind, n)
        elif kind == "test_and_set":
            target.charge_test_and_set(n, revoked=times - 1)
        elif kind == "segmented":
            target.charge_segmented(n, scans=scans, elementwise=ew)
        else:
            getattr(target, f"charge_{kind}")(n)
    except CapabilityError:
        return CapabilityError
    return None


def _scan_metrics():
    hist = registry.histogram("scan.n")
    return (registry.counter("scan.invocations").value, hist.count,
            hist.total, dict(hist.buckets))


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODEL_NAMES),
       p=st.sampled_from((None, 1, 3, 64)),
       allow_cw=st.booleans(),
       charges=st.lists(charge_st, min_size=1, max_size=12))
def test_closed_form_charges_match_the_per_call_formulas(model, p, allow_cw,
                                                   charges):
    m = Machine(model, num_processors=p, allow_concurrent_write=allow_cw)
    oracle = Oracle(model, p, allow_cw)
    got, want = [], []
    m.counter.listeners.append(lambda k, c: got.append((k, c)))
    oracle.counter.listeners.append(lambda k, c: want.append((k, c)))
    before = _scan_metrics()
    for charge in charges:
        raised = _apply(m, charge, times_in_one_call=True)
        assert raised is _apply(oracle, charge, times_in_one_call=False)
    after = _scan_metrics()

    assert got == want
    assert m.steps == oracle.counter.steps
    assert m.counter.ops == oracle.counter.ops
    assert dict(m.counter.by_kind) == dict(oracle.counter.by_kind)
    assert m.peak_elements == oracle.peak_elements
    assert m.concurrent_writes_used == oracle.concurrent_writes_used
    ledger = m.fork_counters
    assert (ledger.spawned, ledger.synced, ledger.revoked) == (
        oracle.fork["spawned"], oracle.fork["synced"], oracle.fork["revoked"])
    assert ledger.reconciles()

    ns = oracle.scan_ns
    assert after[0] - before[0] == len(ns)
    assert after[1] - before[1] == len(ns)
    assert after[2] - before[2] == sum(ns)
    buckets = {k: v - before[3].get(k, 0) for k, v in after[3].items()
               if v != before[3].get(k, 0)}
    expected: dict = {}
    for n in ns:
        expected[_old_bucket(n)] = expected.get(_old_bucket(n), 0) + 1
    assert buckets == expected


@pytest.mark.parametrize("name, value", [
    ("model", "erew"), ("num_processors", 4), ("capabilities", None),
    ("allow_concurrent_write", True), ("backend", None), ("fusion", False),
    ("fault_injector", None), ("fusion_enabled", False)])
def test_configuration_is_read_only(name, value):
    """The charging constants are derived from the configuration once,
    so reassigning it (which would leave them stale) raises."""
    m = Machine("scan")
    with pytest.raises(AttributeError):
        setattr(m, name, value)


def test_histogram_buckets_integers_exactly():
    """``scan.n`` buckets ints by ``(n - 1).bit_length()`` = ceil(lg n),
    exact where the float ``log2`` is not."""
    from repro.observe.metrics import Histogram

    h = Histogram("t")
    for v in (0, 1, 2, 3, 4, 5, 2 ** 53 + 1):
        h.observe(v)
    assert h.buckets == {0: 2, 1: 1, 2: 2, 3: 1, 54: 1}
    h.observe(2.5, times=3)
    assert h.count == 10 and h.buckets[2] == 5
