"""The eager per-primitive path: its Python frame budget, and observers.

A primitive is one program step, and the Python around it should be a
short chain: the API method, one charge method, ``StepCounter``,
``Machine.execute``, ``Backend.run`` and the kernel.  The budget below
counts ``sys.setprofile`` call events in code under ``repro/`` (numpy's
own Python frames do not count, so numpy versions do not matter) on a
numpy scan machine at n = 256.  ``BEFORE`` is each primitive's count
when every charge still walked its per-call formulas (395 frames in
all); none may grow back past it, and the total must stay within half.
Numpy is the blocked engine with one unbounded chunk, and a short vector
takes blocked's one-chunk step, so ``blocked`` and ``native`` (eager;
native is blocked) must spend exactly numpy's frames on every primitive.
"""
from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro import Machine
from repro.core import ops, scans, segmented
from repro.observe import profile
from repro.observe.metrics import registry

BEFORE = {"v+1": 16, "v<5": 17, "where": 20, "plus_scan": 22,
          "plus_reduce": 15, "permute": 20, "pack": 95,
          "seg_plus_scan": 63, "seg_min_distribute": 76, "seg_copy": 51}
TOTAL_BUDGET = sum(BEFORE.values()) // 2
#: numpy's total once it became the one-chunk blocked engine (each scan
#: pays one ``_scan`` frame over the deleted whole-vector bodies), less
#: the ``astype(bool)`` wrapper comparisons no longer pay
NUMPY_TOTAL = 154

_PACKAGE = os.sep + "repro" + os.sep


def _primitives(m: Machine) -> dict:
    rng = np.random.default_rng(0)
    v = m.vector(rng.integers(0, 10, 256))
    flag_bits = rng.random(256) < 0.1
    flag_bits[0] = True
    seg = m.flags(flag_bits)
    f = v < 5
    idx = m.vector(rng.permutation(256))
    return {
        "v+1": lambda: v + 1,
        "v<5": lambda: v < 5,
        "where": lambda: f.where(v, 0),
        "plus_scan": lambda: scans.plus_scan(v),
        "plus_reduce": lambda: scans.plus_reduce(v),
        "permute": lambda: v.permute(idx),
        "pack": lambda: ops.pack(v, f),
        "seg_plus_scan": lambda: segmented.seg_plus_scan(v, seg),
        "seg_min_distribute": lambda: segmented.seg_min_distribute(v, seg),
        "seg_copy": lambda: segmented.seg_copy(v, seg),
    }


def _frames(fn) -> int:
    """Python call events in ``repro`` code while ``fn`` runs."""
    count = 0

    def hook(frame, event, _arg):
        nonlocal count
        if event == "call" and _PACKAGE in frame.f_code.co_filename:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def _frame_counts(backend: str) -> dict:
    prims = _primitives(Machine("scan", backend=backend, fusion=False))
    for fn in prims.values():  # warm caches (carry monoids, imports)
        fn()
    return {name: _frames(fn) for name, fn in prims.items()}


@pytest.fixture(scope="module")
def frame_counts() -> dict:
    return _frame_counts("numpy")


@pytest.mark.parametrize("name", sorted(BEFORE))
def test_no_primitive_grows_past_its_old_frame_count(frame_counts, name):
    assert frame_counts[name] <= BEFORE[name], frame_counts


def test_frame_total_is_within_half_the_old_path(frame_counts):
    total = sum(frame_counts.values())
    assert total <= TOTAL_BUDGET, (total, frame_counts)
    assert total <= NUMPY_TOTAL, (total, frame_counts)


@pytest.mark.parametrize("backend", ["blocked", "native"])
def test_chunked_engines_match_numpy_frame_for_frame(frame_counts, backend):
    assert _frame_counts(backend) == frame_counts


def test_observers_attached_after_construction_see_every_op():
    """``Backend.run`` looks observers up on every call, so a profiler
    and a bare observer attached to an already-built machine each see
    one ``OpEvent`` per ``backend.<name>.ops`` increment."""
    m = Machine("scan", backend="numpy")
    prims = _primitives(m)
    events: list = []
    counter = registry.counter("backend.numpy.ops")
    m.backend.observers.append(events.append)
    try:
        steps_before = m.steps
        with profile(m) as p:
            before = counter.value
            for fn in prims.values():
                fn()
            ops_run = counter.value - before
    finally:
        m.backend.observers.remove(events.append)
    assert ops_run > 0
    assert len(events) == ops_run
    assert all(e.backend == "numpy" for e in events)
    assert sum(s.backend_ops for s, _ in p.root.walk()) == ops_run
    assert p.total_steps == m.steps - steps_before

    # detached again: ops still count, nobody is called
    before, seen = counter.value, len(events)
    scans.plus_scan(m.vector(range(8)))
    assert counter.value == before + 1 and len(events) == seen
