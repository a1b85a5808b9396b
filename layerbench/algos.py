"""The ``algorithms`` workload: 11 self-verifying Table 1 workloads on numpy.

Vectors of hundreds to a few thousand elements make the Vector API, the
step charge, ``Machine.execute`` and ``Backend.run`` dispatch dominate,
with kernels a small share: the mirror image of ``kernels``.  Each run is
divided by a dispatch floor (a fixed batch of small-array NumPy calls)
timed just before it.  Every round draws fresh inputs from the seed, so
the per-algorithm median also averages over input luck.
"""
from __future__ import annotations

import statistics

import numpy as np

from repro import Machine
from repro.backends import get_backend
from repro.core import scans, segmented
from repro.observe import profile
from repro.observe.metrics import registry
from repro.observe.profiles import WORKLOADS

import harness
from harness import geomean, now
from tracing import Tracer, report_overhead

NAMES = ("radix_sort", "quicksort", "halving_merge", "mst",
         "connected_components", "list_ranking", "tree_contraction",
         "convex_hull", "csv_split", "compression", "spmv")
SCALE = 2
SETUP_SCALE_DIV = 4
SETUP_REPS = 7
#: seconds of suite rounds behind the per-layer figures of a traced run
LAYER_S = 3.0


class Suite:
    """The workloads on one shared numpy backend, one machine per run."""

    def __init__(self) -> None:
        self.backend = get_backend("numpy")
        self.workloads = {name: WORKLOADS[name] for name in NAMES}

    def run_one(self, name: str, seed: int, n=None, profiler=False):
        """One verified run; returns the machine.  The workload asserts
        its own answer (``AssertionError`` on a wrong one)."""
        w = self.workloads[name]
        m = Machine("scan", seed=seed, backend=self.backend,
                    **w.machine_kwargs)
        size = n if n is not None else SCALE * w.default_n
        rng = np.random.default_rng(seed)
        if not profiler:
            w.run(m, size, rng)
            return m, None
        with profile(m) as p:
            w.run(m, size, rng)
        return m, p


def _round_seed(seed: int, rnd: int, i: int) -> int:
    return (seed * 1_000_003 + rnd * 101 + i) % (1 << 31)


def build_suite(seed: int) -> Suite:
    """Set-up: the suite plus one warm-up pass at a quarter of the timed
    size (imports, first-call paths, allocator growth)."""
    suite = Suite()
    for i, name in enumerate(NAMES):
        w = suite.workloads[name]
        suite.run_one(name, _round_seed(seed, 999, i),
                      n=max(8, SCALE * w.default_n // SETUP_SCALE_DIV))
    return suite


def _attempt(result, fn) -> bool:
    try:
        fn()
    except AssertionError:
        result.check(False)
        return False
    result.check(True)
    return True


def run_suite(suite: Suite, seed: int, result, seconds: float,
              tracer: Tracer = None) -> dict:
    """Rounds of all 11 workloads until ``seconds`` pass; each sample is
    wall time over the dispatch floor timed just before it."""
    ratio = {name: [] for name in NAMES}
    floors = []
    rounds = 0
    deadline = now() + seconds
    while rounds < 2 or now() < deadline:
        for i, name in enumerate(NAMES):
            s = _round_seed(seed, rounds, i)
            floor = harness.dispatch_floor()
            floors.append(floor)
            if tracer is None:
                t0 = now()
                ok = _attempt(result, lambda: suite.run_one(name, s))
                t = now() - t0
            else:
                tracer.iteration = rounds
                t0 = now()
                ok = _attempt(result, lambda: tracer.call(
                    name, "algorithms", suite.run_one, name, s))
                t = now() - t0
            if ok:
                ratio[name].append(t / floor)
        rounds += 1
    return {"ratio": ratio, "floor_s": floors, "rounds": rounds}


def headline(res: dict) -> float:
    return geomean(statistics.median(res["ratio"][name]) for name in NAMES)


def _counts(suite: Suite, seed: int, result) -> dict:
    """Steps, backend ops and fused pipelines of one suite pass (exact
    counts: they repeat on every run with the same seed), with the
    Profiler attached so its step attribution is checked against the
    machine's own counter."""
    ops = registry.counter("backend.numpy.ops")
    fused = registry.counter("fusion.pipelines")
    before = (ops.value, fused.value)
    steps = 0
    for i, name in enumerate(NAMES):
        m, p = suite.run_one(name, _round_seed(seed, 0, i), profiler=True)
        result.check(p.total_steps == m.steps)
        steps += m.steps
    return {"steps": steps, "backend_ops": ops.value - before[0],
            "fused_pipelines": fused.value - before[1]}


def _trace_wiring(tracer: Tracer, suite: Suite) -> None:
    for fn in ("plus_scan", "max_scan", "min_scan", "plus_reduce",
               "max_reduce", "min_reduce", "plus_distribute"):
        tracer.wrap(scans, fn, "core")
    for fn in ("seg_plus_scan", "seg_max_scan", "seg_min_scan", "seg_copy",
               "segment_ids"):
        tracer.wrap(segmented, fn, "core")
    tracer.wrap(Machine, "execute", "machine", "Machine.execute")
    tracer.observe(suite.backend)


def run(_name: str, seed: int, seconds: float, result) -> None:
    setup_s, suite = harness.median_setup(lambda: build_suite(seed),
                                          lambda _s: None,
                                          reps=SETUP_REPS)
    res = run_suite(suite, seed, result, seconds)
    result.put("setup_s", setup_s, "s")
    result.put("x_floor", headline(res), "x")
    result.put("peak_mib", harness.traced_peak_mib(
        lambda: [suite.run_one(name, _round_seed(seed, 0, i))
                 for i, name in enumerate(NAMES)]), "MiB")


def layers(seed: int, result) -> dict:
    """Per-algorithm floor ratios over ``LAYER_S``, exact counts, and the
    layer shares of one traced pass; returns that pass's layer self
    seconds."""
    suite = build_suite(seed)
    res = run_suite(suite, seed, result, LAYER_S)
    for name in NAMES:
        result.put(f"alg.{name}.x_floor",
                   statistics.median(res["ratio"][name]), "x")
    result.put("floor.dispatch_ms", statistics.median(res["floor_s"]) * 1e3,
               "ms")
    for name, value in _counts(suite, seed, result).items():
        result.put(f"alg.{name}", value, "count")

    tracer = Tracer()
    _trace_wiring(tracer, suite)
    try:
        run_suite(suite, seed, result, 0, tracer)
    finally:
        tracer.restore()
    self_s = tracer.self_seconds()
    total = sum(self_s.values())
    kernel = self_s.get("backends", 0.0)
    execute = self_s.get("machine", 0.0)
    result.put("alg.kernel_share", kernel / total, "ratio")
    result.put("alg.execute_share", execute / total, "ratio")
    result.put("alg.api_share", (total - kernel - execute) / total, "ratio")
    return self_s


def overhead(_name: str, seed: int, seconds: float, result) -> None:
    """The suite untraced for half of ``seconds``, then traced."""
    suite = build_suite(seed)
    plain = run_suite(suite, seed, result, seconds / 2)
    tracer = Tracer()
    _trace_wiring(tracer, suite)
    try:
        traced = run_suite(suite, seed, result, seconds / 2, tracer)
    finally:
        tracer.restore()
    report_overhead(result, tracer, headline(plain), headline(traced),
                    harness.OUT_DIR / "trace-algorithms.json")
