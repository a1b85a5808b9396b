"""The ``kernels`` workload: six scan ops over 2^21 elements on four backends.

At this size the kernels and the cluster's IPC do nearly all the work and
the per-call Python tax is under 1%, so a change to a kernel, to carry
handling or to the IPC shows here and nowhere else.  Each op is timed
through the public Vector API, each sample divided by an ``np.cumsum``
floor over an operand of the same size timed just before it.
"""
from __future__ import annotations

import statistics

import numpy as np

from repro import Machine
from repro.cluster import pool as pool_mod
from repro.cluster import shardops, shutdown_all_pools
from repro.cluster.exchange import exchange_rounds, exclusive_exchange
from repro.core import scans, segmented

import harness
from harness import exclusive_cumsum, geomean, now, timed
from tracing import Tracer, report_overhead

N = 1 << 21
SEG_MEAN = 64
BACKENDS = {"numpy": "numpy", "blocked": "blocked", "native": "native",
            "distributed": "distributed:2"}
OPS = ("plus_scan", "max_scan", "seg_plus_scan", "seg_max_scan",
       "seg_min_scan_f64", "fused_plus_scan")
#: bytes each op must read and write at least (operands once, result
#: once): the roofline input, computed from array sizes, not measured
BYTES_COMPUTED = {"plus_scan": 16 * N, "max_scan": 16 * N,
                  "seg_plus_scan": 17 * N, "seg_max_scan": 17 * N,
                  "seg_min_scan_f64": 17 * N, "fused_plus_scan": 16 * N}
#: a cheap op is repeated within one sample until it spans this long
SAMPLE_TARGET_S = 0.06
SETUP_REPS = 5
#: seconds of op mix behind the per-layer figures of a traced run
LAYER_S = 4.0
TAX_N = 256
TAX_CALLS = 400


# ------------------------------- inputs -------------------------------- #

def _seg_exclusive(values, heads, accumulate, identity):
    """Per-segment exclusive scan by a plain loop over segments: the
    independent oracle for the segmented extreme scans."""
    out = np.empty_like(values)
    bounds = np.append(heads, len(values)).tolist()
    for s, e in zip(bounds[:-1], bounds[1:]):
        out[s] = identity
        if e - s > 1:
            accumulate(values[s:e - 1], out=out[s + 1:e])
    return out


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ints = rng.integers(-(1 << 20), 1 << 20, N, dtype=np.int64)
    floats = rng.standard_normal(N)
    floats[rng.random(N) < 0.01] = np.nan
    flags = rng.random(N) < 1.0 / SEG_MEAN
    flags[0] = True
    heads = np.flatnonzero(flags)
    ex = exclusive_cumsum(ints)
    imin = np.iinfo(np.int64).min
    max_oracle = np.empty_like(ints)
    max_oracle[0] = imin
    np.maximum.accumulate(ints[:-1], out=max_oracle[1:])
    oracle = {
        "plus_scan": ex,
        "max_scan": max_oracle,
        "seg_plus_scan": ex - ex[heads][np.cumsum(flags) - 1],
        "seg_max_scan": _seg_exclusive(ints, heads, np.maximum.accumulate,
                                       imin),
        "seg_min_scan_f64": _seg_exclusive(floats, heads, np.fmin.accumulate,
                                           np.inf),
        "fused_plus_scan": exclusive_cumsum(ints * 3 + 1),
    }
    return {"ints": ints, "floats": floats, "flags": flags, "oracle": oracle}


def _operand(data: dict, op: str) -> np.ndarray:
    return data["floats"] if op == "seg_min_scan_f64" else data["ints"]


def _equal(op: str, out, expected) -> bool:
    return np.array_equal(out, expected, equal_nan=(op == "seg_min_scan_f64"))


# ------------------------------ program -------------------------------- #

class Engine:
    """One backend behind one machine, with the op mix as API calls."""

    def __init__(self, spec: str, data: dict) -> None:
        self.machine = Machine("scan", backend=spec)
        self.backend = self.machine.backend
        m = self.machine
        self.vi = m.vector(data["ints"])
        self.vf = m.vector(data["floats"])
        self.fl = m.flags(data["flags"])

    def call(self, op: str) -> np.ndarray:
        if op == "plus_scan":
            return scans.plus_scan(self.vi).data
        if op == "max_scan":
            return scans.max_scan(self.vi).data
        if op == "seg_plus_scan":
            return segmented.seg_plus_scan(self.vi, self.fl).data
        if op == "seg_max_scan":
            return segmented.seg_max_scan(self.vi, self.fl).data
        if op == "seg_min_scan_f64":
            return segmented.seg_min_scan(self.vf, self.fl).data
        return scans.plus_scan(self.vi * 3 + 1).data


def build_engines(data: dict) -> dict:
    engines = {name: Engine(spec, data) for name, spec in BACKENDS.items()}
    for engine in engines.values():
        engine.call("plus_scan")  # first op: spawns the distributed pool
    return engines


def teardown(_engines) -> None:
    shutdown_all_pools()


# ----------------------------- measurement ----------------------------- #

def run_mix(engines: dict, data: dict, result, seconds: float,
            tracer: Tracer = None) -> dict:
    """Time every (backend, op) pair in rounds until ``seconds`` pass.
    Returns ``{"ratio": {b: {op: [..]}}, "op_s": ..., "floor_s": [..],
    "rounds": int}``."""
    ratio = {b: {op: [] for op in OPS} for b in engines}
    op_s = {b: {op: [] for op in OPS} for b in engines}
    reps = {b: {op: 1 for op in OPS} for b in engines}
    floors = []
    rounds = 0
    deadline = now() + seconds
    while rounds < 2 or now() < deadline:
        if tracer is not None:
            tracer.iteration = rounds
        for b, engine in engines.items():
            for op in OPS:
                operand = _operand(data, op)
                pair = []
                for _ in range(reps[b][op]):
                    floor = harness.cumsum_floor(operand)
                    t, out = timed(lambda: engine.call(op))
                    result.check(_equal(op, out, data["oracle"][op]))
                    pair.append((t / floor, t))
                    floors.append(floor)
                ratio[b][op].append(statistics.median(p[0] for p in pair))
                op_s[b][op].append(statistics.median(p[1] for p in pair))
                if rounds == 0:
                    reps[b][op] = max(1, min(8, round(SAMPLE_TARGET_S / t)))
        rounds += 1
    return {"ratio": ratio, "op_s": op_s, "floor_s": floors,
            "rounds": rounds}


def headline(mix: dict) -> dict:
    """Per backend: geomean over the six ops of the median floor ratio."""
    return {b: geomean(statistics.median(mix["ratio"][b][op]) for op in OPS)
            for b in mix["ratio"]}


def peak_pass(engines: dict) -> dict:
    """Peak traced MiB of the op mix per backend (untimed pass)."""
    return {b: max(harness.traced_peak_mib(lambda: engine.call(op))
                   for op in OPS)
            for b, engine in engines.items()}


def _per_call_us(fn, calls: int = TAX_CALLS) -> float:
    t0 = now()
    for _ in range(calls):
        fn()
    return (now() - t0) / calls * 1e6


def tax_rows(engines: dict, data: dict) -> dict:
    """The same small plus_scan at each boundary, interleaved in rounds:
    direct method, ``Backend.run``, ``Machine.execute``, the Vector API
    eager, and ``plus_scan(v*3+1)`` fused vs. eager (fusion off)."""
    small = np.ascontiguousarray(data["ints"][:TAX_N])
    out = {}
    for b, engine in engines.items():
        backend, m = engine.backend, engine.machine
        eager = Machine("scan", backend=backend, fusion=False)
        v, ve = m.vector(small), eager.vector(small)
        rows = {
            "direct": lambda: backend.plus_scan(small),
            "run": lambda: backend.run("plus_scan", small),
            "execute": lambda: m.execute("plus_scan", small),
            "api": lambda: scans.plus_scan(v).data,
            "fused": lambda: scans.plus_scan(v * 3 + 1).data,
            "eager_chain": lambda: scans.plus_scan(ve * 3 + 1).data,
        }
        samples = {k: [] for k in rows}
        for _ in range(5):
            for k, fn in rows.items():
                samples[k].append(_per_call_us(fn))
        med = {k: statistics.median(s) for k, s in samples.items()}
        out[b] = {"tax_dispatch_us": med["run"] - med["direct"],
                  "tax_execute_us": med["execute"] - med["run"],
                  "tax_api_us": med["api"] - med["execute"],
                  "tax_fused_us": med["fused"] - med["eager_chain"]}
    return out


def cluster_split(engine: Engine, data: dict) -> dict:
    """The distributed plus_scan taken apart: shared-memory copy-in, one
    pipe round trip, one shard's local kernel, the carry exchange and one
    shard's carry apply."""
    ints = data["ints"]
    pool = engine.backend.pool
    med = statistics.median

    def shm_copy():
        t0 = now()
        job = pool_mod._ShmJob({"values": ints, "flags": None,
                                "out": np.empty_like(ints)})
        t = now() - t0
        job.close()
        return t

    handle = pool.live_workers()[0]

    def rtt():
        seq = handle.next_seq()
        t0 = now()
        handle.conn.send({"cmd": "ping", "seq": seq})
        while handle.conn.recv().get("seq") != seq:
            pass
        return now() - t0

    shard = ints[:N // 2]
    local, carry = shardops.plus_scan_shard(shard)
    carries = [carry, shardops.plus_scan_shard(ints[N // 2:])[1]]
    combine = shardops.plus_carry_combine(ints.dtype)
    zero = np.int64(0)
    scratch = local.copy()

    before = (pool.ledger.shards, pool.ledger.ops_distributed)
    engine.call("plus_scan")
    shards = ((pool.ledger.shards - before[0])
              / max(1, pool.ledger.ops_distributed - before[1]))
    return {
        "shm_copy_ms": (med(shm_copy() for _ in range(5)) * 1e3, "ms"),
        "pipe_rtt_us": (med(rtt() for _ in range(50)) * 1e6, "us"),
        "shard_kernel_ms": (harness.median_time(
            lambda: shardops.plus_scan_shard(shard), 5) * 1e3, "ms"),
        "exchange_us": (harness.median_time(
            lambda: exclusive_exchange(carries, combine, zero), 201) * 1e6,
            "us"),
        "apply_ms": (harness.median_time(
            lambda: shardops.plus_scan_apply(scratch, carry), 5) * 1e3,
            "ms"),
        "shards": (shards, "count"),
        "carry_rounds": (exchange_rounds(len(pool.live_workers())),
                         "count"),
    }


def _trace_wiring(tracer: Tracer, engines: dict) -> None:
    for fn in ("plus_scan", "max_scan"):
        tracer.wrap(scans, fn, "core")
    for fn in ("seg_plus_scan", "seg_max_scan", "seg_min_scan"):
        tracer.wrap(segmented, fn, "core")
    tracer.wrap(Machine, "execute", "machine", "Machine.execute")
    tracer.wrap(pool_mod.WorkerPool, "run_scan", "cluster",
                "WorkerPool.run_scan")
    tracer.wrap(pool_mod, "exclusive_exchange", "cluster")
    for engine in engines.values():
        tracer.observe(engine.backend)


# -------------------------------- entry -------------------------------- #

def run(_name: str, seed: int, seconds: float, result) -> None:
    """End-to-end: the op mix for ``seconds``, every backend and op folded
    into one geomean floor ratio, and the geomean of the backends' peaks."""
    data = make_inputs(seed)
    setup_s, engines = harness.median_setup(
        lambda: build_engines(data), teardown, reps=SETUP_REPS)
    try:
        mix = run_mix(engines, data, result, seconds)
        peaks = peak_pass(engines)
    finally:
        teardown(engines)
    result.put("setup_s", setup_s, "s")
    result.put("x_floor", geomean(headline(mix).values()), "x")
    result.put("peak_mib", geomean(peaks.values()), "MiB")


def layers(seed: int, result) -> dict:
    """Per-layer figures of every backend, op and cluster stage, from a
    ``LAYER_S`` op mix and the probes below; returns the layer self
    seconds of one traced pass of the mix."""
    data = make_inputs(seed)
    engines = build_engines(data)
    try:
        mix = run_mix(engines, data, result, LAYER_S)
        for b, value in headline(mix).items():
            result.put(f"kernels.{b}.x_floor", value, "x")
        for b, value in peak_pass(engines).items():
            result.put(f"kernels.{b}.peak_mib", value, "MiB")
        for b in engines:
            for op in OPS:
                result.put(f"kernels.{b}.{op}.x_floor",
                           statistics.median(mix["ratio"][b][op]), "x")
            total = sum(statistics.median(mix["op_s"][b][op]) for op in OPS)
            result.put(f"kernels.{b}.melem_s", len(OPS) * N / total / 1e6,
                       "Melem/s")
        for op in OPS:
            result.put(f"kernels.{op}.bytes_computed", BYTES_COMPUTED[op],
                       "B")
        result.put("floor.cumsum_ms",
                   statistics.median(mix["floor_s"]) * 1e3, "ms")
        result.put("floor.memcpy_ms",
                   harness.memcpy_floor(data["ints"]) * 1e3, "ms")

        steps = set()
        for engine in engines.values():
            before = engine.machine.steps
            for op in OPS:
                engine.call(op)
            steps.add(engine.machine.steps - before)
        result.check(len(steps) == 1)  # charges never depend on the backend
        result.put("kernels.steps", steps.pop(), "count")

        for b, taxes in tax_rows(engines, data).items():
            for name, value in taxes.items():
                result.put(f"kernels.{b}.{name}", value, "us")
        for name, (value, unit) in cluster_split(engines["distributed"],
                                                 data).items():
            result.put(f"cluster.{name}", value, unit)

        tracer = Tracer()
        _trace_wiring(tracer, engines)
        try:
            run_mix(engines, data, result, 0, tracer)
        finally:
            tracer.restore()
        return tracer.self_seconds()
    finally:
        teardown(engines)


def overhead(_name: str, seed: int, seconds: float, result) -> None:
    """The op mix untraced for half of ``seconds``, then traced."""
    data = make_inputs(seed)
    engines = build_engines(data)
    try:
        plain = run_mix(engines, data, result, seconds / 2)
        tracer = Tracer()
        _trace_wiring(tracer, engines)
        try:
            traced = run_mix(engines, data, result, seconds / 2, tracer)
        finally:
            tracer.restore()
    finally:
        teardown(engines)
    report_overhead(result, tracer, geomean(headline(plain).values()),
                    geomean(headline(traced).values()),
                    harness.OUT_DIR / "trace-kernels.json")
