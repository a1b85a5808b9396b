"""Timing, floors, statistics and the result record shared by every workload.

Every in-process end-to-end number is a cost in *floor units*: a timed
sample divided by a floor timed just before it, in the same process, on
the same data size.  On a shared host the machine's speed drifts by tens
of percent over seconds; a floor measured a few milliseconds earlier
drifts with it, so the ratio keeps what the program controls and drops
most of what the neighbours do (see METRICS.md for the probe evidence).
"""
from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import sys
import time
import tracemalloc
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

now = time.perf_counter


def timed(fn):
    """``(seconds, result)`` of one call; the result is consumed by the
    caller after the clock stops."""
    t0 = now()
    out = fn()
    return now() - t0, out


def median_time(fn, reps: int = 3) -> float:
    """Median wall seconds of ``reps`` back-to-back calls."""
    return statistics.median(timed(fn)[0] for _ in range(reps))


def cumsum_floor(arr: np.ndarray) -> float:
    """The kernel floor: ``np.cumsum`` over an operand of the op's size,
    median of three."""
    return median_time(lambda: np.cumsum(arr))


def memcpy_floor(arr: np.ndarray) -> float:
    return median_time(arr.copy)


_DISPATCH_A = np.arange(256, dtype=np.int64)


def _dispatch_batch() -> None:
    a = _DISPATCH_A
    for _ in range(300):
        np.cumsum(a)
        np.add(a, 1)
        np.maximum(a, 3)


def dispatch_floor() -> float:
    """The dispatch floor: a fixed batch of 900 small-array NumPy calls,
    the per-call cost that dominates algorithms on short vectors; median
    of three."""
    return median_time(_dispatch_batch)


_JSON_FLOATS = np.random.default_rng(0).standard_normal(2048).tolist()


def json_floor() -> float:
    """The codec floor: encode and decode a JSON list of 2048 floats, the
    work that dominates large serve requests; median of three."""
    return median_time(lambda: json.loads(json.dumps(_JSON_FLOATS)))


def exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """The ``+``-scan oracle: ``out[0] = 0``, then running sums."""
    out = np.zeros_like(values)
    np.cumsum(values[:-1], out=out[1:])
    return out


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def traced_peak_mib(fn) -> float:
    """Peak bytes allocated while ``fn`` runs, above what was live when it
    started, in MiB (``tracemalloc``: Python objects and NumPy buffers;
    shared-memory segments are mapped, not allocated, and do not count)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (1 << 20)


def _cache_kib(level: int):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if size.endswith("K"):
            return int(size[:-1])
        if size.endswith("M"):
            return int(size[:-1]) * 1024
    return None


def host_stamp() -> dict:
    """What a reader needs to compare numbers across hosts."""
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": os.cpu_count(),
        "numba": have_numba,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l2_kib": _cache_kib(2),
        "l3_kib": _cache_kib(3),
    }


class Result:
    """Metrics, correctness and failure accounting for one run."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool) -> None:
        """Count one attempted operation; a wrong answer is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1

    def error(self) -> None:
        """Count one attempted operation that raised or was refused."""
        self.attempted += 1
        self.failed += 1

    def line(self) -> str:
        return json.dumps({"correct": self.wrong == 0,
                           "attempted": max(1, self.attempted),
                           "failed": self.failed,
                           "metrics": self.metrics})


def stop_children() -> None:
    """Stop and reap every process the run started: the cluster's worker
    pools, any other ``multiprocessing`` child, and the resource tracker
    that shared memory starts.  Left alone, the tracker outlives the run
    by a moment and is reaped by nobody."""
    cluster = sys.modules.get("repro.cluster")
    if cluster is not None:
        cluster.shutdown_all_pools()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so cleanup in ``finally`` runs."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def median_setup(build, teardown, reps: int):
    """Run a set-up ``reps`` times, tearing down (untimed) all but the
    last; returns ``(median seconds, last product)``."""
    times = []
    for i in range(reps):
        t0 = now()
        product = build()
        times.append(now() - t0)
        if i < reps - 1:
            teardown(product)
    return statistics.median(times), product
