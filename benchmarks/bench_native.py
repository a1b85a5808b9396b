"""The native backend vs whole-vector NumPy.

Not a paper table — the harness's health check for the native backend
(`repro.backends.native`), which is the blocked backend with
``chunk = block``: its chunk loop over the shared carry monoids.  Its
point is conformance and bounded temporaries, not speed, so the bar is
parity: native must stay within a small constant factor of
whole-vector NumPy.  A thread-parallel sweep over ``native:<threads>``
is the planned speed-up (docs/native.md).  Results are asserted bit-identical
to NumPy regardless (integer scans are associative mod 2**width; that
part is not allowed to depend on speed).
"""
import os
import time

import numpy as np

from repro.backends import NativeBackend, NumPyBackend

from _common import fmt_row, write_report

SIZES = (1 << 20, 10**7)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_native_vs_numpy_scans():
    rng = np.random.default_rng(0)
    numpy_b = NumPyBackend()
    native_b = NativeBackend()

    widths = [14, 13, 12, 12, 9]
    lines = [f"Native scans vs whole-vector NumPy "
             f"[block={native_b.block}, cpus={os.cpu_count()}] (best of 3)",
             fmt_row(["op", "n", "numpy (ms)", "native (ms)", "speedup"],
                     widths)]

    speedups = {}
    for n in SIZES:
        values = rng.integers(-(1 << 40), 1 << 40, n, dtype=np.int64)
        flags = np.zeros(n, dtype=bool)
        flags[::977] = True
        flags[0] = True

        for op, np_fn, nat_fn in [
            ("plus_scan",
             lambda: numpy_b.plus_scan(values),
             lambda: native_b.plus_scan(values)),
            ("seg_plus_scan",
             lambda: numpy_b.seg_plus_scan(values, flags),
             lambda: native_b.seg_plus_scan(values, flags)),
        ]:
            want, got = np_fn(), nat_fn()
            assert np.array_equal(want, got), (op, n)  # correctness first
            t_np, t_nat = _best_of(np_fn), _best_of(nat_fn)
            speedups[(op, n)] = t_np / t_nat
            lines.append(fmt_row(
                [op, n, f"{t_np * 1e3:.2f}", f"{t_nat * 1e3:.2f}",
                 f"{t_np / t_nat:.2f}x"], widths))

    lines.append("")
    lines.append(
        "parity note: native runs the blocked backend's chunk loop on one "
        "thread, so parity with NumPy is the expected result")
    # parity, not speed: blocked must stay within a small constant factor
    # of whole-vector numpy
    assert speedups[("plus_scan", 10**7)] > 0.2, speedups

    write_report("native", lines)
