"""The native two-phase Blelloch backend vs whole-vector NumPy.

Not a paper table — the harness's health check for the native backend
(`repro.backends.native`).  The claim under measurement: the two-phase
upsweep/downsweep schedule, compiled with Numba's ``parallel=True``,
turns the scan from a memory-bound serial pass into ``p`` cooperating
block passes, and at ``n >= 10^7`` that is worth ~5-10x over
``np.cumsum`` on a multicore host.

The report is **honest about its mode**: on a host without Numba the
backend *is* the blocked backend (its chunk loop over the shared carry
monoids, with ``chunk = block``), whose point is graceful degradation
and conformance, not speed, so the table documents the expected
crossover instead of claiming one.  Results are asserted
bit-identical to NumPy in every mode regardless (integer scans are
associative mod 2**width; that part is not allowed to depend on speed).
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


def _mode(backend) -> str:
    if backend.compiled:
        import numba
        return f"numba ({numba.get_num_threads()} threads)"
    return "blocked (numba not installed)"


def test_native_vs_numpy_scans():
    rng = np.random.default_rng(0)
    numpy_b = NumPyBackend()
    native_b = NativeBackend()

    widths = [14, 13, 12, 12, 9]
    lines = [f"Native two-phase scans vs whole-vector NumPy "
             f"[mode: {_mode(native_b)}, "
             f"cpus={os.cpu_count()}] (best of 3)",
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
            if native_b.compiled:
                nat_fn()  # JIT warm-up out of the timings
            t_np, t_nat = _best_of(np_fn), _best_of(nat_fn)
            speedups[(op, n)] = t_np / t_nat
            lines.append(fmt_row(
                [op, n, f"{t_np * 1e3:.2f}", f"{t_nat * 1e3:.2f}",
                 f"{t_np / t_nat:.2f}x"], widths))

    lines.append("")
    if native_b.compiled and (os.cpu_count() or 1) > 1:
        lines.append(
            "compiled mode on a multicore host: the two-phase schedule "
            "should sit at ~5-10x for n >= 10^7 (upsweep and downsweep "
            "each stream the vector once, across all cores)")
        # the honest bar on real multicore hardware; single-core CI legs
        # and the blocked fallback document instead of assert
        assert speedups[("plus_scan", 10**7)] > 2.0, speedups
    else:
        lines.append(
            "crossover note: this host runs the blocked backend's chunk "
            "loop (or a single core) — parity with NumPy is the expected "
            "result, and "
            "the ~5-10x target applies to the Numba-compiled kernels on "
            "a multicore host (see docs/native.md for the install "
            "matrix and measured numbers per mode)")
        # parity, not speed: blocked must stay within a small constant
        # factor of whole-vector numpy
        assert speedups[("plus_scan", 10**7)] > 0.2, speedups

    write_report("native", lines)
