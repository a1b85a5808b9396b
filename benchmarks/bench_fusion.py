"""Fused scan pipelines: wall time and peak temporaries, fused vs eager.

The lazy expression DAG (``docs/fusion.md``) is built only on engines
whose chunked executor consumes it (``Backend.fuses``: blocked and
native).  There, deferring a chain of elementwise operations into one
``fused_pipeline`` dispatch evaluates the chain one chunk at a time, so
it holds ``steps x chunk`` temporaries instead of one whole-vector
temporary per step, while remaining bit-identical in both results and
step charges.  On numpy, ``fusion=True`` runs eagerly: its rows show the
two modes at parity.  This file measures all of it on the workload the
design targets: a four-op elementwise chain ending in a ``plus_scan``.
"""
import time
import tracemalloc

import numpy as np

from repro import Machine
from repro.backends import BlockedBackend
from repro.core import scans

from _common import fmt_row, write_report

_report_lines: dict[str, list[str]] = {}

N = 1 << 20
CHUNK = 4_096
BACKENDS = ("numpy", "blocked", "native")


def _publish(section: str, lines: list[str]) -> None:
    _report_lines[section] = lines
    flat = []
    for ls in _report_lines.values():
        flat.extend(ls + [""])
    write_report("fusion", flat[:-1])


def _machine(backend: str, fusion: bool) -> Machine:
    if backend == "blocked":
        return Machine("scan", backend=BlockedBackend(chunk=CHUNK),
                       fusion=fusion)
    return Machine("scan", backend=backend, fusion=fusion)


def _workload(m: Machine, data: np.ndarray) -> np.ndarray:
    """Chained elementwise -> scan: 4 deferred steps + terminal."""
    v = m.vector(data)
    return scans.plus_scan((v * 3 + 1) - (v // 7)).data


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_wallclock_fused_vs_eager(benchmark):
    rng = np.random.default_rng(0)
    data = rng.integers(-10**6, 10**6, N)

    widths = [9, 12, 12, 8]
    lines = [f"Wall-clock, elementwise chain + plus_scan "
             f"(n={N:,}, best of 5)",
             fmt_row(["backend", "eager (ms)", "fused (ms)", "ratio"],
                     widths)]
    for backend in BACKENDS:
        m_e = _machine(backend, fusion=False)
        m_f = _machine(backend, fusion=True)
        out_e = _workload(m_e, data)
        out_f = _workload(m_f, data)
        assert np.array_equal(out_e, out_f)
        assert m_e.snapshot().by_kind == m_f.snapshot().by_kind

        t_e = _best_of(lambda: _workload(m_e, data))
        t_f = _best_of(lambda: _workload(m_f, data))
        lines.append(fmt_row([backend, f"{t_e * 1e3:.3f}",
                              f"{t_f * 1e3:.3f}", f"{t_f / t_e:.2f}x"],
                             widths))
    _publish("wallclock", lines)
    benchmark(lambda: _workload(_machine("numpy", True), data))


def test_peak_temporaries_fused_vs_eager():
    data = np.arange(N)
    peaks = {}
    for backend in BACKENDS:
        for mode, fusion in (("eager", False), ("fused", True)):
            m = _machine(backend, fusion)
            tracemalloc.start()
            out = _workload(m, data)
            _, peaks[backend, mode] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(out) == N

    widths = [9, 8, 14, 18]
    lines = [f"Peak memory incl. output, elementwise chain + plus_scan "
             f"(n={N:,}, chunk={CHUNK:,})",
             fmt_row(["backend", "mode", "peak (bytes)", "bytes / element"],
                     widths)]
    for (backend, mode), peak in peaks.items():
        lines.append(fmt_row([backend, mode, peak, f"{peak / N:.1f}"],
                             widths))
    for backend in BACKENDS:
        r = peaks[backend, "eager"] / peaks[backend, "fused"]
        lines.append(f"{backend}: fused peaks at 1/{r:.2f} of eager "
                     f"({r:.2f}x reduction)")
    _publish("memory", lines)

    # the acceptance bar: >= 2x peak-temp reduction on blocked; native
    # materializes the scan input whole, so it only has to beat eager;
    # numpy never fuses, so its two modes are the same eager run
    assert peaks["blocked", "eager"] >= 2 * peaks["blocked", "fused"]
    assert peaks["native", "fused"] <= peaks["native", "eager"]
    assert peaks["numpy", "fused"] <= peaks["numpy", "eager"] * 1.01
