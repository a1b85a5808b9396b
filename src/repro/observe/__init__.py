"""repro.observe — the observability layer: spans, metrics, exporters.

Four concerns, one subsystem:

* **metrics** (:mod:`repro.observe.metrics`) — a process-wide registry of
  counters / gauges / histograms that :mod:`repro.machine` and
  :mod:`repro.backends` publish into, and the :class:`Ledger` base of
  the exact per-instance ledgers (faults, forks, cluster, serve), whose
  every event is one ``bump`` that also reaches the registry;
* **spans** (:mod:`repro.observe.spans`) — hierarchical regions recording
  step charges by primitive kind, wall time, backend ops and byte
  estimates; :func:`span` / :func:`traced` are free no-ops when no
  profiler is attached, so algorithms stay permanently instrumented;
* **exporters** (:mod:`repro.observe.exporters`) — human table, JSON, and
  Chrome-trace (``chrome://tracing``) renderings of a profile;
* **profiles & baselines** (:mod:`repro.observe.profiles`,
  :mod:`repro.observe.baselines`) — ``run_profile`` executes a seeded
  Table 1 workload under full observation, and the committed
  ``baselines/*.json`` golden profiles gate step regressions (see
  ``tools/update_baselines.py`` and ``docs/observability.md``).

Everything here observes; nothing here charges.  Step totals and results
are bit-identical with or without instrumentation attached — a property
the differential suite in ``tests/test_backends.py`` enforces.
"""
from __future__ import annotations

from .exporters import render_table, to_chrome_trace, to_json, to_json_dict
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Ledger,
    MetricsRegistry,
    Reservoir,
    get_registry,
    registry,
)
from .spans import (
    Profiler,
    Span,
    current_profiler,
    profile,
    span,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Ledger",
    "MetricsRegistry",
    "Profile",
    "Profiler",
    "Reservoir",
    "Span",
    "available_algorithms",
    "current_profiler",
    "get_registry",
    "profile",
    "registry",
    "render_table",
    "run_profile",
    "span",
    "to_chrome_trace",
    "to_json",
    "to_json_dict",
    "traced",
]

# `profile`/`baselines` import the algorithm layer, which imports the
# machine layer, which imports this package for its metrics handles —
# so the heavyweight half of the namespace loads lazily, on first touch.
_LAZY = {
    "Profile": "profiles",
    "Workload": "profiles",
    "WORKLOADS": "profiles",
    "available_algorithms": "profiles",
    "run_profile": "profiles",
}


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{modname}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
