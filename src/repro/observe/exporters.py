"""Exporters: one profile, three audiences.

* :func:`render_table` — a human-readable report for terminals;
* :func:`to_json` — the machine-readable form the golden-baseline
  harness diffs (:mod:`repro.observe.baselines`);
* :func:`to_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` / Perfetto: every span becomes a complete
  (``"ph": "X"``) event with step counts and byte estimates in its
  ``args``, so a flame graph of a scan algorithm is one
  ``python -m repro profile <algo> --export chrome`` away.

All three take the :class:`~repro.observe.profiles.Profile` produced by
:func:`repro.observe.profiles.run_profile` (anything with the same
attributes works — the exporters read, never compute).
"""
from __future__ import annotations

import json
from typing import Any

from .spans import Span

__all__ = ["render_table", "to_chrome_trace", "to_json", "to_json_dict"]


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n}B"  # pragma: no cover - unreachable


def render_table(profile) -> str:
    """The terminal report: header, per-kind mix, then the span tree."""
    lines = [
        f"profile: {profile.algorithm}  (model={profile.model}, "
        f"backend={profile.backend}, n={profile.n}, seed={profile.seed})",
        f"total:   {profile.steps} program steps in {profile.ops} primitive "
        f"invocations, {profile.wall_seconds * 1e3:.1f} ms wall",
    ]
    total = profile.steps or 1
    lines.append("primitive mix:")
    for kind, steps in sorted(profile.by_kind.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:<16} {steps:>10} steps ({100.0 * steps / total:5.1f}%)")
    lines.append("spans (steps are inclusive of children):")
    lines.append(f"  {'span':<28} {'steps':>10} {'%':>6} {'ops':>8} "
                 f"{'wall ms':>9} {'peak tmp':>9}")
    for node, depth in profile.root.walk():
        if node.name == "(root)" and not node.self_ops and not node.children:
            continue
        label = ("  " * depth + node.name)[:28]
        lines.append(
            f"  {label:<28} {node.steps:>10} "
            f"{100.0 * node.steps / total:>5.1f}% {node.ops:>8} "
            f"{node.wall_seconds * 1e3:>9.2f} "
            f"{_fmt_bytes(node.peak_temp_bytes):>9}")
    return "\n".join(lines)


def to_json_dict(profile) -> dict[str, Any]:
    """The canonical machine-readable form (also the baseline payload)."""
    return {
        "schema": "repro.observe.profile/v1",
        "algorithm": profile.algorithm,
        "model": profile.model,
        "backend": profile.backend,
        "n": profile.n,
        "seed": profile.seed,
        "steps": profile.steps,
        "ops": profile.ops,
        "by_kind": dict(sorted(profile.by_kind.items())),
        "wall_seconds": profile.wall_seconds,
        "spans": profile.root.to_dict(),
        "metrics": profile.metrics,
    }


def to_json(profile, *, indent: int = 2) -> str:
    return json.dumps(to_json_dict(profile), indent=indent, sort_keys=False)


def _span_events(root: Span, *, pid: int, tid: int) -> list[dict]:
    events = []
    for node, _depth in root.walk():
        if node.t_start is None:
            continue
        t_end = node.t_end if node.t_end is not None else node.t_start
        events.append({
            "name": node.name,
            "cat": "span",
            "ph": "X",
            "ts": node.t_start * 1e6,       # trace format wants microseconds
            "dur": (t_end - node.t_start) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {
                "steps": node.steps,
                "self_steps": node.self_steps,
                "ops": node.ops,
                "by_kind": dict(sorted(node.by_kind().items())),
                "backend_ops": node.backend_ops,
                "out_bytes": node.out_bytes,
                "peak_temp_bytes": node.peak_temp_bytes,
            },
        })
    return events


def to_chrome_trace(profile) -> dict[str, Any]:
    """A Trace Event Format document (load in ``chrome://tracing``).

    Spans are complete events on one thread track; process/thread
    metadata name the track after the algorithm and backend so several
    exported traces stay distinguishable when loaded together.
    """
    pid, tid = 1, 1
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": f"repro profile: {profile.algorithm}"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": f"{profile.model} machine on "
                          f"{profile.backend} backend"}},
    ]
    events.extend(_span_events(profile.root, pid=pid, tid=tid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "algorithm": profile.algorithm,
            "model": profile.model,
            "backend": profile.backend,
            "n": profile.n,
            "steps": profile.steps,
        },
    }
