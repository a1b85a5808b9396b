"""Golden profile baselines: committed step profiles as a regression gate.

A *baseline* is the backend-independent core of a
:class:`~repro.observe.profiles.Profile` — algorithm, model, problem size,
seed, exact step total, primitive-invocation count and the per-kind
primitive mix — serialized to JSON and committed under ``baselines/`` at
the repository root.  ``tools/update_baselines.py`` regenerates them;
``tests/test_profile_baselines.py`` re-runs every committed baseline on
multiple execution backends and demands **exact** equality, so

* a cost-model change (a charge formula, a primitive's cost) fails the
  harness until the baselines are regenerated in the same commit —
  making the diff reviewable next to the code that caused it; and
* a backend change can never silently alter step accounting, because the
  same baseline must hold on every backend.

Wall-clock and byte figures deliberately never enter a baseline: they
are machine-dependent observations, reported by the exporters but not
gated on.
"""
from __future__ import annotations

import json
import pathlib
from typing import Optional

__all__ = [
    "baseline_from_profile",
    "baseline_path",
    "compare_profile",
    "default_baseline_dir",
    "load_baseline",
    "load_baselines",
    "write_baseline",
]

_SCHEMA = "repro.observe.baseline/v1"


def default_baseline_dir() -> pathlib.Path:
    """``baselines/`` at the repository root (resolved relative to this
    source tree)."""
    # src/repro/observe/baselines.py -> repo root is three parents above src/
    return pathlib.Path(__file__).resolve().parents[3] / "baselines"


def baseline_path(algorithm: str,
                  directory: Optional[pathlib.Path] = None) -> pathlib.Path:
    d = pathlib.Path(directory) if directory else default_baseline_dir()
    return d / f"{algorithm}.json"


def baseline_from_profile(profile) -> dict:
    """The gated subset of a profile (everything backend-independent)."""
    return {
        "schema": _SCHEMA,
        "algorithm": profile.algorithm,
        "model": profile.model,
        "n": profile.n,
        "seed": profile.seed,
        "steps": profile.steps,
        "ops": profile.ops,
        "by_kind": dict(sorted(profile.by_kind.items())),
    }


def write_baseline(profile, directory: Optional[pathlib.Path] = None
                   ) -> pathlib.Path:
    """Serialize ``profile``'s baseline next to its siblings; returns the
    path written."""
    path = baseline_path(profile.algorithm, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(baseline_from_profile(profile), indent=2,
                               sort_keys=False) + "\n")
    return path


def load_baseline(algorithm: str,
                  directory: Optional[pathlib.Path] = None) -> dict:
    path = baseline_path(algorithm, directory)
    data = json.loads(path.read_text())
    if data.get("schema") != _SCHEMA:
        raise ValueError(f"{path} has schema {data.get('schema')!r}, "
                         f"expected {_SCHEMA!r}")
    return data


def load_baselines(directory: Optional[pathlib.Path] = None
                   ) -> dict[str, dict]:
    """All committed baselines, keyed by algorithm name."""
    d = pathlib.Path(directory) if directory else default_baseline_dir()
    out: dict[str, dict] = {}
    for path in sorted(d.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("schema") == _SCHEMA:
            out[data["algorithm"]] = data
    return out


def compare_profile(profile, baseline: dict) -> list[str]:
    """Exact comparison; returns human-readable mismatches (empty = pass).

    Everything in the baseline must match the fresh profile exactly:
    metadata (so the harness is running the workload the baseline was
    recorded for), the step total, the invocation count, and the
    primitive mix kind by kind.
    """
    problems: list[str] = []
    for key in ("algorithm", "model", "n", "seed"):
        got, want = getattr(profile, key), baseline[key]
        if got != want:
            problems.append(f"{key}: profile ran {got!r}, baseline "
                            f"recorded {want!r}")
    if problems:  # different workload: counts are not comparable
        return problems
    if profile.steps != baseline["steps"]:
        problems.append(f"steps: {profile.steps} != baseline "
                        f"{baseline['steps']} "
                        f"({profile.steps - baseline['steps']:+d})")
    if profile.ops != baseline["ops"]:
        problems.append(f"ops: {profile.ops} != baseline {baseline['ops']} "
                        f"({profile.ops - baseline['ops']:+d})")
    mix, want_mix = profile.by_kind, baseline["by_kind"]
    for kind in sorted(set(mix) | set(want_mix)):
        got, want = mix.get(kind, 0), want_mix.get(kind, 0)
        if got != want:
            problems.append(f"by_kind[{kind}]: {got} != baseline {want} "
                            f"({got - want:+d})")
    return problems
