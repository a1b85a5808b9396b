"""The golden-profile regression harness (tier 1).

Every committed ``baselines/*.json`` profile is replayed here on both
the whole-vector NumPy backend and the chunked blocked backend, and the
fresh run must match the golden record **exactly** — step total,
primitive-invocation count, and the per-kind primitive mix.  This
supersedes hand-pinned step constants scattered through the tests: the
pins now live in one reviewable place, regenerated (together, in the
same commit as the cost-model change that moved them) by::

    PYTHONPATH=src python tools/update_baselines.py

A failure here means one of three things:

* an unintended cost-model change — a charge formula drifted; fix it;
* an intended one — regenerate the baselines and review the step diff;
* a backend whose execution changed the *accounting* (never allowed:
  backends compute results, machines charge steps).
"""
import json
import pathlib

import pytest

from repro.observe.baselines import (
    baseline_from_profile,
    compare_profile,
    default_baseline_dir,
    load_baselines,
)
from repro.observe.profiles import available_algorithms, run_profile

BASELINE_DIR = pathlib.Path(__file__).parent.parent / "baselines"
BASELINES = load_baselines(BASELINE_DIR)

# the golden gate runs the real-execution backends; the pure-Python
# reference oracle is far too slow for whole workloads and is covered by
# the differential suite in test_backends.py instead
BACKENDS = ["numpy", "blocked:113"]


def test_baselines_are_committed_for_every_workload():
    """Adding a workload without recording its baseline is an error."""
    assert sorted(BASELINES) == available_algorithms()


def test_default_dir_resolves_to_the_committed_baselines():
    assert default_baseline_dir() == BASELINE_DIR


def test_baseline_files_are_normalized():
    """Committed files match what write_baseline would emit (no hand
    edits drifting from the serializer)."""
    for name, data in BASELINES.items():
        path = BASELINE_DIR / f"{name}.json"
        assert path.read_text() == json.dumps(data, indent=2,
                                              sort_keys=False) + "\n", name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(BASELINES))
def test_golden_profile(algorithm, backend):
    baseline = BASELINES[algorithm]
    profile = run_profile(algorithm, backend=backend,
                          model=baseline["model"], n=baseline["n"],
                          seed=baseline["seed"])
    problems = compare_profile(profile, baseline)
    assert not problems, (
        f"{algorithm} on {backend} deviates from its golden profile:\n  "
        + "\n  ".join(problems)
        + "\nIf this change is intentional, regenerate with "
          "`PYTHONPATH=src python tools/update_baselines.py` and commit "
          "the diff."
    )
    # the profile identifies its engine; the baseline never does
    assert profile.backend == backend.partition(":")[0]
    assert "backend" not in baseline


def test_compare_profile_reports_each_deviation():
    profile = run_profile("radix_sort")
    baseline = baseline_from_profile(profile)
    assert compare_profile(profile, baseline) == []

    tampered = dict(baseline, steps=baseline["steps"] + 5)
    assert any("steps" in p for p in compare_profile(profile, tampered))

    mix = dict(baseline["by_kind"])
    mix["scan"] = mix.get("scan", 0) + 1
    tampered = dict(baseline, by_kind=mix)
    assert any("by_kind[scan]" in p for p in compare_profile(profile, tampered))

    wrong_run = dict(baseline, n=baseline["n"] * 2)
    problems = compare_profile(profile, wrong_run)
    assert problems and all("n:" in p or "profile ran" in p for p in problems)
