#!/usr/bin/env python
"""Regenerate the committed golden profile baselines (``baselines/*.json``).

Run from the repository root after any *intentional* cost-model or
algorithm change::

    PYTHONPATH=src python tools/update_baselines.py            # all workloads
    PYTHONPATH=src python tools/update_baselines.py radix_sort mst
    PYTHONPATH=src python tools/update_baselines.py --check    # verify only

Each baseline pins the exact program-step total, primitive-invocation
count and per-kind primitive mix of one deterministic workload (see
:mod:`repro.observe.profiles`).  ``tests/test_profile_baselines.py``
replays every committed baseline on multiple execution backends and
fails on any deviation, so regenerated baselines should always land in
the same commit as the change that moved them — that is what makes a
cost-model diff reviewable.

``--check`` exits non-zero if any baseline would change (CI-friendly);
the default mode rewrites the files and prints a summary of movements.
"""
from __future__ import annotations

import argparse
import sys

from repro.observe.baselines import (
    baseline_from_profile,
    default_baseline_dir,
    load_baselines,
    write_baseline,
)
from repro.observe.profiles import available_algorithms, run_profile


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algorithms", nargs="*",
                        help="workloads to regenerate (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="compare only; exit 1 if any baseline differs")
    parser.add_argument("--dir", default=None,
                        help="baseline directory (default: baselines/ at "
                             "the repo root)")
    args = parser.parse_args(argv)

    names = args.algorithms or available_algorithms()
    unknown = sorted(set(names) - set(available_algorithms()))
    if unknown:
        parser.error(f"unknown workloads {unknown}; "
                     f"choose from {available_algorithms()}")

    directory = args.dir or default_baseline_dir()
    existing = load_baselines(directory)
    changed = 0
    for name in names:
        profile = run_profile(name)
        fresh = baseline_from_profile(profile)
        old = existing.get(name)
        if old == fresh:
            print(f"  {name:<26} unchanged ({fresh['steps']} steps)")
            continue
        changed += 1
        if old is None:
            print(f"  {name:<26} NEW: {fresh['steps']} steps, "
                  f"{fresh['ops']} ops")
        else:
            print(f"  {name:<26} {old['steps']} -> {fresh['steps']} steps "
                  f"({fresh['steps'] - old['steps']:+d})")
        if not args.check:
            write_baseline(profile, directory)

    if args.check and changed:
        print(f"{changed} baseline(s) out of date; run "
              f"`PYTHONPATH=src python tools/update_baselines.py`")
        return 1
    print(f"{len(names)} baseline(s) {'checked' if args.check else 'written'} "
          f"in {directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
