"""Floor-normalised layer benchmark for the scan library.

    python3 layerbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Workloads: ``kernels``, ``algorithms``, ``serve_small``, ``serve_large``
(see METRICS.md for every metric, its unit and direction, and why the
workloads look the way they do).  ``--trace 0`` runs the workload and
prints the end-to-end metrics, the same names on every workload.
``--trace 1`` prints every per-layer metric: it measures the layers of
all four workloads briefly, then runs this workload untraced for half of
``--seconds`` and traced for the other half to state the tracing
overhead, writing the spans to ``layerbench/out/``.

Every output is checked against an oracle built during set-up.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run exits 1 if any answer was wrong, and
fails without a result line when the library under ``src/`` is missing.
"""
from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("kernels", "algorithms", "serve_small", "serve_large")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = harness.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"the library is not there: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import algos
    import kernels
    import serving
    import tracing
    workload = {"kernels": kernels, "algorithms": algos}.get(args.workload,
                                                             serving)

    result = harness.Result()
    print(json.dumps({"host": harness.host_stamp()}))
    harness.exit_on_sigterm()
    try:
        if not args.trace:
            workload.run(args.workload, args.seed, args.seconds, result)
        else:
            self_s: dict = {}
            for part in (kernels, algos, serving):
                for layer, seconds in part.layers(args.seed, result).items():
                    self_s[layer] = self_s.get(layer, 0.0) + seconds
            tracing.report_self_times(result, self_s)
            workload.overhead(args.workload, args.seed, args.seconds, result)
    finally:
        harness.stop_children()
    print(result.line())
    return 0 if result.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
