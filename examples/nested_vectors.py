"""Nested vectors and profiling: the library-ergonomics tour.

The paper works with raw (values, segment-flags) pairs; downstream users
get :class:`repro.core.SegmentedVector` — a vector of subvectors with the
segmented operations as methods — and the :func:`repro.observe.profile`
span profiler that breaks a pipeline's program steps down by phase.

The demo: a fleet of delivery routes (one segment per route), processed
entirely with per-segment scans.

Run:  python examples/nested_vectors.py
"""
import numpy as np

from repro import Machine
from repro.core import SegmentedVector
from repro.observe import profile, span


def pipeline(legs: SegmentedVector):
    """The per-route pipeline, one profiler span per phase."""
    with span("odometer"):
        # distance covered before each leg: a segmented +-scan
        odom = legs.plus_scan()
    with span("totals"):
        totals = legs.sums()
        longest_leg = legs.maxima()
    with span("prune"):
        # drop all legs shorter than 10 km, keep the route structure
        keep = legs.values >= 10
        long_legs = legs.pack(keep)
    return odom, totals, longest_leg, long_legs


def main() -> None:
    m = Machine("scan", seed=0)
    rng = np.random.default_rng(4)

    # one segment per delivery route; values are leg distances (km)
    routes = [list(map(int, rng.integers(3, 40, rng.integers(2, 7))))
              for _ in range(6)]
    legs = SegmentedVector.from_nested(m, routes)
    print("routes (leg distances):")
    for i, r in enumerate(legs.to_nested()):
        print(f"  route {i}: {r}")

    with profile(m) as p:
        odom, totals, longest_leg, long_legs = pipeline(legs)

    print("\nkm before each leg:", odom.to_nested())
    print("route totals:      ", totals.to_list())
    print("longest leg/route: ", longest_leg.to_list())
    print("legs >= 10 km:     ", long_legs.to_nested())

    print("\nstep profile (where did the program steps go?):")
    print(f"  total: {p.total_steps} steps")
    for s in p.root.children:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(s.by_kind().items()))
        print(f"  {s.name:<10} {s.steps:>4} steps  [{kinds}]")

    # the punchline: the whole pipeline costs the same for 6 routes or 6000
    m2 = Machine("scan")
    big = SegmentedVector.from_lengths(
        m2.vector(rng.integers(3, 40, 30_000)),
        np.full(6000, 5))
    with profile(m2) as p2:
        pipeline(big)
    print(f"\nsame pipeline on 6000 routes / 30000 legs: {p2.total_steps} "
          f"steps (vs {p.total_steps} for the toy — independent of size)")
    if p2.total_steps != p.total_steps:
        raise SystemExit("the pipeline's step count depends on its size")


if __name__ == "__main__":
    main()
