"""A bit-serial hypercube router: the cost model for an arbitrary parallel
memory reference (Table 2's comparison partner).

Every practical P-RAM realization routes memory references through a
network; the Connection Machine used a hypercube router whose wires the
scan circuit shared.  This module simulates dimension-ordered (e-cube)
store-and-forward routing of one message per processor, bit-serially:
a hop transmits ``lg n`` address bits plus ``width`` payload bits over a
single-bit link, one message at a time per link, and queueing is modeled
exactly by per-link busy times.

For a random permutation the total time is Θ(lg n · (lg n + m)) cycles —
compare the scan circuit's ``m + 2 lg n`` (:mod:`repro.hardware.tree`), the
paper's point that a scan is *cheaper* than a memory reference in practice
as well as in theory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ceil_log2

__all__ = ["HypercubeRouter", "RouteStats", "route_cycles_model"]


def route_cycles_model(n: int, width: int) -> int:
    """Zero-congestion lower bound: ``lg n`` store-and-forward hops of
    ``lg n + width`` serial bits each."""
    lg = ceil_log2(max(n, 2))
    return lg * (lg + width)


@dataclass
class RouteStats:
    """Outcome of routing one message set."""

    cycles: int
    total_hops: int
    max_queue_delay: int
    messages: int
    #: messages that reached their intended destination
    delivered: int = 0
    #: messages lost to an injected ``drop`` fault
    dropped: int = 0
    #: messages that arrived at the *wrong* node (injected address
    #: corruption); delivered + dropped + misrouted == messages
    misrouted: int = 0


class HypercubeRouter:
    """An ``n``-node hypercube (``n`` a power of two) with single-bit
    bidirectional links and dimension-ordered routing."""

    def __init__(self, n: int, width: int, *, injector=None) -> None:
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two >= 2")
        self.n = n
        self.width = width
        self.lg = ceil_log2(n)
        self.hop_cost = self.lg + width  # address + payload, bit serial
        #: optional :class:`repro.faults.FaultInjector`; its
        #: :class:`~repro.faults.RouterFault` entries address hops by
        #: ``(dimension, message)`` and either drop the flit or corrupt a
        #: destination-address bit in flight
        self.injector = injector

    def route(self, destinations) -> RouteStats:
        """Route one message from every node ``i`` to ``destinations[i]``.

        Returns cycle statistics.  Destinations need not form a permutation
        (concurrent references queue at the links, which is exactly the
        behavior being costed).  With a fault injector attached, dropped
        messages vanish at the faulty hop; address corruption flips a bit
        of the in-flight destination register, so a still-pending address
        bit sends the message to the wrong node (e-cube never revisits a
        dimension, so it is never repaired), while a bit whose dimension
        was already routed leaves the path unchanged.  The stats report
        ``delivered`` / ``dropped`` / ``misrouted``.
        """
        dest = np.asarray(destinations, dtype=np.int64).copy()
        if len(dest) != self.n:
            raise ValueError(f"expected {self.n} destinations")
        if len(dest) and (dest.min() < 0 or dest.max() >= self.n):
            raise ValueError("destination out of range")
        intended = dest.copy()

        # per-link busy-until times: link key = (node, dimension)
        busy = np.zeros((self.n, self.lg), dtype=np.int64)
        arrival = np.zeros(self.n, dtype=np.int64)  # message ready times
        node = np.arange(self.n, dtype=np.int64)    # current node per message
        alive = np.ones(self.n, dtype=bool)
        total_hops = 0
        max_queue = 0

        for d in range(self.lg):
            needs = (((node ^ dest) >> d) & 1).astype(bool) & alive
            movers = np.flatnonzero(needs)
            # serialize per link in arrival order (FIFO queueing)
            order = movers[np.argsort(arrival[movers], kind="stable")]
            for mi in order:
                fault = (self.injector.router_fault_at(d, int(mi))
                         if self.injector is not None else None)
                if fault is not None:
                    self.injector.counters.bump("injected")
                    if fault.kind == "drop":
                        alive[mi] = False  # lost before the link fires
                        continue
                    dest[mi] ^= 1 << (fault.bit % self.lg)
                    if not (((node[mi] ^ dest[mi]) >> d) & 1):
                        continue  # the corrupted address no longer needs d
                src = node[mi]
                start = max(arrival[mi], busy[src, d])
                max_queue = max(max_queue, int(start - arrival[mi]))
                finish = start + self.hop_cost
                busy[src, d] = finish
                arrival[mi] = finish
                node[mi] ^= 1 << d
                total_hops += 1

        at_target = alive & (node == intended)
        return RouteStats(
            cycles=int(arrival.max()) if self.n else 0,
            total_hops=total_hops,
            max_queue_delay=max_queue,
            messages=self.n,
            delivered=int(np.count_nonzero(at_target)),
            dropped=int(np.count_nonzero(~alive)),
            misrouted=int(np.count_nonzero(alive & (node != intended))),
        )

    def random_permutation_cycles(self, rng: np.random.Generator,
                                  trials: int = 3) -> int:
        """Median routing time over random permutations — the paper's
        'arbitrary memory reference' cost."""
        results = []
        for _ in range(trials):
            results.append(self.route(rng.permutation(self.n)).cycles)
        return int(np.median(results))
