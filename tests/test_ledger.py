"""The ledger contract: one write per event, two exact readers.

Every ledger (:class:`FaultCounters`, :class:`ForkCounters`,
:class:`ClusterLedger`, :class:`ServeLedger`) is a
:class:`repro.observe.metrics.Ledger`: ``bump`` moves the instance field
and the registry counter ``<prefix>.<field>`` together, ``reset`` zeroes
only the instance, ``snapshot`` reports every field plus the ledger's own
reconcile verdict.  The fault tests below pin that the registry and the
per-machine ledger cannot drift, including for TMR masking and checksum
detections in the circuit simulators, and that a campaign's aggregate
does not publish its faults a second time.
"""
import asyncio
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ledger import ClusterLedger
from repro.faults import FaultInjector
from repro.faults.campaign import run_machine_campaign
from repro.faults.plan import random_tree_fault_plan
from repro.hardware.selfcheck import ChecksumTreeScanCircuit
from repro.hardware.tmr import TMRTreeScanCircuit
from repro.hardware.tree import PLUS
from repro.machine.counters import FaultCounters, ForkCounters
from repro.observe.metrics import Ledger, Reservoir, registry
from repro.serve import ScanServer, ServeClient, ServeConfig
from repro.serve.server import ServeLedger

#: each ledger's reconcile rule, restated independently of its class
RULES = {
    FaultCounters: lambda f: min(
        f.injected, f.detected, f.masked, f.retried, f.corrected,
        f.degraded_scans, f.injected - f.detected - f.masked) >= 0,
    ForkCounters: lambda f: f.spawned == f.synced and f.revoked >= 0,
    ClusterLedger: lambda c: (c.timeouts + c.crashes + c.corrupt_replies
                              == c.retries + c.degraded_shards),
    ServeLedger: lambda s: (2 * s.mega_ops <= s.batched_requests <= s.ok
                            <= s.requests and s.mega_ops <= s.batches),
}

#: the ``stats`` op's reply keys, unchanged since the op was introduced
STATS_KEYS = {
    "requests", "responses", "ok", "errors", "batches", "mega_ops",
    "batched_requests", "mean_batch_occupancy", "steps_total",
    "steps_per_request", "latency_p50_ms", "latency_p99_ms",
    "degraded_batches",
}


def _counts(cls) -> dict:
    """Current registry value of every ``<prefix>.<field>`` counter
    (0 for a name the registry has never seen)."""
    snap = registry.snapshot()
    return {f.name: snap.get(f"{cls.prefix}.{f.name}", {"value": 0})["value"]
            for f in fields(cls)}


def _fields(ledger) -> dict:
    return {f.name: getattr(ledger, f.name) for f in fields(ledger)}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


# ---------------------------------------------------------------------- #
# the contract, over all four ledgers
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ledger_contract(cls, data):
    names = [f.name for f in fields(cls)]
    bumps = data.draw(st.lists(
        st.tuples(st.sampled_from(names), st.integers(0, 4)), max_size=30))
    ledger = cls()
    assert isinstance(ledger, Ledger)
    before = _counts(cls)
    for name, k in bumps:
        ledger.bump(name, k)

    # registry deltas equal the fields, which stay plain ints
    assert _delta(_counts(cls), before) == _fields(ledger)
    assert all(type(v) is int for v in _fields(ledger).values())

    # the snapshot holds every field plus the reconcile verdict
    snap = ledger.snapshot()
    assert set(names) | {"reconciles"} <= set(snap)
    assert {n: snap[n] for n in names} == _fields(ledger)
    assert snap["reconciles"] is ledger.reconciles() is RULES[cls](ledger)

    # reset zeroes the instance; registry counters only go up
    published = _counts(cls)
    ledger.reset()
    assert set(_fields(ledger).values()) <= {0}
    assert ledger.reconciles()
    assert _counts(cls) == published


def test_bump_rejects_negative_counts_without_moving_the_field():
    ledger = ForkCounters()
    with pytest.raises(ValueError):
        ledger.bump("revoked", -1)
    assert ledger.revoked == 0


def test_absorb_sums_without_publishing():
    a, b = ClusterLedger(), ClusterLedger()
    a.bump("retries", 2)
    b.bump("retries", 3)
    b.bump("crashes", 5)
    before = _counts(ClusterLedger)
    a.absorb(b)
    assert (a.retries, a.crashes) == (5, 5)
    assert _counts(ClusterLedger) == before


def test_observe_feeds_reservoir_and_registry_histogram():
    ledger = ServeLedger()
    hist = registry.histogram("serve.latency_us")
    count = hist.count
    for x in (300.0, 100.0, 200.0):
        ledger.observe("latency_us", x)
    assert hist.count == count + 3
    res = ledger.reservoir("latency_us")
    assert (res.count, res.mean) == (3, 200.0)
    assert ledger.latency_p50_ms == 0.2
    assert ledger.latency_p99_ms == 0.3
    ledger.reset()
    assert ledger.reservoir("latency_us").count == 0
    assert ledger.latency_p50_ms is None
    assert hist.count == count + 3


def test_reservoir_keeps_the_most_recent_observations():
    res = Reservoir()
    assert res.quantile(0.5) is None and res.mean == 0.0
    for x in range(Reservoir.SIZE + 10):
        res.observe(x)
    assert res.count == Reservoir.SIZE
    assert (res.quantile(0.0), res.quantile(1.0)) == (10, Reservoir.SIZE + 9)


# ---------------------------------------------------------------------- #
# the fault ledger and the registry cannot drift
# ---------------------------------------------------------------------- #

def test_fault_registry_matches_ledger_for_circuits_and_campaigns():
    """TMR masking and checksum detections reach ``faults.*`` exactly as
    they reach the ledger; a machine campaign's totals do not publish a
    second time."""
    counters = FaultCounters()
    before = _counts(FaultCounters)
    rng = np.random.default_rng(3)
    for seed in range(60):
        vals = rng.integers(0, 256, size=8)
        plan = random_tree_fault_plan(seed, n_leaves=8, width=8,
                                      replica=seed % 3)
        for circuit in (
                TMRTreeScanCircuit(8, 8, PLUS, checksum=seed % 2 == 1),
                ChecksumTreeScanCircuit(8, 8, PLUS)):
            circuit.injector = FaultInjector(plan, counters=counters)
            circuit.scan(vals)
    assert counters.masked > 0 and counters.detected > 0
    assert counters.reconciles()
    assert _delta(_counts(FaultCounters), before) == _fields(counters)

    before = _counts(FaultCounters)
    result = run_machine_campaign(trials=6, n=32)
    assert result.totals.injected == 6 and result.all_reconciled
    assert _delta(_counts(FaultCounters), before) == _fields(result.totals)


# ---------------------------------------------------------------------- #
# the serve ledger behind the ``stats`` op
# ---------------------------------------------------------------------- #

def test_stats_reply_keys_and_serve_ledger():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.02,
                                        cache_entries=0))
        await server.start()
        try:
            clients = [await ServeClient.connect("127.0.0.1", server.port)
                       for _ in range(4)]
            await asyncio.gather(*[c.scan("plus_scan", [1, 2, 3])
                                   for c in clients])
            reply = await clients[0].stats()
            for c in clients:
                await c.close()
            return server, reply
        finally:
            await server.shutdown()

    server, reply = asyncio.run(main())
    assert set(reply["stats"]) == STATS_KEYS
    stats = server.stats
    for name in ("requests", "ok", "errors", "batches", "mega_ops"):
        assert type(getattr(stats, name)) is int
    assert (stats.requests, stats.ok, stats.errors) == (4, 4, 0)
    assert stats.reconciles()
    assert reply["stats"]["ok"] == 4
