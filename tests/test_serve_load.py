"""The serve load test: a thousand concurrent clients, zero divergence.

The server's whole claim is that coalescing concurrent requests into
segmented mega-ops is *invisible*: every response is bit-identical to a
serial one-request machine run, while the batcher actually does batch
(mean occupancy > 1 under concurrent load).  Pinned here:

* 1024 concurrent small requests across 16 pipelined connections — mixed
  integer ops — every response equals the serial machine, occupancy > 1;
* the acceptance workload: 64 concurrent 1k-element plus-scans ->
  mean batch occupancy >= 4, all bit-identical;
* responses pipeline out of order on one connection and still match;
* float requests ride the solo path (never batched) and stay
  bit-identical;
* the batch window waits only while a request can gain company: a
  request that cannot batch (float, ``sort``, ``back_or_scan``, empty,
  ``max_batch`` 1) is answered at once under a 5 s window, while
  batchable ints still wait theirs and fuse (:func:`window_delay`
  pinned on fake entries);
* the SLO snapshot's accounting reconciles with the traffic sent.

Everything runs in-process on an ephemeral port with the default
(``REPRO_BACKEND``-resolved) backend, so the CI matrix exercises the
server over every engine, distributed included.
"""
import asyncio
from types import SimpleNamespace

import numpy as np

from repro.core import scans
from repro.machine.model import Machine
from repro.serve import ScanServer, ServeClient, ServeConfig
from repro.serve.batching import SERVABLE_OPS, BatchEngine
from repro.serve.protocol import decode_values
from repro.serve.server import window_delay

OPS = {
    "plus_scan": scans.plus_scan,
    "max_scan": scans.max_scan,
    "min_scan": scans.min_scan,
    "or_scan": scans.or_scan,
    "plus_distribute": scans.plus_distribute,
}


def serial(op: str, values: np.ndarray) -> np.ndarray:
    """The one-request serial machine run every response must equal."""
    m = Machine("scan")
    return np.asarray(OPS[op](m.vector(values)).data)


async def _run_server(config: ServeConfig):
    server = ScanServer(config)
    await server.start()
    return server


def test_thousand_concurrent_small_requests():
    """16 connections x 64 pipelined requests: 1024 in flight at once,
    every response bit-identical, the batcher visibly batching."""
    rng = np.random.default_rng(42)
    ops = sorted(OPS)
    jobs = []  # (op, values)
    for i in range(1024):
        op = ops[i % len(ops)]
        n = int(rng.integers(1, 64))
        jobs.append((op, rng.integers(-1000, 1000, size=n,
                                      dtype=np.int64)))

    async def main():
        server = await _run_server(ServeConfig(
            port=0, batch_window=0.01, max_pending=4096,
            cache_entries=0))
        try:
            clients = [await ServeClient.connect("127.0.0.1", server.port)
                       for _ in range(16)]
            outs = await asyncio.gather(*[
                clients[i % 16].scan(op, vals)
                for i, (op, vals) in enumerate(jobs)])
            for c in clients:
                await c.close()
            return server, outs
        finally:
            await server.shutdown()

    server, outs = asyncio.run(main())

    for (op, vals), out in zip(jobs, outs):
        expected = serial(op, vals)
        assert out.dtype == expected.dtype, (op, out.dtype, expected.dtype)
        assert np.array_equal(out, expected), op

    snap = server.stats.snapshot()
    assert snap["ok"] == 1024
    assert snap["errors"] == 0
    assert snap["mean_batch_occupancy"] > 1.0, snap
    assert snap["mega_ops"] >= 1
    assert server.pending_count == 0


def test_acceptance_64_concurrent_1k_plus_scans():
    """The issue's acceptance bar: >=64 concurrent 1k-element plus-scans,
    mean batch occupancy >= 4, every result bit-identical."""
    rng = np.random.default_rng(7)
    vecs = [rng.integers(-(1 << 40), 1 << 40, size=1000, dtype=np.int64)
            for _ in range(64)]

    async def main():
        # a generous window so all 64 arrivals pile into the same drain
        server = await _run_server(ServeConfig(
            port=0, batch_window=0.05, max_batch=64, cache_entries=0))
        try:
            clients = [await ServeClient.connect("127.0.0.1", server.port)
                       for _ in range(64)]
            outs = await asyncio.gather(*[
                c.scan("plus_scan", v) for c, v in zip(clients, vecs)])
            for c in clients:
                await c.close()
            return server, outs
        finally:
            await server.shutdown()

    server, outs = asyncio.run(main())

    for v, out in zip(vecs, outs):
        assert np.array_equal(out, serial("plus_scan", v))

    snap = server.stats.snapshot()
    assert snap["ok"] == 64 and snap["errors"] == 0
    assert snap["mean_batch_occupancy"] >= 4.0, snap


def test_pipelined_out_of_order_responses_match():
    """One connection, many requests in flight: ids route every response
    to its caller even when the server answers out of order."""
    rng = np.random.default_rng(3)
    vecs = [rng.integers(-50, 50, size=int(rng.integers(1, 40)),
                         dtype=np.int64) for _ in range(100)]

    async def main():
        server = await _run_server(ServeConfig(port=0, batch_window=0.01,
                                               cache_entries=0))
        try:
            client = await ServeClient.connect("127.0.0.1", server.port)
            outs = await asyncio.gather(*[
                client.scan("plus_scan", v) for v in vecs])
            await client.close()
            return outs
        finally:
            await server.shutdown()

    outs = asyncio.run(main())
    for v, out in zip(vecs, outs):
        assert np.array_equal(out, serial("plus_scan", v))


def test_floats_never_batch_and_stay_bit_identical():
    """Float vectors take the solo path (association and NaN semantics
    forbid fusing them), so their bits match the serial run exactly."""
    rng = np.random.default_rng(11)
    vecs = [rng.standard_normal(257) * 10.0 ** float(rng.integers(-3, 4))
            for _ in range(32)]

    async def main():
        server = await _run_server(ServeConfig(port=0, batch_window=0.02,
                                               cache_entries=0))
        try:
            clients = [await ServeClient.connect("127.0.0.1", server.port)
                       for _ in range(8)]
            outs = await asyncio.gather(*[
                clients[i % 8].scan("plus_scan", v)
                for i, v in enumerate(vecs)])
            for c in clients:
                await c.close()
            return server, outs
        finally:
            await server.shutdown()

    server, outs = asyncio.run(main())
    for v, out in zip(vecs, outs):
        expected = serial("plus_scan", v)
        assert out.dtype == np.float64
        assert np.array_equal(out, expected)  # bit-identical, no tolerance
    # every float execution unit carried exactly one request
    assert server.stats.mega_ops == 0
    assert server.stats.batches == 32


async def _timed_request(client, op, values):
    """One request -> (response dict, seconds until the reply)."""
    loop = asyncio.get_running_loop()
    t = loop.time()
    frame = await client.request(op, values)
    return frame, loop.time() - t


def test_unbatchable_requests_skip_the_window():
    """Under a 5 s window, requests that can never join a mega-op are
    answered at once, solo and bit-identical to the serial run."""
    rng = np.random.default_rng(5)
    jobs = [
        ("plus_scan", rng.standard_normal(100)),
        ("sort", rng.integers(-50, 50, size=100, dtype=np.int64)),
        ("back_or_scan", rng.integers(0, 2, size=100, dtype=np.int64)),
        ("plus_scan", np.zeros(0, dtype=np.int64)),
    ]

    async def main():
        server = await _run_server(ServeConfig(
            port=0, batch_window=5.0, cache_entries=0))
        try:
            client = await ServeClient.connect("127.0.0.1", server.port)
            replies = [await _timed_request(client, op, v)
                       for op, v in jobs]
            await client.close()
            return server, replies
        finally:
            await server.shutdown()

    server, replies = asyncio.run(main())
    for (op, v), (frame, elapsed) in zip(jobs, replies):
        assert frame["ok"], frame
        assert elapsed < 1.0, (op, elapsed)
        assert frame["batched"] == 1
        out = decode_values(frame["values"], frame["dtype"])
        want, _ = server.engine.run_solo(SERVABLE_OPS[op], v, None)
        assert out.dtype == want.dtype, op
        assert out.tobytes() == want.tobytes(), op


def test_max_batch_one_skips_the_window():
    """max_batch=1 never forms a mega-op, so even an int scan skips it."""
    async def main():
        server = await _run_server(ServeConfig(
            port=0, batch_window=5.0, max_batch=1, cache_entries=0))
        try:
            client = await ServeClient.connect("127.0.0.1", server.port)
            frame, elapsed = await _timed_request(
                client, "plus_scan", np.arange(10, dtype=np.int64))
            await client.close()
            return frame, elapsed
        finally:
            await server.shutdown()

    frame, elapsed = asyncio.run(main())
    assert frame["ok"] and frame["batched"] == 1, frame
    assert elapsed < 1.0, elapsed


def test_batchable_requests_still_wait_and_fuse_beside_a_float():
    """Two ints wait the window and fuse; the float beside them is exact."""
    ints = [np.arange(5, dtype=np.int64), np.arange(7, dtype=np.int64) * 3]
    flt = np.random.default_rng(9).standard_normal(33)

    async def main():
        server = await _run_server(ServeConfig(
            port=0, batch_window=0.2, cache_entries=0))
        try:
            client = await ServeClient.connect("127.0.0.1", server.port)
            replies = await asyncio.gather(
                *[_timed_request(client, "plus_scan", v) for v in ints],
                _timed_request(client, "plus_scan", flt))
            await client.close()
            return replies
        finally:
            await server.shutdown()

    replies = asyncio.run(main())
    for v, (frame, elapsed) in zip(ints, replies[:2]):
        assert frame["ok"] and frame["batched"] == 2, frame
        assert elapsed >= 0.2, elapsed
        assert np.array_equal(
            decode_values(frame["values"], frame["dtype"]),
            serial("plus_scan", v))
    frame, _ = replies[2]
    out = decode_values(frame["values"], frame["dtype"])
    assert out.tobytes() == serial("plus_scan", flt).tobytes()


def _entry(op, values, t0):
    return SimpleNamespace(req=SimpleNamespace(op=op, values=values), t0=t0)


def test_window_delay_rule():
    """The delay is anchored on the oldest batchable admission."""
    ints = np.arange(4, dtype=np.int64)
    late_int = _entry("plus_scan", ints, 10.25)
    early_int = _entry("max_scan", ints, 10.0)
    unbatchable = [_entry("plus_scan", np.ones(4), 9.0),
                   _entry("sort", ints, 9.0),
                   _entry("back_or_scan", ints, 9.0),
                   _entry("plus_scan", ints[:0], 9.0)]
    now = 10.125
    # unbatchable entries never anchor the window, however old
    assert window_delay(unbatchable, now, 0.5, 64) == 0.0
    assert window_delay(unbatchable + [late_int], now, 0.5, 64) == 0.625
    # the oldest batchable admission anchors it
    assert window_delay([late_int, early_int], now, 0.5, 64) == 0.375
    # an entry that has already waited a window waits no more
    assert window_delay([early_int], 11.0, 0.5, 64) == 0.0
    # max_batch 1 never forms a mega-op, and a zero window never waits
    assert window_delay([early_int], now, 0.5, 1) == 0.0
    assert window_delay([early_int], now, 0.0, 64) == 0.0
