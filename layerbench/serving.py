"""The ``serve_small`` and ``serve_large`` workloads: the server via its socket.

The server runs as a ``python -m repro serve`` subprocess with the result
cache off and a 2 ms batch window; load comes from this one process.  The host's speed drifts by
tens of percent over minutes and the server's latency follows it, so the
load runs in rounds, each timed after a client-side floor and divided by
it (METRICS.md has the probes behind this shape):

* ``serve_small`` -- each round sends 16 256-element int64 ``plus_scan``
  and ``seg_plus_scan`` requests at once over 2 connections, and the
  server coalesces them into mega-ops.  Tiny frames: admission, the batch
  window and mega-op assembly set the round's time.  Floor: the dispatch
  floor.
* ``serve_large`` -- each round sends one 32768-element float64
  ``plus_scan`` over 1 connection.  Floats never batch, so JSON encode and
  decode on both sides dominate.  Floor: the JSON codec floor.
"""
from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np

from repro import Machine
from repro.serve import ServeClient, ServeError
from repro.serve import batching as serve_batching
from repro.serve import client as serve_client
from repro.serve import protocol as serve_protocol
from repro.serve.batching import SERVABLE_OPS, BatchEngine, batchable

import harness
from harness import exclusive_cumsum, now, quantile
from tracing import Tracer, report_overhead

SMALL_N = 256
SMALL_POOL = 256
LARGE_N = 32768
LARGE_POOL = 6
ROUND = {"serve_small": 16, "serve_large": 1}
CONNECTIONS = {"serve_small": 2, "serve_large": 1}
FLOOR = {"serve_small": harness.dispatch_floor,
         "serve_large": harness.json_floor}
TAG = {"serve_small": "small", "serve_large": "large"}
SETUP_REPS = 5
WARMUP_ROUNDS = {"serve_small": 8, "serve_large": 4}
PEAK_ROUNDS = {"serve_small": 12, "serve_large": 8}
REPLAY = {"serve_small": 200, "serve_large": 12}
#: seconds of load per shape behind the per-layer figures of a traced run
LAYER_S = 2.0
#: the server's batch window, fixed here: a sleep the host's speed does
#: not change, so it is taken out of a round's time before the floor
WINDOW_S = 0.002
MAX_ELEMENTS = 1 << 18
START_TIMEOUT_S = 60.0


class Req:
    __slots__ = ("op", "values", "dtype", "seg_lengths", "oracle")

    def __init__(self, op, values, seg_lengths, oracle) -> None:
        self.op = op
        self.values = values
        self.dtype = str(values.dtype)
        self.seg_lengths = seg_lengths
        self.oracle = oracle


def make_requests(kind: str, seed: int) -> list:
    rng = np.random.default_rng(seed)
    if kind == "serve_large":
        return [Req("plus_scan", v, None, exclusive_cumsum(v))
                for v in (rng.standard_normal(LARGE_N)
                          for _ in range(LARGE_POOL))]
    reqs = []
    for i in range(SMALL_POOL):
        v = rng.integers(-1000, 1000, SMALL_N, dtype=np.int64)
        if i % 2 == 0:
            reqs.append(Req("plus_scan", v, None, exclusive_cumsum(v)))
            continue
        lengths = []
        while sum(lengths) < SMALL_N:
            lengths.append(int(min(rng.integers(1, 32),
                                   SMALL_N - sum(lengths))))
        oracle = np.concatenate([exclusive_cumsum(part) for part in
                                 np.split(v, np.cumsum(lengths)[:-1])])
        reqs.append(Req("seg_plus_scan", v, lengths, oracle))
    return reqs


def _equal(req: Req, out) -> bool:
    return out.dtype == req.oracle.dtype and np.array_equal(out, req.oracle)


# ------------------------------- server -------------------------------- #

class Server:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(harness.ROOT / "src")
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._log = open(harness.OUT_DIR / "server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--cache", "0", "--backend", "numpy",
             "--window", str(WINDOW_S)],
            cwd=harness.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = re.search(r":(\d+) ", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


async def _send(client, req: Req, result) -> None:
    try:
        out = await client.scan(req.op, req.values, dtype=req.dtype,
                                seg_lengths=req.seg_lengths)
    except ServeError:
        result.error()
        return
    result.check(_equal(req, out))


async def _rounds(kind, clients, reqs, result, *, seconds=None, count=None,
                  floors=True, tracer=None) -> list:
    """Rounds until ``seconds`` pass (at least two) or ``count`` are done.
    A round's requests are sent at once, spread over the connections, and
    timed until the last reply, after the workload's floor.  Returns
    ``[(round seconds, floor seconds or None), ...]``."""
    size = ROUND[kind]
    samples: list = []
    end = now() + seconds if seconds is not None else None
    k = 0
    while (len(samples) < count if count is not None
           else len(samples) < 2 or now() < end):
        if tracer is not None:
            tracer.iteration = len(samples)
        floor = FLOOR[kind]() if floors else None
        batch = [reqs[(k + i) % len(reqs)] for i in range(size)]
        k += size
        t0 = now()
        await asyncio.gather(*(_send(clients[i % len(clients)], r, result)
                               for i, r in enumerate(batch)))
        samples.append((now() - t0, floor))
    return samples


def x_floor(samples) -> float:
    """Median round time beyond the batch window, in floor units."""
    return statistics.median((t - WINDOW_S) / f for t, f in samples)


async def _start(kind: str, reqs, result):
    """Spawn the server, connect, and get the first round answered."""
    server = Server()
    clients: list = []
    try:
        for _ in range(CONNECTIONS[kind]):
            clients.append(await ServeClient.connect("127.0.0.1",
                                                     server.port))
        await _rounds(kind, clients, reqs, result, count=1, floors=False)
    except BaseException:
        await _stop(server, clients)
        raise
    return server, clients


async def _warm(kind: str, clients, reqs, result) -> None:
    """Untimed rounds, so measured rounds find every path warm."""
    await _rounds(kind, clients, reqs, result, count=WARMUP_ROUNDS[kind],
                  floors=False)


async def _stop(server: Server, clients) -> None:
    try:
        for c in clients:
            await c.close()
    finally:
        server.stop()


async def _setup(kind: str, reqs, result):
    """Median of ``SETUP_REPS`` cold starts."""
    times = []
    for i in range(SETUP_REPS):
        t0 = now()
        server, clients = await _start(kind, reqs, result)
        times.append(now() - t0)
        if i < SETUP_REPS - 1:
            await _stop(server, clients)
    return statistics.median(times), server, clients


async def _peak(kind, clients, reqs, result) -> float:
    """Client-process traced MiB above the live baseline, the median over
    untimed rounds of each round's peak (a single peak depends on how the
    replies happen to bunch up in the socket buffers)."""
    peaks = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(PEAK_ROUNDS[kind]):
            tracemalloc.reset_peak()
            await _rounds(kind, clients, reqs, result, count=1, floors=False)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / (1 << 20)


# -------------------------------- replay ------------------------------- #

def _wire_line(req: Req, req_id: int) -> bytes:
    """The request frame exactly as ``ServeClient.request`` writes it."""
    obj = {"id": req_id, "op": req.op, "dtype": req.dtype,
           "values": serve_client.encode_values(req.values)}
    if req.seg_lengths is not None:
        obj["seg_lengths"] = req.seg_lengths
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def replay(kind: str, reqs, occupancy: float, result,
           tracer: Tracer) -> dict:
    """The request path run in-process on the workload's own payloads, in
    order: client encode, frame decode + ``parse_request``, the
    ``BatchEngine`` (``run_group`` over groups of the observed occupancy;
    floats run solo), ``ok_frame``, client decode.  Medians, ms per
    request; the client's two halves are summed."""
    engine = BatchEngine("numpy")
    tracer.observe(engine.backend)
    k = max(1, round(occupancy))
    stages = {"decode_ms": [], "engine_ms": [], "encode_ms": [],
              "client_codec_ms": []}
    i = 0
    while i < REPLAY[kind]:
        tracer.iteration += 1
        group = [reqs[(i + j) % len(reqs)] for j in range(k)]
        group = [r for r in group if r.op == group[0].op]
        i += len(group)
        t0 = now()
        lines = [_wire_line(r, j) for j, r in enumerate(group)]
        t1 = now()
        parsed = [serve_protocol.parse_request(
                      serve_protocol.decode_frame(line),
                      known_ops=SERVABLE_OPS, max_elements=MAX_ELEMENTS)
                  for line in lines]
        t2 = now()
        spec = SERVABLE_OPS[group[0].op]
        if len(parsed) > 1 and all(batchable(spec, p.values)
                                   for p in parsed):
            outs, steps, _ = engine.run_group(
                spec, [(p.values, p.seg_flags) for p in parsed])
        else:
            solo = [engine.run_solo(spec, p.values, p.seg_flags)
                    for p in parsed]
            outs, steps = [o for o, _ in solo], solo[0][1]
        t3 = now()
        frames = [serve_protocol.ok_frame(p.id, out, steps=steps,
                                          batched=len(parsed), cached=False)
                  for p, out in zip(parsed, outs)]
        t4 = now()
        decoded = [serve_client.decode_values(f["values"], f["dtype"])
                   for f in map(json.loads, frames)]
        t5 = now()
        for r, out in zip(group, decoded):
            result.check(_equal(r, out))
        n = len(group)
        stages["decode_ms"].append((t2 - t1) * 1e3 / n)
        stages["engine_ms"].append((t3 - t2) * 1e3 / n)
        stages["encode_ms"].append((t4 - t3) * 1e3 / n)
        stages["client_codec_ms"].append(((t1 - t0) + (t5 - t4)) * 1e3 / n)
    return {name: statistics.median(v) for name, v in stages.items()}


def _trace_wiring(tracer: Tracer) -> None:
    tracer.wrap(serve_client, "encode_values", "serve",
                "client.encode_values")
    tracer.wrap(serve_client, "decode_values", "serve",
                "client.decode_values")
    for fn in ("decode_frame", "parse_request", "ok_frame"):
        tracer.wrap(serve_protocol, fn, "serve")
    tracer.wrap(serve_batching.BatchEngine, "run_solo", "serve",
                "BatchEngine.run_solo")
    tracer.wrap(serve_batching.BatchEngine, "run_group", "serve",
                "BatchEngine.run_group")
    tracer.wrap(Machine, "execute", "machine", "Machine.execute")


def _trace_wiring(tracer: Tracer) -> None:
    tracer.wrap(serve_client, "encode_values", "serve",
                "client.encode_values")
    tracer.wrap(serve_client, "decode_values", "serve",
                "client.decode_values")
    for fn in ("decode_frame", "parse_request", "ok_frame"):
        tracer.wrap(serve_protocol, fn, "serve")
    tracer.wrap(serve_batching.BatchEngine, "run_solo", "serve",
                "BatchEngine.run_solo")
    tracer.wrap(serve_batching.BatchEngine, "run_group", "serve",
                "BatchEngine.run_group")
    tracer.wrap(Machine, "execute", "machine", "Machine.execute")


# -------------------------------- entry -------------------------------- #

async def _run(kind: str, seed: int, seconds: float, result) -> None:
    reqs = make_requests(kind, seed)
    setup_s, server, clients = await _setup(kind, reqs, result)
    try:
        await _warm(kind, clients, reqs, result)
        samples = await _rounds(kind, clients, reqs, result, seconds=seconds)
        peak = await _peak(kind, clients, reqs, result)
    finally:
        await _stop(server, clients)
    result.put("setup_s", setup_s, "s")
    result.put("x_floor", x_floor(samples), "x")
    result.put("peak_mib", peak, "MiB")


async def _layers(seed: int, result) -> dict:
    """Both shapes: ``LAYER_S`` of load read against the server's ``stats``
    op, then the traced in-process replay."""
    tracer = Tracer()
    for kind, tag in TAG.items():
        reqs = make_requests(kind, seed)
        server, clients = await _start(kind, reqs, result)
        try:
            await _warm(kind, clients, reqs, result)
            samples = await _rounds(kind, clients, reqs, result,
                                    seconds=LAYER_S)
            stats = (await clients[0].stats())["stats"]
        finally:
            await _stop(server, clients)
        times = [t for t, _ in samples]
        p50 = quantile(times, 0.5) * 1e3
        result.put(f"serve.{tag}.p50_ms", p50, "ms")
        result.put(f"serve.{tag}.p90_ms", quantile(times, 0.9) * 1e3, "ms")
        result.put(f"serve.{tag}.server_p50_ms", stats["latency_p50_ms"],
                   "ms")
        result.put(f"serve.{tag}.wire_ms", p50 - stats["latency_p50_ms"],
                   "ms")
        result.put(f"serve.{tag}.occupancy", stats["mean_batch_occupancy"],
                   "count")
        result.put(f"serve.{tag}.steps_per_request",
                   stats["steps_per_request"], "count")
        if kind == "serve_large":
            result.put("floor.json_ms",
                       statistics.median(f for _, f in samples) * 1e3, "ms")

        _trace_wiring(tracer)
        try:
            stages = replay(kind, reqs, stats["mean_batch_occupancy"],
                            result, tracer)
        finally:
            tracer.restore()
        for name, value in stages.items():
            result.put(f"serve.{tag}.{name}", value, "ms")
    return tracer.self_seconds()


async def _overhead(kind: str, seed: int, seconds: float, result) -> None:
    reqs = make_requests(kind, seed)
    server, clients = await _start(kind, reqs, result)
    try:
        await _warm(kind, clients, reqs, result)
        plain = await _rounds(kind, clients, reqs, result,
                              seconds=seconds / 2)
        tracer = Tracer()
        _trace_wiring(tracer)
        try:
            traced = await _rounds(kind, clients, reqs, result,
                                   seconds=seconds / 2, tracer=tracer)
        finally:
            tracer.restore()
    finally:
        await _stop(server, clients)
    report_overhead(result, tracer, x_floor(plain), x_floor(traced),
                    harness.OUT_DIR / f"trace-{kind}.json")


def run(kind: str, seed: int, seconds: float, result) -> None:
    asyncio.run(_run(kind, seed, seconds, result))


def layers(seed: int, result) -> dict:
    return asyncio.run(_layers(seed, result))


def overhead(kind: str, seed: int, seconds: float, result) -> None:
    asyncio.run(_overhead(kind, seed, seconds, result))
