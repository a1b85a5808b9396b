"""Scan-as-a-service: the asyncio server.

One :class:`ScanServer` listens on a TCP port, speaks the JSON-header
plus attachment protocol of :mod:`repro.serve.protocol`, and turns
concurrent client traffic into segmented mega-ops
(:mod:`repro.serve.batching`).  The request path::

    read_frame -> parse -> admit (drain? quota? cache? queue room?)
               -> pending queue -> batcher -> executor -> respond

Framing is settled on the connection loop (:func:`read_frame` reads or
drains every attachment) before a per-request task starts, so a task
never sees a half-read frame and framing never depends on the op.

Every admitted request parks a future on the pending queue.  A single
batcher task wakes on arrival and waits only while waiting can still
coalesce something: until the oldest pending request that could join a
mega-op has waited ``batch_window`` since its admission, and not at all
when no pending request could join one (float, ``sort``, one-bit
backward scans, empty vectors, or ``max_batch`` 1; see
:func:`window_delay`).  It then drains the queue, groups entries by
(op, dtype), chunks the groups by ``max_batch`` / ``max_batch_elements``,
and runs each unit on the executor thread.  The executor has exactly one
worker, so machine execution is serialized (one mega-op at a time — the
event loop stays free to accept and queue the *next* batch meanwhile,
which is what keeps occupancy high under load).

Failure handling follows the cluster's retry/degrade idiom
(:mod:`repro.cluster.ledger`): a mega-op that raises is *degraded* —
every member request re-runs solo, so one poisonous input cannot fail
its neighbours — and a solo failure is *classified* into a structured
error (``bad_request`` for input-shaped exceptions, ``internal``
otherwise).  Shutdown drains: admission closes first, queued work
finishes (bounded by ``drain_timeout``), and only then do the batcher,
executor, and connections come down — no pending future is ever left
unresolved.
"""
from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from ..observe.metrics import Ledger, registry
from .batching import (SERVABLE_OPS, BatchEngine, batchable,
                       proportional_shares)
from .cache import ResultCache
from .protocol import (ParsedRequest, ProtocolError, error_frame,
                       info_frame, ok_frame, parse_request, read_frame)
from .quota import QuotaManager, QuotaPolicy

__all__ = ["ServeConfig", "ServeLedger", "ScanServer", "classify_failure"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`ScanServer` can be told.

    ``port=0`` binds an ephemeral port (tests); ``backend`` takes
    anything :func:`repro.backends.resolve_backend` accepts — ``None``
    honors ``REPRO_BACKEND``, so the whole server rides the distributed
    engine when the environment says so.
    """

    host: str = "127.0.0.1"
    port: int = 0
    backend: object = None
    model: str = "scan"

    #: the longest a batchable request waits for company (seconds),
    #: counted from its admission; requests that cannot batch never wait
    batch_window: float = 0.002
    #: most requests in one mega-op
    max_batch: int = 64
    #: most elements in one mega-op
    max_batch_elements: int = 1 << 20
    #: admission bound: admitted-but-unanswered requests (backpressure)
    max_pending: int = 1024
    #: largest vector one request may carry
    max_elements: int = 1 << 18
    #: largest wire frame, header plus attachment (the StreamReader limit)
    max_frame_bytes: int = 8 << 20
    #: a queued request older than this dies with a ``timeout`` error
    request_timeout: float = 30.0
    #: result-cache capacity (0 disables)
    cache_entries: int = 1024
    #: per-tenant step budget (None disables metering)
    quota_budget: Optional[int] = None
    #: steps per second the budget refills
    quota_refill_per_s: float = 0.0
    #: how long shutdown waits for queued work before abandoning it
    drain_timeout: float = 10.0
    #: injectable clock for quota refill (tests drive it by hand)
    quota_clock: Optional[Callable[[], float]] = field(default=None,
                                                      repr=False)


def window_delay(pending: list, now: float, window: float,
                 max_batch: int) -> float:
    """How much longer the batcher should let arrivals pile up: until
    the oldest pending entry that could join a mega-op has waited
    ``window`` since admission (its ``t0``), and 0 when none could —
    unbatchable requests gain nothing from company, and ``max_batch``
    1 never forms a mega-op."""
    if window <= 0 or max_batch <= 1:
        return 0.0
    oldest = min((e.t0 for e in pending
                  if batchable(SERVABLE_OPS[e.req.op], e.req.values)),
                 default=None)
    return 0.0 if oldest is None else max(0.0, oldest + window - now)


def _resolve(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


def classify_failure(exc: BaseException) -> tuple:
    """Map an execution failure to a structured error, cluster-style:
    input-shaped exceptions (``ValueError`` covers ``SegmentError`` and
    the sorts' NaN rejection, ``TypeError`` covers dtype misuse) are the
    client's fault; anything else is ``internal``."""
    if isinstance(exc, (ValueError, TypeError)):
        return "bad_request", str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


@dataclass
class ServeLedger(Ledger):
    """One server's exact SLO accounting: the ``stats`` op's payload.

    Each field is also the registry counter ``serve.<field>``.  The
    ``latency_us`` and ``batch_occupancy`` series keep this server's
    recent observations exactly, for true p50/p99 (the registry's
    power-of-two histograms of the same names answer magnitude, not
    percentile).
    """

    prefix = "serve"

    requests: int = 0          #: compute requests admitted
    ok: int = 0                #: successful responses
    errors: int = 0            #: structured-error responses, any stage
    batches: int = 0           #: execution units dispatched, solo included
    mega_ops: int = 0          #: execution units with occupancy > 1
    batched_requests: int = 0  #: requests served inside a mega-op
    steps_total: int = 0       #: steps charged by every execution unit
    degraded_batches: int = 0  #: mega-ops that failed and re-ran solo

    @property
    def responses(self) -> int:
        return self.ok + self.errors

    @property
    def mean_batch_occupancy(self) -> float:
        return round(self.reservoir("batch_occupancy").mean, 3)

    @property
    def steps_per_request(self) -> Optional[float]:
        return round(self.steps_total / self.ok, 3) if self.ok else None

    @property
    def latency_p50_ms(self) -> Optional[float]:
        return self._latency_ms(0.50)

    @property
    def latency_p99_ms(self) -> Optional[float]:
        return self._latency_ms(0.99)

    def _latency_ms(self, q: float) -> Optional[float]:
        us = self.reservoir("latency_us").quantile(q)
        return round(us / 1e3, 3) if us is not None else None

    def reconciles(self) -> bool:
        """Every success answers an admitted request and every mega-op
        is a unit carrying at least two of them:
        ``2 * mega_ops <= batched_requests <= ok <= requests`` and
        ``mega_ops <= batches``."""
        return (2 * self.mega_ops <= self.batched_requests <= self.ok
                <= self.requests and self.mega_ops <= self.batches)


@dataclass
class _Pending:
    """One admitted request parked on the queue."""

    req: ParsedRequest
    key: Optional[str]           #: result-cache key (None: cache off)
    future: asyncio.Future       #: resolves to the response frame (bytes)
    t0: float                    #: loop.time() at admission
    deadline: Optional[float]


class ScanServer:
    """The scan service: one listener, one batcher, one executor thread.

    Lifecycle::

        server = ScanServer(ServeConfig(port=0))
        await server.start()          # binds; server.port is now real
        ...                           # or: await server.serve_forever()
        await server.shutdown()       # drain, then stop

    ``stats`` (a :class:`ServeLedger`) carries this instance's exact SLO
    numbers and publishes each event into the process-wide registry
    under ``serve.*``; ``metrics`` holds the registry-only instruments.
    """

    def __init__(self, config: ServeConfig = ServeConfig()) -> None:
        self.config = config
        self.engine = BatchEngine(config.backend, model=config.model)
        self.cache = ResultCache(config.cache_entries)
        self.quotas = QuotaManager(
            QuotaPolicy(budget=config.quota_budget,
                        refill_per_s=config.quota_refill_per_s),
            **({"clock": config.quota_clock} if config.quota_clock else {}))
        self.stats = ServeLedger()
        #: instruments outside the ledger: the open connections and
        #: pending requests, replies lost to clients that hung up, and
        #: the magnitudes of batch sizes and per-request step charges
        self.metrics = SimpleNamespace(
            connections=registry.gauge("serve.connections"),
            pending=registry.gauge("serve.pending"),
            dropped_replies=registry.counter("serve.dropped_replies"),
            batch_n=registry.histogram("serve.batch_n"),
            request_steps=registry.histogram("serve.request_steps"))

        self._server: Optional[asyncio.base_events.Server] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending: list = []
        self._outstanding = 0        #: admitted, future not yet resolved
        self._wake = asyncio.Event()
        self._draining = False
        #: the batch window's wait: its timer resolves it, and so does
        #: shutdown (an arrival does not)
        self._window: Optional[asyncio.Future] = None
        self._stopped = False
        self._writers: set = set()
        self._dead_writers: set = set()
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def pending_count(self) -> int:
        """Admitted requests whose response has not been resolved yet."""
        return self._outstanding

    async def start(self) -> None:
        assert self._server is None, "already started"
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._batcher_task = asyncio.ensure_future(self._batcher())
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port,
            limit=self.config.max_frame_bytes)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, finish (or abandon) queued work, tear down."""
        if self._stopped:
            return
        self._draining = True
        if self._window is not None:
            _resolve(self._window)
        if self._server is not None:
            # close() alone: wait_closed() blocks on open *client*
            # connections since 3.12.1, and those are ours to tear down
            self._server.close()

        loop = asyncio.get_running_loop()
        if drain:
            deadline = loop.time() + self.config.drain_timeout
            while self._outstanding and loop.time() < deadline:
                self._wake.set()
                await asyncio.sleep(0.005)
        # whatever is still queued gets a structured goodbye, not silence
        for entry in self._drain_queue():
            self._finish_error(entry, "shutting_down",
                               "server shut down before this request ran")

        self._stopped = True
        self._wake.set()
        if self._batcher_task is not None:
            await self._batcher_task
        if self._executor is not None:
            self._executor.shutdown(wait=True)

        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._writers.clear()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.metrics.connections.inc()
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        lock = asyncio.Lock()
        requests: set = set()
        try:
            while True:
                try:
                    frame = await read_frame(reader,
                                             self.config.max_frame_bytes,
                                             self.config.max_elements)
                except ProtocolError as err:
                    self._count_error(err.code)
                    await self._send(writer, lock, error_frame(
                        err.req_id, err.code, err.message, err.details))
                    if err.fatal:
                        break  # framing is lost: answered once, hang up
                    continue
                if frame is None:
                    # EOF (perhaps mid-attachment): the client left, so
                    # replies resolved after this point are undeliverable
                    self._dead_writers.add(writer)
                    break
                # one task per request: responses pipeline out of order
                t = asyncio.ensure_future(
                    self._serve_frame(*frame, writer, lock))
                requests.add(t)
                t.add_done_callback(requests.discard)
        except (ConnectionResetError, BrokenPipeError):
            self._dead_writers.add(writer)
        finally:
            if requests:
                await asyncio.gather(*list(requests),
                                     return_exceptions=True)
            self._writers.discard(writer)
            self._dead_writers.discard(writer)
            self.metrics.connections.dec()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    frame: bytes) -> None:
        if writer in self._dead_writers or writer.is_closing():
            # the client left before its answer arrived; the work is done
            # and accounted, only the reply is undeliverable
            self.metrics.dropped_replies.inc()
            return
        try:
            async with lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            self.metrics.dropped_replies.inc()

    async def _serve_frame(self, obj: dict, attachment: Optional[bytes],
                           writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        req_id = obj.get("id")
        op = obj.get("op")
        if op == "ping":
            await self._send(writer, lock, info_frame(req_id, pong=True))
            return
        if op == "stats":
            stats = self.stats.snapshot()
            del stats["reconciles"]  # the reply keeps its 13 SLO keys
            await self._send(writer, lock, info_frame(
                req_id, stats=stats,
                cache=self.cache.snapshot(),
                quotas=self.quotas.snapshot(),
                limits=self._limits()))
            return

        try:
            req = parse_request(obj, attachment, known_ops=SERVABLE_OPS,
                                max_elements=self.config.max_elements)
        except ProtocolError as err:
            self._count_error(err.code)
            await self._send(writer, lock,
                             error_frame(req_id, err.code, err.message,
                                         details=err.details))
            return

        frame = await self._admit_and_wait(req)
        await self._send(writer, lock, frame)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def _limits(self) -> dict:
        """The server's admission limits, as the ``stats`` op reports
        them: what a client needs to right-size requests pre-flight."""
        return {
            "max_elements": self.config.max_elements,
            "max_frame_bytes": self.config.max_frame_bytes,
            "max_batch": self.config.max_batch,
            "max_batch_elements": self.config.max_batch_elements,
            "max_pending": self.config.max_pending,
            "request_timeout": self.config.request_timeout,
        }

    def _count_error(self, code: str) -> None:
        self.stats.bump("errors")
        registry.counter(f"serve.error.{code}").inc()

    async def _admit_and_wait(self, req: ParsedRequest) -> bytes:
        loop = asyncio.get_running_loop()
        t0 = loop.time()

        if self._draining:
            self._count_error("shutting_down")
            return error_frame(req.id, "shutting_down",
                               "server is draining; retry elsewhere")

        denial = self.quotas.admit(req.tenant)
        if denial is not None:
            self._count_error("quota_exhausted")
            return error_frame(req.id, "quota_exhausted", denial)

        self.stats.bump("requests")

        # the digest hashes the whole payload: skip it when the cache is
        # off (its get/put ignore the key then)
        key = (ResultCache.key(req.op, req.values, req.seg_lengths,
                               backend=repr(self.engine.backend))
               if self.cache.enabled else None)
        hit = self.cache.get(key)
        if hit is not None:
            # no machine ran: zero steps charged, zero steps debited
            self.stats.bump("ok")
            self.stats.observe("latency_us", (loop.time() - t0) * 1e6)
            return ok_frame(req.id, hit.values, steps=0, batched=1,
                            cached=True, packed=req.packed)

        if self._outstanding >= self.config.max_pending:
            self._count_error("overloaded")
            return error_frame(
                req.id, "overloaded",
                f"{self._outstanding} requests already pending "
                f"(max_pending={self.config.max_pending}); back off")

        timeout = self.config.request_timeout
        entry = _Pending(req=req, key=key, future=loop.create_future(),
                         t0=t0,
                         deadline=(t0 + timeout) if timeout else None)
        self._pending.append(entry)
        self._outstanding += 1
        self.metrics.pending.set(self._outstanding)
        self._wake.set()

        frame = await entry.future
        self.stats.observe("latency_us", (loop.time() - t0) * 1e6)
        return frame

    # ------------------------------------------------------------------ #
    # The batcher
    # ------------------------------------------------------------------ #

    def _drain_queue(self) -> list:
        batch, self._pending = self._pending, []
        return batch

    async def _batcher(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._stopped:
                break
            if not self._pending:
                continue
            # the coalescing window: let concurrent arrivals pile up
            # while some pending request could still gain company
            if not self._draining:
                loop = asyncio.get_running_loop()
                delay = window_delay(self._pending, loop.time(),
                                     self.config.batch_window,
                                     self.config.max_batch)
                if delay > 0:
                    self._window = loop.create_future()
                    loop.call_later(delay, _resolve, self._window)
                    await self._window
            for op_name, entries in self._plan(self._drain_queue()):
                await self._run_unit(op_name, entries)

    def _plan(self, batch: list) -> list:
        """Expired entries answered; the rest grouped into execution
        units: same-(op, dtype) batchables chunked by the batch limits,
        everything else solo."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        groups: dict = {}
        units: list = []
        for entry in batch:
            if entry.deadline is not None and now > entry.deadline:
                self._finish_error(
                    entry, "timeout",
                    f"queued longer than request_timeout="
                    f"{self.config.request_timeout}s")
                continue
            spec = SERVABLE_OPS[entry.req.op]
            if batchable(spec, entry.req.values):
                groups.setdefault(
                    (entry.req.op, str(entry.req.values.dtype)),
                    []).append(entry)
            else:
                units.append((entry.req.op, [entry]))
        for (op_name, _), entries in groups.items():
            chunk: list = []
            chunk_n = 0
            for entry in entries:
                if chunk and (len(chunk) >= self.config.max_batch
                              or chunk_n + entry.req.n
                              > self.config.max_batch_elements):
                    units.append((op_name, chunk))
                    chunk, chunk_n = [], 0
                chunk.append(entry)
                chunk_n += entry.req.n
            if chunk:
                units.append((op_name, chunk))
        return units

    async def _run_unit(self, op_name: str, entries: list) -> None:
        loop = asyncio.get_running_loop()
        spec = SERVABLE_OPS[op_name]
        parts = [(e.req.values, e.req.seg_flags) for e in entries]
        try:
            results, steps, total_n = await loop.run_in_executor(
                self._executor, partial(self.engine.run_group, spec, parts))
        except Exception as exc:
            if len(entries) == 1:
                code, msg = classify_failure(exc)
                self._finish_error(entries[0], code, msg)
                return
            # degrade, cluster-style: the mega-op failed, so every member
            # re-runs solo and failures are classified one by one
            self.stats.bump("degraded_batches")
            for entry in entries:
                try:
                    out, solo_steps = await loop.run_in_executor(
                        self._executor,
                        partial(self.engine.run_solo, spec,
                                entry.req.values, entry.req.seg_flags))
                except Exception as solo_exc:
                    code, msg = classify_failure(solo_exc)
                    self._finish_error(entry, code, msg)
                else:
                    self._finish_ok(entry, out, solo_steps, occupancy=1)
                    self._record_batch(1, solo_steps, entry.req.n)
            return

        occupancy = len(entries)
        if occupancy == 1 or total_n == 0:
            shares = [steps] * occupancy
        else:
            # each request pays for its slice of the mega-op — batching
            # makes requests cheaper and the meter passes that on; the
            # shares partition the cost exactly (sum(shares) == steps)
            shares = proportional_shares(steps,
                                         [e.req.n for e in entries])
        for entry, out, share in zip(entries, results, shares):
            self._finish_ok(entry, out, share, occupancy=occupancy)
        self._record_batch(occupancy, steps,
                           total_n if occupancy > 1 else len(parts[0][0]))

    def _record_batch(self, occupancy: int, steps: int, n: int) -> None:
        self.stats.bump("batches")
        self.stats.bump("steps_total", int(steps))
        self.stats.observe("batch_occupancy", occupancy)
        self.metrics.batch_n.observe(n)
        if occupancy > 1:
            self.stats.bump("mega_ops")
            self.stats.bump("batched_requests", occupancy)

    def _finish_ok(self, entry: _Pending, result: np.ndarray, steps: int,
                   *, occupancy: int) -> None:
        self.quotas.debit(entry.req.tenant, steps)
        self.cache.put(entry.key, result, steps)
        self.stats.bump("ok")
        self.metrics.request_steps.observe(steps)
        self._resolve(entry, ok_frame(entry.req.id, result, steps=steps,
                                      batched=occupancy, cached=False,
                                      packed=entry.req.packed))

    def _finish_error(self, entry: _Pending, code: str, message: str) -> None:
        self._count_error(code)
        self._resolve(entry, error_frame(entry.req.id, code, message))

    def _resolve(self, entry: _Pending, frame: bytes) -> None:
        self._outstanding -= 1
        self.metrics.pending.set(self._outstanding)
        if not entry.future.done():
            entry.future.set_result(frame)
