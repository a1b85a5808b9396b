"""An asyncio client for the scan service.

One :class:`ServeClient` holds one connection and pipelines requests on
it: every call gets a fresh ``id``, a background reader task matches
response frames back to callers by that id, and any number of
:meth:`request` calls may be in flight at once — which is exactly the
traffic shape the server's batcher feeds on.  The load and property
suites, the benchmark, and the CLI selfcheck all drive the server
through this class.

    client = await ServeClient.connect("127.0.0.1", port)
    out = await client.scan("plus_scan", [2, 1, 2])   # ndarray
    await client.close()

:meth:`request` returns the raw response dict; :meth:`scan` decodes a
successful response into an ndarray and raises :class:`ServeError` (with
the structured ``code``) on an error response.  ``values`` always go out
as an attachment: the JSON header line, then the array's little-endian
buffer as it is (see :mod:`repro.serve.protocol`).  Replies come back
the same way, and :meth:`request` puts the reply's attachment bytes
under ``values``.
"""
from __future__ import annotations

import asyncio
from typing import Optional, Sequence

import numpy as np

# ``encode_values`` (the list form) is re-exported for callers that build
# JSON-line frames themselves, such as layerbench's in-process replay
from .protocol import encode_values  # noqa: F401
from .protocol import ProtocolError, decode_values, encode_frame, read_frame

__all__ = ["ServeError", "ServeClient"]


class ServeError(Exception):
    """A structured error response, surfaced client-side.

    ``details`` mirrors the response's machine-readable context (the
    limit a request tripped and the offending size), ``{}`` when the
    server sent none."""

    def __init__(self, code: str, message: str,
                 details: Optional[dict] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.details = details or {}


class ServeClient:
    """One pipelined connection to a :class:`~repro.serve.server.ScanServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 limit: int = 32 << 20) -> None:
        self._reader = reader
        self._writer = writer
        self._limit = limit   #: largest reply frame accepted
        self._next_id = 0
        self._waiting: dict = {}
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int,
                      limit: int = 32 << 20) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=limit)
        return cls(reader, writer, limit)

    # ------------------------------------------------------------------ #
    # The read side: one task, frames dispatched by id
    # ------------------------------------------------------------------ #

    async def _read_loop(self) -> None:
        exc: Optional[Exception] = None
        try:
            while (got := await read_frame(self._reader,
                                           self._limit)) is not None:
                frame, attachment = got
                if attachment is not None:
                    frame["values"] = attachment
                fut = self._waiting.pop(frame.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError, ProtocolError) as caught:
            exc = (caught if isinstance(caught, Exception)
                   else ConnectionResetError("connection task cancelled"))
        # whoever is still waiting will never get a frame: fail them
        err = exc or ConnectionResetError("server closed the connection")
        for fut in self._waiting.values():
            if not fut.done():
                fut.set_exception(err)
        self._waiting.clear()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    async def request(self, op: str, values=None, *, dtype=None,
                      seg_lengths: Optional[Sequence[int]] = None,
                      tenant: Optional[str] = None) -> dict:
        """One request -> the raw response dict (pipelining-safe)."""
        self._next_id += 1
        req_id = self._next_id
        obj: dict = {"id": req_id, "op": op}
        arr = None
        if values is not None:
            arr = np.asarray(values) if dtype is None \
                else np.asarray(values, dtype=np.dtype(dtype))
        if seg_lengths is not None:
            obj["seg_lengths"] = [int(x) for x in seg_lengths]
        if tenant is not None:
            obj["tenant"] = tenant

        if self._reader_task.done():
            raise ConnectionResetError("connection already closed")
        fut = asyncio.get_running_loop().create_future()
        self._waiting[req_id] = fut
        # header, then the array's own buffer (no copy when little-endian)
        for part in encode_frame(obj, arr):
            self._writer.write(part)
        await self._writer.drain()
        return await fut

    async def scan(self, op: str, values, *, dtype=None,
                   seg_lengths: Optional[Sequence[int]] = None,
                   tenant: Optional[str] = None) -> np.ndarray:
        """One request -> the result vector, or :class:`ServeError`."""
        frame = await self.request(op, values, dtype=dtype,
                                   seg_lengths=seg_lengths, tenant=tenant)
        if not frame.get("ok"):
            err = frame.get("error") or {}
            raise ServeError(err.get("code", "internal"),
                             err.get("message", "unspecified error"),
                             err.get("details"))
        return decode_values(frame["values"], frame["dtype"])

    async def ping(self) -> bool:
        frame = await self.request("ping")
        return bool(frame.get("pong"))

    async def stats(self) -> dict:
        """The server's SLO snapshot (stats admin op)."""
        return await self.request("stats")

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await self._reader_task
