"""Chaos and robustness: the server under hostile and unlucky clients.

Mirrors the teardown-hygiene discipline of
``tests/test_distributed_teardown.py``: misbehavior must be *classified*
(a structured error code on the wire), never a crash, a hang, or a leak.
Pinned here:

* malformed JSON frames and non-object frames -> ``bad_request``, and
  the connection keeps serving;
* attachments whose ``nbytes`` is not a whole number of items, that
  carry a ``bool`` byte other than 0/1, lack or garble the ``dtype``, or
  duplicate ``values`` -> ``bad_request``; ``nbytes`` over
  ``max_frame_bytes`` or ``max_elements`` -> ``too_large`` with
  ``details``, the attachment drained without being held in memory; the
  connection survives each, garbage after an attachment too, and an
  attachment on ``ping`` / ``stats`` is consumed;
* ``nbytes`` that is not a non-negative integer -> one ``bad_request``,
  then hang-up (framing is lost); a truncated attachment then EOF -> a
  clean close, no leaked task, other connections served;
* list values that do not convert exactly into their dtype (``1.5`` as
  ``int64``, ``2`` as ``bool``, ``1e300`` as ``float32``, any float
  string but the four specials) -> ``bad_request``, never a silently
  rounded input;
* replies mirror the request's encoding (list in, list out; attachment
  in, attachment out), cache hits included;
* an oversized header line -> one ``too_large`` reply, then the server
  hangs up (framing is unrecoverable); an oversized *vector* in a valid
  frame -> ``too_large`` with the connection intact;
* unknown ops, bad segment layouts, NaN sorts -> ``bad_request``;
* quota exhaustion -> ``quota_exhausted``, and the token bucket refills
  on an injectable clock;
* admission past ``max_pending`` -> ``overloaded``; queued past
  ``request_timeout`` -> ``timeout``;
* a client that disconnects mid-stream leaves no wreckage: its work
  completes, the undeliverable reply is counted, other clients are
  unaffected;
* drain-on-shutdown resolves every pending future and leaves no asyncio
  task behind.
"""
import asyncio
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.serve import ScanServer, ServeClient, ServeConfig, ServeError
from repro.serve.cache import ResultCache
from repro.serve.protocol import (ProtocolError, decode_values, encode_frame,
                                  read_frame)

HOST = "127.0.0.1"


async def _raw_request(port: int, payload: bytes, *, limit: int = 1 << 20):
    """Write raw bytes, return (first response line or b'', eof_after)."""
    reader, writer = await asyncio.open_connection(HOST, port, limit=limit)
    writer.write(payload)
    await writer.drain()
    line = await reader.readline()
    follow_up = b""
    if line:
        try:
            follow_up = await asyncio.wait_for(reader.readline(), 1.0)
        except asyncio.TimeoutError:
            follow_up = b"open"
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return line, follow_up


def test_malformed_frames_get_structured_bad_request():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            for garbage in (b"this is not json\n",
                            b'{"op": "plus_scan", unquoted}\n',
                            b"[1, 2, 3]\n",
                            b'"just a string"\n'):
                line, _ = await _raw_request(server.port, garbage)
                frame = json.loads(line)
                assert frame["ok"] is False
                assert frame["error"]["code"] == "bad_request", frame
            # a poisoned connection still serves the next valid frame
            reader, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(b"garbage\n"
                         b'{"id": 1, "op": "plus_scan", "dtype": "int64",'
                         b' "values": [1, 2, 3]}\n')
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            assert first["ok"] is False
            assert second["ok"] is True and second["values"] == [0, 1, 3]
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_oversized_frame_rejected_then_disconnected():
    async def main():
        server = ScanServer(ServeConfig(port=0, max_frame_bytes=512))
        await server.start()
        try:
            big = b'{"op": "plus_scan", "values": [' \
                  + b"1," * 4096 + b"1]}\n"
            line, follow_up = await _raw_request(server.port, big)
            frame = json.loads(line)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "too_large"
            assert frame["error"]["details"] == {"max_frame_bytes": 512}
            assert follow_up == b""  # server hung up: framing was lost
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_oversized_vector_rejected_connection_survives():
    async def main():
        server = ScanServer(ServeConfig(port=0, max_elements=16,
                                        batch_window=0.001))
        await server.start()
        try:
            client = await ServeClient.connect(HOST, server.port)
            try:
                await client.scan("plus_scan", np.arange(32))
                raise AssertionError("expected ServeError")
            except ServeError as err:
                assert err.code == "too_large"
                # the error carries the limit in-band, so a client can
                # right-size its retry without a second round trip
                assert err.details == {"max_elements": 16, "got": 32}
            # ... and the stats op advertises the same limits up front
            limits = (await client.stats())["limits"]
            assert limits["max_elements"] == 16
            assert limits["max_frame_bytes"] == server.config.max_frame_bytes
            # same connection, conforming vector: served
            out = await client.scan("plus_scan", np.arange(8))
            assert np.array_equal(out, np.arange(8).cumsum() - np.arange(8))
            await client.close()
        finally:
            await server.shutdown()

    asyncio.run(main())


async def _exchange(reader, writer, obj: dict,
                    attachment: bytes = b"") -> dict:
    """One frame out (header line, then ``attachment`` as is), one frame
    back, on an open connection; a reply's attachment lands in
    ``values``."""
    writer.write((json.dumps(obj) + "\n").encode() + attachment)
    await writer.drain()
    frame, raw = await read_frame(reader, 1 << 20)
    if raw is not None:
        frame["values"] = raw
    return frame


def _attached(values, dtype: str) -> bytes:
    """A header-less attachment: the little-endian bytes of ``values``."""
    return bytes(encode_frame({}, np.asarray(values, dtype=dtype))[1])


def _good_request(i: int):
    return ({"id": 100 + i, "op": "plus_scan", "dtype": "int64",
             "nbytes": 24}, _attached([1, 2, 3], "int64"))


async def _assert_still_serving(reader, writer, i: int) -> None:
    good = await _exchange(reader, writer, *_good_request(i))
    assert good["ok"] is True and good["id"] == 100 + i, good
    assert np.array_equal(decode_values(good["values"], good["dtype"]),
                          [0, 1, 3])


def test_malformed_packed_payloads_classified_connection_survives():
    int3 = _attached([1, 2, 3], "int64")
    cases = [
        # (header fields, attachment, code, details, words in the message)
        ({"dtype": "int64", "nbytes": 12}, int3[:12], "bad_request", None,
         "not a multiple of the item size 8"),
        ({"dtype": "float32", "nbytes": 6}, bytes(6), "bad_request", None,
         "not a multiple of the item size 4"),
        ({"dtype": "bool", "nbytes": 3}, bytes([0, 1, 2]), "bad_request",
         None, "bool byte 2"),
        ({"dtype": "int64", "nbytes": 256}, _attached(range(32), "int64"),
         "too_large", {"max_elements": 16, "got": 32}, "max_elements=16"),
        ({"dtype": "int8", "nbytes": 4096}, bytes(4096), "too_large",
         "frame", "max_frame_bytes=2048"),
        ({"nbytes": 24}, int3, "bad_request", None, "explicit 'dtype'"),
        ({"dtype": "float16", "nbytes": 4}, bytes(4), "bad_request", None,
         "unknown dtype"),
        ({"dtype": ["int64"], "nbytes": 24}, int3, "bad_request", None,
         "unknown dtype"),
        ({"dtype": "int64", "nbytes": 24, "values": [1, 2, 3]}, int3,
         "bad_request", None, "not both"),
        ({"dtype": "int64", "values": "AQAAAAAAAAA="}, b"", "bad_request",
         None, "JSON list or an attachment"),
    ]

    async def main():
        server = ScanServer(ServeConfig(port=0, max_elements=16,
                                        max_frame_bytes=2048,
                                        batch_window=0.001))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            for i, (fields, raw, code, details, words) in enumerate(cases):
                obj = {"id": i, "op": "plus_scan", **fields}
                if details == "frame":   # header line plus attachment
                    details = {"max_frame_bytes": 2048,
                               "got": len(json.dumps(obj)) + 1 + len(raw)}
                frame = await _exchange(reader, writer, obj, raw)
                assert frame["ok"] is False and frame["id"] == i, frame
                assert frame["error"]["code"] == code, frame
                assert frame["error"].get("details") == details, frame
                assert words in frame["error"]["message"], frame
                # the same connection still serves a conforming frame
                await _assert_still_serving(reader, writer, i)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_garbage_after_an_attachment_is_its_own_bad_frame():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            obj, raw = _good_request(0)
            writer.write((json.dumps(obj) + "\n").encode() + raw
                         + b"\x00\xffnot a frame\n")
            await writer.drain()
            replies = [await read_frame(reader, 1 << 20) for _ in range(2)]
            by_ok = {frame["ok"]: (frame, att) for frame, att in replies}
            frame, att = by_ok[True]
            assert frame["id"] == 100 and frame["nbytes"] == 24
            assert np.array_equal(decode_values(att, "int64"), [0, 1, 3])
            assert by_ok[False][0]["error"]["code"] == "bad_request"
            await _assert_still_serving(reader, writer, 1)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


@pytest.mark.parametrize("nbytes", [-8, 8.0, "8", True, None, [8]])
def test_bad_nbytes_loses_framing_one_reply_then_hang_up(nbytes):
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            header = json.dumps({"id": 5, "op": "plus_scan",
                                 "dtype": "int64", "nbytes": nbytes})
            line, follow_up = await _raw_request(
                server.port, header.encode() + b"\n" + bytes(8)
                + b'{"id": 6, "op": "ping"}\n')
            frame = json.loads(line)
            assert frame["ok"] is False and frame["id"] == 5, frame
            assert frame["error"]["code"] == "bad_request"
            assert "nbytes" in frame["error"]["message"]
            assert follow_up == b""  # hung up: the ping is never read
        finally:
            await server.shutdown()

    asyncio.run(main())


@pytest.mark.parametrize("limits,tripped", [
    ({"max_frame_bytes": 1 << 16}, "max_frame_bytes"),
    ({"max_elements": 1 << 10, "max_frame_bytes": 16 << 20}, "max_elements"),
])
def test_refused_attachment_is_drained_not_held(limits, tripped):
    """An 8 MiB attachment over either limit is read and dropped in
    bounded chunks: the process never holds it, and the connection goes
    on to serve the next frame."""
    nbytes = 8 << 20
    chunk = bytes(1 << 16)

    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001,
                                        **limits))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            tracemalloc.start()
            try:
                writer.write(json.dumps({
                    "id": 1, "op": "plus_scan", "dtype": "int64",
                    "nbytes": nbytes}).encode() + b"\n")
                for _ in range(nbytes // len(chunk)):
                    writer.write(chunk)
                    await writer.drain()
                frame, _ = await read_frame(reader, 1 << 20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert frame["ok"] is False and frame["id"] == 1, frame
            assert frame["error"]["code"] == "too_large", frame
            assert frame["error"]["details"][tripped] == limits[tripped]
            assert peak < nbytes // 4, peak
            await _assert_still_serving(reader, writer, 0)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_truncated_attachment_then_eof_closes_cleanly():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            _, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(b'{"id": 1, "op": "plus_scan", "dtype": "int64",'
                         b' "nbytes": 800}\n' + bytes(100))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # another connection is served meanwhile
            client = await ServeClient.connect(HOST, server.port)
            assert np.array_equal(await client.scan("plus_scan", [4, 5]),
                                  [0, 4])
            await client.close()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while server._conn_tasks and loop.time() < deadline:
                await asyncio.sleep(0.01)
            assert not server._conn_tasks
            # nothing was admitted for the torn frame, nothing answered
            assert server.stats.requests == 1 and server.stats.errors == 0
        finally:
            await server.shutdown()
        assert server.pending_count == 0
        leaked = [t for t in asyncio.all_tasks()
                  if t is not asyncio.current_task() and not t.done()]
        assert not leaked, leaked

    asyncio.run(main())


def test_attachment_on_admin_ops_is_consumed():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            int2 = _attached([7, 8], "int64")
            pong = await _exchange(reader, writer, {
                "id": 1, "op": "ping", "dtype": "int64", "nbytes": 16}, int2)
            assert pong["ok"] is True and pong["pong"] is True, pong
            await _assert_still_serving(reader, writer, 1)
            stats = await _exchange(reader, writer, {
                "id": 2, "op": "stats", "dtype": "int64", "nbytes": 16}, int2)
            assert stats["ok"] is True and "limits" in stats, stats
            await _assert_still_serving(reader, writer, 2)
            # no dtype: the bytes cannot be read as items, so the frame is
            # refused, but it is still consumed whole
            bad = await _exchange(reader, writer, {
                "id": 3, "op": "ping", "nbytes": 16}, int2)
            assert bad["error"]["code"] == "bad_request", bad
            await _assert_still_serving(reader, writer, 3)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


#: list values NumPy would silently round, wrap or saturate
INEXACT_LISTS = [
    ("int64", [1.5, 2.7]),
    ("int64", [1e300]),
    ("int64", [2 ** 63]),
    ("uint8", [-1]),
    ("int8", [True]),
    ("int64", ["5"]),
    ("bool", [2, -1]),
    ("bool", [0.5]),
    ("float32", [1e300]),
    ("float64", [10 ** 400]),
    ("float64", [None]),
    ("float64", ["one"]),
]


@pytest.mark.parametrize("dtype,values", INEXACT_LISTS)
def test_inexact_list_values_are_rejected_not_rounded(dtype, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow RuntimeWarning
        with pytest.raises(ProtocolError) as info:
            decode_values(values, dtype)
    assert info.value.code == "bad_request"
    assert dtype in info.value.message


#: strings a float dtype must refuse: only the encoder's four spellings
#: of the specials ("nan", "inf", "-inf", "-0.0") are numbers
BAD_FLOAT_STRINGS = ["1e400", "Infinity", " nan ", "1.5", "NaN", "+inf",
                     "-nan", "0", "-0", ""]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("text", BAD_FLOAT_STRINGS)
def test_float_strings_other_than_the_specials_are_rejected(text, dtype):
    with pytest.raises(ProtocolError) as info:
        decode_values([1.0, text], dtype)
    assert info.value.code == "bad_request"
    assert "element 1" in info.value.message


def test_float_strings_other_than_the_specials_rejected_on_the_wire():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            for i, text in enumerate(BAD_FLOAT_STRINGS):
                frame = await _exchange(reader, writer, {
                    "id": i, "op": "plus_scan", "dtype": "float64",
                    "values": [text]})
                assert frame["ok"] is False and frame["id"] == i, frame
                assert frame["error"]["code"] == "bad_request", frame
            assert server.stats.requests == 0   # none got past parsing
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_inexact_list_values_get_bad_request_on_the_wire():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            for i, (dtype, values) in enumerate(INEXACT_LISTS):
                frame = await _exchange(reader, writer, {
                    "id": i, "op": "plus_scan", "dtype": dtype,
                    "values": values})
                assert frame["ok"] is False, (dtype, values, frame)
                assert frame["error"]["code"] == "bad_request", frame
            # float specials stay legal on float dtypes, both widths
            for dtype in ("float32", "float64"):
                frame = await _exchange(reader, writer, {
                    "id": dtype, "op": "max_scan", "dtype": dtype,
                    "values": ["-inf", "-0.0", 1, 2.5, "inf", "nan"]})
                assert frame["ok"] is True, frame
                assert frame["dtype"] == dtype
                assert frame["values"][1:] == ["-inf", "-0.0", 1, 2.5,
                                              "inf"], frame
            # exact lists decode: bools from 0/1, full-range integers
            assert np.array_equal(decode_values([True, 0, 1], "bool"),
                                  [True, False, True])
            assert decode_values([2 ** 64 - 1], "uint64")[0] == 2 ** 64 - 1
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_reply_mirrors_request_encoding_including_cache_hits():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(HOST, server.port)
            as_list = ({"op": "plus_scan", "dtype": "int64",
                        "values": [1, 2, 3]}, b"")
            as_attached = ({"op": "plus_scan", "dtype": "int64",
                            "nbytes": 24}, _attached([1, 2, 3], "int64"))
            replies = [await _exchange(reader, writer, dict(obj, id=i), raw)
                       for i, (obj, raw) in enumerate((as_list, as_attached,
                                                       as_list, as_attached))]
            assert [r["cached"] for r in replies] == [False, True,
                                                      True, True]
            for r in replies[0::2]:
                assert r["values"] == [0, 1, 3] and "nbytes" not in r, r
            for r in replies[1::2]:
                assert r["nbytes"] == 24 and r["dtype"] == "int64", r
                assert r["values"] == _attached([0, 1, 3], "int64"), r
            writer.close()
            await writer.wait_closed()

            # the client always sends an attachment, so it gets one back
            client = await ServeClient.connect(HOST, server.port)
            frame = await client.request("plus_scan", [4, 5])
            assert isinstance(frame["values"], bytes), frame
            assert frame["nbytes"] == 16, frame
            await client.close()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_disabled_cache_never_digests_the_payload(monkeypatch):
    """With ``cache_entries=0`` every lookup misses, so hashing the
    payload would be wasted work."""
    digests = []
    real_key = ResultCache.key

    def counting_key(*args, **kwargs):
        digests.append(args[0])
        return real_key(*args, **kwargs)

    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001,
                                        cache_entries=0))
        await server.start()
        try:
            client = await ServeClient.connect(HOST, server.port)
            for _ in range(2):
                out = await client.scan("plus_scan", [1, 2, 3])
                assert np.array_equal(out, [0, 1, 3])
            await client.close()
        finally:
            await server.shutdown()
        assert server.stats.ok == 2
        assert server.cache.snapshot()["entries"] == 0

    monkeypatch.setattr(ResultCache, "key", staticmethod(counting_key))
    asyncio.run(main())
    assert digests == []


def test_cache_key_layout_is_pinned():
    """The digest layout (``KEY_VERSION`` v2) is stable."""
    key = ResultCache.key("seg_plus_scan",
                          np.array([1, 2, 3], dtype=np.int64), (1, 2),
                          backend="NumPyBackend()")
    assert key == ("ce3b597f2f82d064437ac18c6f968a51"
                   "d52de349f523c4b517ebc5966115a0ba")


def test_bad_inputs_are_classified_not_crashes():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.001))
        await server.start()
        try:
            client = await ServeClient.connect(HOST, server.port)
            for kwargs in (
                dict(op="definitely_not_an_op", values=[1]),
                dict(op="plus_scan", values=[1, 2],
                     seg_lengths=[2]),              # not a segmented op
                dict(op="seg_plus_scan", values=[1, 2, 3]),  # layout missing
                dict(op="seg_plus_scan", values=[1, 2, 3],
                     seg_lengths=[2, 7]),           # layout sum mismatch
                dict(op="sort", values=[1.0, float("nan")]),  # NaN keys
            ):
                try:
                    await client.scan(**kwargs)
                    raise AssertionError(f"expected bad_request for {kwargs}")
                except ServeError as err:
                    assert err.code == "bad_request", (kwargs, err.code)
            await client.close()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_quota_exhaustion_and_clock_driven_refill():
    clock = {"now": 0.0}

    async def main():
        server = ScanServer(ServeConfig(
            port=0, batch_window=0.001, cache_entries=0,
            quota_budget=1, quota_refill_per_s=10.0,
            quota_clock=lambda: clock["now"]))
        await server.start()
        try:
            client = await ServeClient.connect(HOST, server.port)
            # first request admitted; its debit empties the budget
            out = await client.scan("plus_scan", [5, 6], tenant="t1")
            assert np.array_equal(out, [0, 5])
            try:
                await client.scan("plus_scan", [7, 8], tenant="t1")
                raise AssertionError("expected quota_exhausted")
            except ServeError as err:
                assert err.code == "quota_exhausted"
                assert "t1" in err.message
            # an unrelated tenant is not starved by t1's debt
            assert len(await client.scan("plus_scan", [1], tenant="t2")) == 1
            # advance the injectable clock far enough to refill t1
            clock["now"] += 1000.0
            out = await client.scan("plus_scan", [7, 8], tenant="t1")
            assert np.array_equal(out, [0, 7])
            await client.close()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_admission_backpressure_returns_overloaded():
    async def main():
        server = ScanServer(ServeConfig(
            port=0, batch_window=0.2, max_pending=1, cache_entries=0))
        await server.start()
        try:
            client = await ServeClient.connect(HOST, server.port)
            results = await asyncio.gather(*[
                client.request("plus_scan", [i, i + 1]) for i in range(6)])
            ok = [r for r in results if r.get("ok")]
            rejected = [r for r in results if not r.get("ok")]
            assert ok, results
            assert rejected, "expected at least one overloaded rejection"
            assert all(r["error"]["code"] == "overloaded"
                       for r in rejected), results
            await client.close()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_request_timeout_classified():
    async def main():
        # the deadline expires while the request sits in the 100ms window
        server = ScanServer(ServeConfig(
            port=0, batch_window=0.1, request_timeout=0.01,
            cache_entries=0))
        await server.start()
        try:
            client = await ServeClient.connect(HOST, server.port)
            try:
                await client.scan("plus_scan", [1, 2, 3])
                raise AssertionError("expected timeout")
            except ServeError as err:
                assert err.code == "timeout"
            await client.close()
        finally:
            await server.shutdown()

    asyncio.run(main())


def test_client_disconnect_mid_stream_leaves_no_wreckage():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.05,
                                        cache_entries=0))
        await server.start()
        dropped_before = server.metrics.dropped_replies.value
        try:
            # the deserter: sends work, hangs up before the answer
            _, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(b'{"id": 1, "op": "plus_scan", "dtype": "int64",'
                         b' "values": [1, 2, 3]}\n')
            await writer.drain()
            writer.close()
            await writer.wait_closed()

            # a loyal client on another connection is unaffected
            client = await ServeClient.connect(HOST, server.port)
            out = await client.scan("plus_scan", [10, 20, 30])
            assert np.array_equal(out, [0, 10, 30])

            # the deserter's work still completed and was accounted
            deadline = asyncio.get_running_loop().time() + 5.0
            while (server.stats.ok < 2
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.01)
            assert server.stats.ok == 2
            assert (server.metrics.dropped_replies.value
                    > dropped_before)
            await client.close()
        finally:
            await server.shutdown()
        assert server.pending_count == 0

    asyncio.run(main())


def test_drain_on_shutdown_no_pending_futures_no_leaked_tasks():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=0.2,
                                        cache_entries=0))
        await server.start()
        client = await ServeClient.connect(HOST, server.port)
        # park 20 requests in the batch window, then shut down under them
        jobs = [asyncio.ensure_future(client.scan("plus_scan",
                                                  [i, i + 1, i + 2]))
                for i in range(20)]
        await asyncio.sleep(0.02)          # let them all be admitted
        assert server.pending_count > 0
        await server.shutdown(drain=True)

        outs = await asyncio.gather(*jobs)
        for i, out in enumerate(outs):
            assert np.array_equal(out, [0, i, 2 * i + 1])
        assert server.pending_count == 0
        await client.close()

        # nothing still running but this coroutine: no leaked tasks
        leaked = [t for t in asyncio.all_tasks()
                  if t is not asyncio.current_task() and not t.done()]
        assert not leaked, leaked

    asyncio.run(main())


def test_shutdown_without_drain_answers_queued_work_with_goodbye():
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=5.0,
                                        cache_entries=0))
        await server.start()
        client = await ServeClient.connect(HOST, server.port)
        jobs = [asyncio.ensure_future(client.request("plus_scan", [i]))
                for i in range(5)]
        await asyncio.sleep(0.02)
        await server.shutdown(drain=False)
        frames = await asyncio.gather(*jobs)
        codes = {f["error"]["code"] for f in frames if not f.get("ok")}
        # abandoned work is told so, in so many words — never silence
        assert codes <= {"shutting_down"}, frames
        assert any(not f.get("ok") for f in frames)
        assert server.pending_count == 0
        await client.close()

    asyncio.run(main())


def test_shutdown_without_drain_cuts_the_batch_window_short():
    """Queued batchable ints sit in a 5 s window; shutdown(drain=False)
    ends that wait instead of sleeping it out, and every queued request
    is told ``shutting_down``."""
    async def main():
        server = ScanServer(ServeConfig(port=0, batch_window=5.0,
                                        cache_entries=0))
        await server.start()
        client = await ServeClient.connect(HOST, server.port)
        jobs = [asyncio.ensure_future(client.request("plus_scan", [i, i]))
                for i in range(5)]
        await asyncio.sleep(0.02)
        assert server.pending_count == 5
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        await server.shutdown(drain=False)
        assert loop.time() - t0 < 1.0
        frames = await asyncio.gather(*jobs)
        assert [f["error"]["code"] for f in frames] == ["shutting_down"] * 5
        await client.close()

    asyncio.run(main())
