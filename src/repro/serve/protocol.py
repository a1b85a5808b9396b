"""The wire protocol: newline-delimited JSON frames.

One request per line, one response per line, UTF-8.  The framing is the
simplest thing that composes with ``asyncio`` streams — ``readline`` on
the way in, one ``write`` per response on the way out — and responses
carry the request's ``id``, so a client may pipeline many requests on one
connection and match replies out of order (the server coalesces
concurrent requests into batches, so reply order is explicitly *not*
request order).

``values`` travels in one of two encodings inside that JSON line:

* **packed** (what :class:`~repro.serve.client.ServeClient` sends) — one
  base64 string of the array's little-endian raw bytes.  ``dtype`` is
  required, since the bytes alone do not say how to read them.  Encode
  and decode are a byte copy plus base64, with no per-element Python
  work, and every bit survives, NaN payloads and signs included::

    {"id": 7, "op": "plus_scan", "dtype": "int64",
     "values": "AgAAAAAAAAABAAAAAAAAAAIAAAAAAAAA"}

* **list** — a plain JSON list, for hand-typed and debugging requests.
  ``dtype`` defaults to ``int64``; float specials travel as the strings
  ``"nan"``, ``"inf"``, ``"-inf"`` and ``"-0.0"`` (JSON has no encoding
  for them), mirroring the fuzzer corpus convention::

    {"id": 7, "op": "plus_scan", "dtype": "int64", "values": [2, 1, 2],
     "seg_lengths": [2, 1],          # segmented ops only
     "tenant": "team-a"}             # optional; quota accounting key

Both decodings are exact: a value that does not convert into ``dtype``
without loss (``1.5`` or ``2**70`` as ``int64``, ``2`` as ``bool``,
``1e300`` as ``float32``; a packed byte count that is not a multiple of
the item size, or a ``bool`` byte other than 0/1) is a ``bad_request``,
never a silently rounded input.

The server answers each request in the encoding it arrived in::

    {"id": 7, "ok": true, "values": [0, 2, 3], "dtype": "int64",
     "steps": 3, "batched": 5, "cached": false}
    {"id": 7, "ok": false, "error": {"code": "quota_exhausted",
                                     "message": "..."}}

Errors are always structured — a ``code`` from :data:`ERROR_CODES` plus
a human message — so clients can branch on the code and humans can read
the message.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DTYPES",
    "ERROR_CODES",
    "ProtocolError",
    "ParsedRequest",
    "decode_frame",
    "parse_request",
    "encode_values",
    "decode_values",
    "ok_frame",
    "error_frame",
    "info_frame",
]

#: element dtypes a request may carry (the fuzzer's adversarial grid
#: plus the remaining fixed-width integers and float32)
DTYPES = frozenset({
    "bool", "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64", "float32", "float64",
})

#: every structured error code a response can carry
ERROR_CODES = frozenset({
    "bad_request",       # malformed frame / unknown op / invalid inputs
    "too_large",         # frame or vector over the configured limits
    "overloaded",        # admission queue full: back off and retry
    "quota_exhausted",   # the tenant's step budget ran dry
    "timeout",           # the request aged out before execution
    "shutting_down",     # server is draining; no new work admitted
    "internal",          # execution failed for a non-client reason
})


class ProtocolError(Exception):
    """A request that cannot be served, with its structured error code.

    ``details`` (optional) carries machine-readable context — the limit a
    request tripped and the offending size — so a client can right-size
    its next attempt without parsing the human message.
    """

    def __init__(self, code: str, message: str,
                 details: Optional[dict] = None) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = details


# --------------------------------------------------------------------- #
# Value encoding: packed (base64 of little-endian bytes) or a JSON list
# --------------------------------------------------------------------- #

def _bad_values(dtype: str, why: str) -> ProtocolError:
    return ProtocolError("bad_request", f"values do not decode as {dtype}: "
                                        f"{why}")


def _packed_count(text: str, dtype: str) -> int:
    """Elements in a packed payload, from its length and padding alone
    (nothing is decoded): the guard that runs before any allocation."""
    if len(text) % 4:
        raise _bad_values(dtype, f"base64 length {len(text)} is not a "
                                 f"multiple of 4")
    nbytes = len(text) // 4 * 3 - (text[-2:].count("=") if text else 0)
    itemsize = np.dtype(dtype).itemsize
    if nbytes % itemsize:
        raise _bad_values(dtype, f"{nbytes} bytes is not a multiple of "
                                 f"the item size {itemsize}")
    return nbytes // itemsize


def _decode_packed(text: str, dtype: str) -> np.ndarray:
    n = _packed_count(text, dtype)
    try:
        data = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise _bad_values(dtype, f"not base64: {exc}") from None
    dt = np.dtype(dtype)
    if len(data) != n * dt.itemsize:
        raise _bad_values(dtype, "malformed base64 padding")
    if dt.kind == "b":
        raw = np.frombuffer(data, dtype=np.uint8)
        if (raw > 1).any():
            raise _bad_values(dtype, f"bool byte "
                                     f"{int(raw[raw > 1][0])} is not 0 or 1")
    # astype copies: native byte order, writable, detached from ``data``
    return np.frombuffer(data, dtype=dt.newbyteorder("<")).astype(dt)


def _first_bad(raw: list, ok) -> Optional[tuple]:
    for i, x in enumerate(raw):
        if not ok(x):
            return i, x
    return None


def _decode_list(raw: list, dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    if dt.kind == "f":
        try:
            vals = [float(x) if isinstance(x, str) else x for x in raw]
        except ValueError as exc:
            raise _bad_values(dtype, str(exc)) from None
        bad = _first_bad(vals, lambda x: type(x) in (int, float))
        what = "not a number"
        if bad is None:
            try:
                wide = np.array(vals, dtype=np.float64)
            except OverflowError as exc:
                raise _bad_values(dtype, str(exc)) from None
            with np.errstate(over="ignore"):
                out = wide.astype(dt)
            over = np.isinf(out) & np.isfinite(wide)
            if not over.any():
                return out
            i = int(np.argmax(over))
            bad, what = (i, raw[i]), f"out of range for {dtype}"
    elif dt.kind == "b":
        bad = _first_bad(raw, lambda x: type(x) is bool
                         or (type(x) is int and x in (0, 1)))
        what = "not true/false/0/1"
    else:
        info = np.iinfo(dt)
        bad = _first_bad(raw, lambda x: type(x) is int
                         and info.min <= x <= info.max)
        what = f"not an integer in [{info.min}, {info.max}]"
    if bad is not None:
        i, x = bad
        raise _bad_values(dtype, f"element {i} ({x!r}) is {what}")
    return np.array(raw, dtype=dt)


def _encode_one(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if x == 0.0 and math.copysign(1.0, x) < 0:
            return "-0.0"
    return x


def _encode_list(arr: np.ndarray) -> list:
    """The list form (bools as bools, ints as ints, float specials as
    strings)."""
    return [_encode_one(x) for x in arr.tolist()]


def encode_values(arr: np.ndarray) -> str:
    """The packed form of one vector: base64 of its little-endian bytes."""
    le = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    return base64.b64encode(le.tobytes()).decode("ascii")


def decode_values(raw, dtype: str) -> np.ndarray:
    """The inverse of :func:`encode_values` for a packed string, and of
    the list form for a list; a fresh, writable, native-endian array.
    Raises ``ProtocolError`` on anything that does not decode exactly as
    ``dtype`` (see the module docstring)."""
    if isinstance(raw, str):
        return _decode_packed(raw, dtype)
    if isinstance(raw, list):
        return _decode_list(raw, dtype)
    raise _bad_values(dtype, f"expected a base64 string or a list, got "
                             f"{type(raw).__name__}")


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ParsedRequest:
    """One validated compute request, inputs materialized."""

    id: object
    op: str
    values: np.ndarray
    seg_lengths: Optional[tuple]      #: None for unsegmented ops
    seg_flags: Optional[np.ndarray]   #: materialized from ``seg_lengths``
    tenant: str
    packed: bool = True               #: reply in the encoding it came in

    @property
    def n(self) -> int:
        return len(self.values)


def decode_frame(line: bytes) -> dict:
    """One wire line to a JSON object (``ProtocolError`` on garbage)."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_request",
                            f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad_request",
                            f"frame must be a JSON object, got "
                            f"{type(obj).__name__}")
    return obj


def _seg_flags_from_lengths(lengths, n: int) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    pos = 0
    for length in lengths:
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise ProtocolError(
                "bad_request",
                f"seg_lengths must be positive integers, got {length!r}")
        if pos >= n:
            break  # sum mismatch; reported below
        flags[pos] = True
        pos += length
    if pos != n:
        raise ProtocolError(
            "bad_request",
            f"seg_lengths sum to {pos}, values have length {n}")
    return flags


def parse_request(obj: dict, *, known_ops, max_elements: int) -> ParsedRequest:
    """Validate one decoded frame against the op registry and limits.

    ``known_ops`` maps op name -> :class:`repro.serve.batching.ServeOp`;
    the admin ops (``ping`` / ``stats``) are handled before this is
    called.
    """
    op_name = obj.get("op")
    if not isinstance(op_name, str) or op_name not in known_ops:
        raise ProtocolError(
            "bad_request",
            f"unknown op {op_name!r}; servable ops: "
            f"{', '.join(sorted(known_ops))}")
    spec = known_ops[op_name]

    raw = obj.get("values")
    packed = isinstance(raw, str)
    if packed and "dtype" not in obj:
        raise ProtocolError("bad_request",
                            "packed 'values' need an explicit 'dtype'")
    dtype = obj.get("dtype", "int64")
    if dtype not in DTYPES:
        raise ProtocolError("bad_request",
                            f"unknown dtype {dtype!r}; one of "
                            f"{', '.join(sorted(DTYPES))}")

    if packed:
        n = _packed_count(raw, dtype)
    elif isinstance(raw, list):
        n = len(raw)
    else:
        raise ProtocolError("bad_request", "'values' must be a base64 "
                                           "string or a JSON list")
    if n > max_elements:
        raise ProtocolError(
            "too_large",
            f"vector of {n} elements exceeds the server's "
            f"max_elements={max_elements}",
            details={"max_elements": max_elements, "got": n})
    values = decode_values(raw, dtype)

    seg_lengths = obj.get("seg_lengths")
    seg_flags = None
    if spec.segmented:
        if not isinstance(seg_lengths, list):
            raise ProtocolError(
                "bad_request",
                f"op {op_name!r} is segmented: 'seg_lengths' "
                f"(a list of positive segment lengths) is required")
        seg_flags = _seg_flags_from_lengths(seg_lengths, len(values))
        seg_lengths = tuple(seg_lengths)
    elif seg_lengths is not None:
        raise ProtocolError(
            "bad_request",
            f"op {op_name!r} is not segmented; drop 'seg_lengths'")

    tenant = obj.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("bad_request", "'tenant' must be a non-empty "
                                           "string")
    return ParsedRequest(id=obj.get("id"), op=op_name, values=values,
                         seg_lengths=seg_lengths, seg_flags=seg_flags,
                         tenant=tenant, packed=packed)


# --------------------------------------------------------------------- #
# Responses
# --------------------------------------------------------------------- #

def _frame(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def ok_frame(req_id, result: np.ndarray, *, steps: int, batched: int,
             cached: bool, packed: bool = True) -> bytes:
    """A result reply, ``values`` packed or as a list (``packed``
    mirrors the request's encoding)."""
    return _frame({"id": req_id, "ok": True,
                   "values": (encode_values(result) if packed
                              else _encode_list(result)),
                   "dtype": str(result.dtype),
                   "steps": int(steps), "batched": int(batched),
                   "cached": bool(cached)})


def error_frame(req_id, code: str, message: str,
                details: Optional[dict] = None) -> bytes:
    assert code in ERROR_CODES, code
    error: dict = {"code": code, "message": message}
    if details:
        error["details"] = details
    return _frame({"id": req_id, "ok": False, "error": error})


def info_frame(req_id, **payload) -> bytes:
    """An admin reply (``ping`` / ``stats``)."""
    return _frame({"id": req_id, "ok": True, **payload})
