"""The wire protocol: JSON header lines, each optionally followed by raw
bytes.

Every frame is one UTF-8 JSON object on one line.  If it carries
``"nbytes": k``, exactly ``k`` raw bytes follow the newline: the frame's
``values``, little-endian, in the header's (then required) ``dtype``.
Both directions read it with :func:`read_frame` and write it with
:func:`encode_frame` (the array's own buffer): no per-element Python
work, every bit kept.  Replies carry the request's ``id``, use the
request's encoding, and may come out of order (the server batches)::

    {"id": 7, "op": "plus_scan", "dtype": "int64", "nbytes": 24}\n<24 bytes>

``nbytes`` is checked before a byte of it is read: a non-negative
integer (or framing is lost: one error, then hang-up), header plus
attachment within ``max_frame_bytes``, whole items, at most
``max_elements`` of them.  A refused attachment is drained in bounded
chunks and the connection carries on.

Hand-typed requests may put ``values`` in the header as a JSON list
instead (``dtype`` defaults to ``int64``; float specials are the strings
``"nan"``, ``"inf"``, ``"-inf"`` and ``"-0.0"``, and no other string is
a number)::

    {"id": 7, "op": "plus_scan", "dtype": "int64", "values": [2, 1, 2],
     "seg_lengths": [2, 1],          # segmented ops only
     "tenant": "team-a"}             # optional; quota accounting key

Both decodings are exact: a value that does not convert into ``dtype``
without loss (``1.5`` or ``2**70`` as ``int64``, ``2`` as ``bool``,
``1e300`` as ``float32``, a ``bool`` byte other than 0/1) is a
``bad_request``, never a silently rounded input.  Errors are structured,
with a ``code`` from :data:`ERROR_CODES` plus a human ``message``.
"""
from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DTYPES", "ERROR_CODES", "ProtocolError", "ParsedRequest",
           "read_frame", "decode_frame", "parse_request", "encode_values",
           "decode_values", "encode_frame", "ok_frame", "error_frame",
           "info_frame"]

#: element dtypes a request may carry (the fuzzer's adversarial grid
#: plus the remaining fixed-width integers and float32)
DTYPES = frozenset({"bool", "int8", "int16", "int32", "int64", "uint8",
                    "uint16", "uint32", "uint64", "float32", "float64"})

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

    ``details`` (optional) is machine-readable context — the limit a
    request tripped and the offending size.  ``req_id`` is the frame's id
    if its header parsed; ``fatal`` means framing is lost (answer, then
    hang up)."""

    def __init__(self, code: str, message: str,
                 details: Optional[dict] = None, *, req_id=None,
                 fatal: bool = False) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = details
        self.req_id = req_id
        self.fatal = fatal


# --------------------------------------------------------------------- #
# Value encoding: an attachment of little-endian bytes, or a JSON list
# --------------------------------------------------------------------- #

def _bad_values(dtype: str, why: str) -> ProtocolError:
    return ProtocolError("bad_request", f"values do not decode as {dtype}: "
                                        f"{why}")


def _item_count(nbytes: int, dtype: str) -> int:
    itemsize = np.dtype(dtype).itemsize
    if nbytes % itemsize:
        raise _bad_values(dtype, f"{nbytes} bytes is not a multiple of "
                                 f"the item size {itemsize}")
    return nbytes // itemsize


def _decode_attachment(raw, dtype: str) -> np.ndarray:
    _item_count(memoryview(raw).nbytes, dtype)
    dt = np.dtype(dtype)
    if dt.kind == "b":
        flags = np.frombuffer(raw, dtype=np.uint8)
        if (flags > 1).any():
            raise _bad_values(dtype, f"bool byte {flags[flags > 1][0]} "
                                     f"is not 0 or 1")
    # astype copies: native byte order, writable, detached from ``raw``
    return np.frombuffer(raw, dtype=dt.newbyteorder("<")).astype(dt)


def _first_bad(raw: list, ok) -> Optional[tuple]:
    return next(((i, x) for i, x in enumerate(raw) if not ok(x)), None)


#: the float specials' spellings in the list form, the only strings that
#: decode as numbers
_SPECIALS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "-0.0": -0.0}


def _decode_list(raw: list, dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    if dt.kind == "f":
        vals = [_SPECIALS.get(x, x) if type(x) is str else x for x in raw]
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


def encode_values(arr: np.ndarray) -> list:
    """The list form of one vector (bools as bools, ints as ints, float
    specials as strings): what a JSON header's ``values`` carries."""
    out = arr.tolist()
    if arr.dtype.kind == "f":
        # repr spells NaN, +-inf and -0.0 exactly as the list form does
        special = ~np.isfinite(arr) | ((arr == 0) & np.signbit(arr))
        for i in np.flatnonzero(special):
            out[i] = repr(out[i])
    return out


def decode_values(raw, dtype: str) -> np.ndarray:
    """A list (:func:`encode_values`) or attachment bytes as a fresh,
    writable, native-endian array; ``ProtocolError`` on anything that does
    not decode exactly as ``dtype`` (see the module docstring)."""
    if isinstance(raw, list):
        return _decode_list(raw, dtype)
    return _decode_attachment(raw, dtype)


# --------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------- #

def decode_frame(line: bytes) -> dict:
    """One header line to a JSON object (``ProtocolError`` on garbage)."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_request", f"frame is not valid JSON: "
                                           f"{exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad_request", f"frame must be a JSON object, "
                                           f"got {type(obj).__name__}")
    return obj


def _dtype(obj: dict, default: Optional[str]) -> str:
    dtype = obj.get("dtype", default)
    if dtype is None:
        raise ProtocolError("bad_request", "an attachment needs an "
                                           "explicit 'dtype'")
    if not isinstance(dtype, str) or dtype not in DTYPES:
        raise ProtocolError("bad_request", f"unknown dtype {dtype!r}; one "
                            f"of {', '.join(sorted(DTYPES))}")
    return dtype


def _check_count(n: int, max_elements: float) -> None:
    if n > max_elements:
        raise ProtocolError("too_large", f"vector of {n} elements exceeds "
                            f"the server's max_elements={max_elements}",
                            details={"max_elements": max_elements, "got": n})


async def read_frame(reader: asyncio.StreamReader, max_frame_bytes: int,
                     max_elements: float = math.inf):
    """The next frame: ``(header, attachment or None)``, or ``None`` once
    the peer has left.  Bare newlines are skipped.  ``ProtocolError``
    leaves the stream at the next frame (a refused attachment drained)
    unless it is ``fatal``."""
    try:
        line = await reader.readline()
        while line.isspace():
            line = await reader.readline()
    except ValueError:   # the line outgrew the StreamReader limit
        raise ProtocolError("too_large", f"frame exceeds max_frame_bytes="
                            f"{max_frame_bytes}", fatal=True, details={
                                "max_frame_bytes": max_frame_bytes}) from None
    if not line:
        return None
    obj = decode_frame(line)
    if "nbytes" not in obj:
        return obj, None
    nbytes, req_id = obj["nbytes"], obj.get("id")
    if type(nbytes) is not int or nbytes < 0:
        raise ProtocolError("bad_request", f"'nbytes' must be a "
                            f"non-negative integer, got {nbytes!r}",
                            req_id=req_id, fatal=True)
    size = len(line) + nbytes
    try:
        if size > max_frame_bytes:
            raise ProtocolError("too_large", f"frame of {size} bytes "
                                f"exceeds max_frame_bytes={max_frame_bytes}",
                                details={"max_frame_bytes": max_frame_bytes,
                                         "got": size})
        _check_count(_item_count(nbytes, _dtype(obj, None)), max_elements)
    except ProtocolError as err:
        while nbytes > 0:
            chunk = await reader.read(min(nbytes, 1 << 16))  # never whole
            if not chunk:
                break
            nbytes -= len(chunk)
        err.req_id = req_id
        raise
    try:
        return obj, await reader.readexactly(nbytes)
    except asyncio.IncompleteReadError:
        return None


def encode_frame(header: dict, values: Optional[np.ndarray] = None) -> list:
    """The buffers of one frame: the header line, then ``values``' little-
    endian bytes (its own buffer when it can be) as the attachment, with
    ``dtype`` and ``nbytes`` added to the header."""
    parts = []
    if values is not None:
        le = np.ascontiguousarray(values, values.dtype.newbyteorder("<"))
        parts.append(memoryview(le.view(np.uint8)))
        header = dict(header, dtype=values.dtype.name, nbytes=le.nbytes)
    line = (json.dumps(header, separators=(",", ":")) + "\n").encode()
    return [line, *parts]


def ok_frame(req_id, result: np.ndarray, *, steps: int, batched: int,
             cached: bool, packed: bool = False) -> bytes:
    """A result reply, ``values`` as an attachment or as a list
    (``packed`` mirrors the request's encoding)."""
    header = {"id": req_id, "ok": True, "dtype": result.dtype.name,
              "steps": int(steps), "batched": int(batched),
              "cached": bool(cached)}
    if not packed:
        header["values"] = encode_values(result)
    return b"".join(encode_frame(header, result if packed else None))


def error_frame(req_id, code: str, message: str,
                details: Optional[dict] = None) -> bytes:
    assert code in ERROR_CODES, code
    error: dict = {"code": code, "message": message}
    if details:
        error["details"] = details
    return encode_frame({"id": req_id, "ok": False, "error": error})[0]


def info_frame(req_id, **payload) -> bytes:
    """An admin reply (``ping`` / ``stats``)."""
    return encode_frame({"id": req_id, "ok": True, **payload})[0]


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
    packed: bool                      #: came with an attachment

    @property
    def n(self) -> int:
        return len(self.values)


def _seg_flags_from_lengths(lengths: list, n: int) -> np.ndarray:
    bad = _first_bad(lengths, lambda x: type(x) is int and x >= 1)
    if bad is not None:
        raise ProtocolError("bad_request", f"seg_lengths must be positive "
                                           f"integers, got {bad[1]!r}")
    if sum(lengths) != n:
        raise ProtocolError("bad_request", f"seg_lengths sum to "
                            f"{sum(lengths)}, values have length {n}")
    flags = np.zeros(n, dtype=bool)
    flags[np.cumsum([0] + lengths, dtype=np.int64)[:-1]] = True
    return flags


def parse_request(obj: dict, attachment: Optional[bytes] = None, *,
                  known_ops, max_elements: int) -> ParsedRequest:
    """Validate one frame against ``known_ops`` (op name ->
    :class:`repro.serve.batching.ServeOp`; ``ping`` / ``stats`` are handled
    before this) and the limits, an attachment's by :func:`read_frame`."""
    op_name = obj.get("op")
    if not isinstance(op_name, str) or op_name not in known_ops:
        raise ProtocolError("bad_request", f"unknown op {op_name!r}; "
                            f"servable ops: {', '.join(sorted(known_ops))}")
    spec = known_ops[op_name]

    packed = attachment is not None
    if packed and "values" in obj:
        raise ProtocolError("bad_request", "'values' travel in the "
                            "attachment or in the header, not both")
    dtype = _dtype(obj, None if packed else "int64")
    raw = attachment if packed else obj.get("values")
    if isinstance(raw, list):
        _check_count(len(raw), max_elements)
    elif not packed:
        raise ProtocolError("bad_request", "'values' must be a JSON list "
                                           "or an attachment")
    values = decode_values(raw, dtype)

    seg_lengths = obj.get("seg_lengths")
    seg_flags = None
    if spec.segmented:
        if not isinstance(seg_lengths, list):
            raise ProtocolError("bad_request", f"op {op_name!r} is "
                                "segmented: 'seg_lengths' (a list of "
                                "positive segment lengths) is required")
        seg_flags = _seg_flags_from_lengths(seg_lengths, len(values))
        seg_lengths = tuple(seg_lengths)
    elif seg_lengths is not None:
        raise ProtocolError("bad_request", f"op {op_name!r} is not "
                                           f"segmented; drop 'seg_lengths'")

    tenant = obj.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("bad_request", "'tenant' must be a non-empty "
                                           "string")
    return ParsedRequest(id=obj.get("id"), op=op_name, values=values,
                         seg_lengths=seg_lengths, seg_flags=seg_flags,
                         tenant=tenant, packed=packed)
