"""Property suite: the server is indistinguishable from the oracle.

Two layers of properties:

* **Round trip** — hundreds of fuzzer-generated cases (the same
  :func:`repro.verify.corpus.generate_cases` grid the conformance
  fuzzer uses: every servable op, adversarial dtypes, empty vectors,
  dtype-boundary values, float specials) fired *concurrently* through
  one in-process server, every response compared to the serial oracle
  under the fuzzer's own :func:`~repro.verify.runner.results_equal`
  contract.  Concurrency means the batcher actually coalesces many of
  these, so the comparison covers the batched path, not just solo runs.

* **Engine level** (Hypothesis, no sockets) — for arbitrary groups of
  integer vectors, :meth:`BatchEngine.run_group` is bit-identical to
  per-request :meth:`BatchEngine.run_solo`; value encoding survives the
  wire bit for bit in every dtype (attachment) and value for value
  including specials (list); :func:`read_frame` splits any chunking of a
  mixed frame stream back into exactly the frames written; the quota
  meter never admits a tenant at non-positive balance and always
  reconciles its accounting.
"""
import asyncio
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import SERVABLE_OPS, BatchEngine, ScanServer, ServeClient, \
    ServeConfig
from repro.serve.batching import proportional_shares
from repro.serve.cache import ResultCache
from repro.serve.protocol import DTYPES, decode_values, encode_frame, \
    encode_values, ok_frame, read_frame
from repro.serve.quota import QuotaManager, QuotaPolicy
from repro.verify.corpus import generate_cases
from repro.verify.opset import OPS
from repro.verify.runner import results_equal

#: ops on both the fuzzer's and the server's surface, whose inputs the
#: wire protocol can carry (values + optional segment layout)
ROUND_TRIP_OPS = sorted(
    name for name, spec in OPS.items()
    if name in SERVABLE_OPS and spec.n_flags == 0)


def test_round_trip_ops_cover_the_servable_surface():
    """The shared surface is broad: plain scans, distributes, and the
    whole segmented family all round-trip through the server."""
    assert len(ROUND_TRIP_OPS) >= 25
    assert "plus_scan" in ROUND_TRIP_OPS
    assert "seg_back_plus_scan" in ROUND_TRIP_OPS
    assert "seg_max_distribute" in ROUND_TRIP_OPS


def test_generated_cases_round_trip_concurrently():
    """300 fuzzer cases -> concurrent server calls -> oracle equality
    under the fuzzer's comparison contract (bit-exact integers,
    tolerance only for additive floats)."""
    cases = generate_cases(seed=2026, count=300, ops=ROUND_TRIP_OPS)

    async def main():
        server = ScanServer(ServeConfig(
            port=0, batch_window=0.01, max_pending=4096,
            cache_entries=256))
        await server.start()
        try:
            clients = [await ServeClient.connect("127.0.0.1", server.port)
                       for _ in range(12)]
            outs = await asyncio.gather(*[
                clients[i % len(clients)].scan(
                    case.op, case.materialize().values,
                    seg_lengths=case.seg_lengths)
                for i, case in enumerate(cases)])
            for c in clients:
                await c.close()
            return server, outs
        finally:
            await server.shutdown()

    server, outs = asyncio.run(main())

    bad = []
    for case, out in zip(cases, outs):
        spec = OPS[case.op]
        expected = spec.oracle(case.materialize())
        if not results_equal(spec, expected, out):
            bad.append(case.describe() if hasattr(case, "describe")
                       else (case.op, case.dtype))
    assert not bad, f"{len(bad)} divergences, first: {bad[0]}"
    assert server.stats.snapshot()["errors"] == 0


# --------------------------------------------------------------------- #
# Engine-level properties (Hypothesis)
# --------------------------------------------------------------------- #

_ENGINE = BatchEngine("numpy")

group_strategy = st.lists(
    st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
    min_size=1, max_size=12)


@given(group_strategy, st.sampled_from(["plus_scan", "max_scan",
                                        "min_scan", "plus_distribute"]))
@settings(max_examples=60, deadline=None)
def test_batched_group_equals_solo_runs(group, op_name):
    """run_group == per-request run_solo, bit for bit, any group shape."""
    spec = SERVABLE_OPS[op_name]
    parts = [(np.asarray(vals, dtype=np.int64), None) for vals in group]
    results, steps, total_n = _ENGINE.run_group(spec, parts)
    assert total_n == sum(len(v) for v, _ in parts)
    assert steps >= 0
    for (vals, _), got in zip(parts, results):
        want, _ = _ENGINE.run_solo(spec, vals, None)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@given(st.lists(st.lists(st.integers(0, 50), min_size=1, max_size=20),
                min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_batched_segmented_group_equals_solo(group):
    """Segmented requests with heterogeneous layouts fuse losslessly."""
    spec = SERVABLE_OPS["seg_plus_scan"]
    rng = np.random.default_rng(sum(map(len, group)))
    parts = []
    for vals in group:
        flags = rng.random(len(vals)) < 0.3
        flags[0] = True
        parts.append((np.asarray(vals, dtype=np.int64), flags))
    results, _, _ = _ENGINE.run_group(spec, parts)
    for (vals, flags), got in zip(parts, results):
        want, _ = _ENGINE.run_solo(spec, vals, flags)
        assert np.array_equal(got, want)


def _split(frame: bytes):
    """One encoded frame back into (header, attachment bytes or None)."""
    line, _, rest = frame.partition(b"\n")
    header = json.loads(line)
    assert len(rest) == header.get("nbytes", 0)
    return header, (rest if "nbytes" in header else None)


@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0)), max_size=50))
@settings(max_examples=80, deadline=None)
def test_float64_values_survive_the_wire(xs):
    """encode -> wire -> decode is the identity.  The attachment keeps
    every bit, NaN payload and sign included; the list form keeps every
    value and -0.0's sign, but spells every NaN as the canonical
    ``"nan"`` (payload and sign bits are not semantic in the engines)."""
    arr = np.asarray(xs, dtype=np.float64)
    header, raw = _split(ok_frame(1, arr, steps=0, batched=1, cached=False,
                                  packed=True))
    assert "values" not in header and header["dtype"] == "float64"
    back = decode_values(raw, header["dtype"])
    assert np.array_equal(arr.view(np.uint64), back.view(np.uint64))

    header, raw = _split(ok_frame(1, arr, steps=0, batched=1, cached=False))
    assert raw is None and isinstance(header["values"], list)
    back = decode_values(header["values"], header["dtype"])
    assert np.array_equal(arr, back, equal_nan=True)
    finite_sign = ~np.isnan(arr)
    assert np.array_equal(np.signbit(arr)[finite_sign],
                          np.signbit(back)[finite_sign])


def _dtype_extremes(dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    if dt.kind == "b":
        return np.array([False, True])
    if dt.kind == "f":
        fi = np.finfo(dt)
        return np.array([fi.min, fi.max, fi.tiny, -fi.tiny, fi.eps,
                         fi.smallest_subnormal, -0.0, np.inf, -np.inf,
                         np.nan, -np.nan], dtype=dt)
    ii = np.iinfo(dt)
    return np.array([ii.min, ii.max, 0, ii.min + 1, ii.max - 1], dtype=dt)


def _nan_payloads(dtype: str) -> np.ndarray:
    """Quiet and signalling NaNs with non-default payloads and signs."""
    bits = {"float32": [0x7FC00001, 0xFFC12345, 0x7F800001],
            "float64": [0x7FF8000000000001, 0xFFF8DEADBEEF0001,
                        0x7FF0000000000001]}[dtype]
    width = np.uint32 if dtype == "float32" else np.uint64
    return np.array(bits, dtype=width).view(dtype)


@st.composite
def wire_arrays(draw):
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    body = draw(hnp.arrays(np.dtype(dtype), st.integers(0, 40)))
    if draw(st.booleans()):
        body = np.concatenate([body, _dtype_extremes(dtype)])
        if np.dtype(dtype).kind == "f":
            body = np.concatenate([body, _nan_payloads(dtype)])
    return dtype, body


@given(wire_arrays())
@settings(max_examples=200, deadline=None)
def test_packed_round_trip_is_bit_exact_for_every_dtype(case):
    """decode(attachment(a)) == a byte for byte, for all 11 wire dtypes,
    empty vectors, dtype extremes (``uint64`` max, ``-0.0``) and NaN
    payloads included; the decoded array is a fresh, writable,
    native-endian copy."""
    dtype, arr = case
    header, raw = _split(b"".join(encode_frame({"id": 1}, arr)))
    assert header == {"id": 1, "dtype": dtype, "nbytes": arr.nbytes}
    back = decode_values(raw, dtype)
    assert back.dtype == np.dtype(dtype) and back.shape == arr.shape
    assert back.dtype.isnative and back.flags.writeable
    assert back.flags.owndata
    assert np.array_equal(arr.view(np.uint8), back.view(np.uint8))


def test_packed_form_is_little_endian_whatever_the_host():
    """The attachment is little-endian, so a byte-swapped array encodes
    to the same frame as its native twin (header ``dtype`` included), in
    every wire dtype; extremes (``uint64`` max, ``-0.0``) and NaN
    payloads come back bit for bit."""
    for dtype in sorted(DTYPES):
        native = _dtype_extremes(dtype)
        if native.dtype.kind == "f":
            native = np.concatenate([native, _nan_payloads(dtype)])
        swapped = native.astype(native.dtype.newbyteorder(">"))
        assert (b"".join(encode_frame({"id": 1}, swapped))
                == b"".join(encode_frame({"id": 1}, native))), dtype
        _, raw = _split(b"".join(encode_frame({}, swapped)))
        assert decode_values(raw, dtype).tobytes() == native.tobytes()


@st.composite
def frame_streams(draw):
    """Several frames, mixed list and attachment forms, as the exact
    (header, attachment) pairs written and the bytes on the wire."""
    frames = []
    for i in range(draw(st.integers(1, 6))):
        dtype, arr = draw(wire_arrays())
        header = {"id": i, "op": "plus_scan"}
        if draw(st.booleans()):
            parts = encode_frame(header, arr)
            frames.append((json.loads(parts[0]), bytes(parts[1])))
        else:
            parts = encode_frame(dict(header, dtype=dtype,
                                      values=encode_values(arr)))
            frames.append((json.loads(parts[0]), None))
        frames[-1] += (b"".join(parts),)
    wire = b"".join(f[2] for f in frames)
    cuts = sorted(draw(st.lists(st.integers(0, len(wire)), max_size=12)))
    return [f[:2] for f in frames], wire, cuts


@given(frame_streams())
@settings(max_examples=120, deadline=None)
def test_read_frame_recovers_frames_from_any_chunking(case):
    """Chunk boundaries anywhere (inside a header, inside an attachment,
    between the two) never change what :func:`read_frame` returns: the
    frames written, in order, then ``None`` at EOF."""
    written, wire, cuts = case

    async def main():
        reader = asyncio.StreamReader(limit=1 << 20)

        async def feed():
            for lo, hi in zip([0] + cuts, cuts + [len(wire)]):
                reader.feed_data(wire[lo:hi])
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        got = []
        while (frame := await read_frame(reader, 1 << 20)) is not None:
            got.append(frame)
        await feeder
        return got

    got = asyncio.run(main())
    assert len(got) == len(written)
    for (header, raw), (want_header, want_raw) in zip(got, written):
        assert header == want_header
        assert raw == want_raw


# --------------------------------------------------------------------- #
# Cache keys (regression: adjacent fields must not trade characters)
# --------------------------------------------------------------------- #

def test_cache_key_separates_adjacent_fields():
    """Before length-prefixing, ``"x"+"uint8"`` and ``"xu"+"int8"``
    digested identically and a colliding request was served the other
    op's wrong-dtype result."""
    a = ResultCache.key("x", np.array([7], dtype=np.uint8), None)
    b = ResultCache.key("xu", np.array([7], dtype=np.int8), None)
    assert a != b


def test_cache_key_binds_segment_layout_and_backend():
    v = np.array([1, 2, 3], dtype=np.int64)
    flat = ResultCache.key("plus_scan", v, None)
    seg_a = ResultCache.key("seg_plus_scan", v, (1, 2))
    seg_b = ResultCache.key("seg_plus_scan", v, (2, 1))
    assert len({flat, seg_a, seg_b}) == 3
    # a restart onto another engine must not inherit old digests: float
    # +-carries legitimately re-associate per chunk schedule
    assert (ResultCache.key("plus_scan", v, None, backend="NumPyBackend()")
            != ResultCache.key("plus_scan", v, None,
                               backend="BlockedBackend(chunk=7)"))


# --------------------------------------------------------------------- #
# Billing (regression: shares must partition the mega-op's cost)
# --------------------------------------------------------------------- #

@given(st.integers(0, 10**6),
       st.lists(st.integers(0, 10**4), min_size=1, max_size=64))
@settings(max_examples=120, deadline=None)
def test_proportional_shares_partition_exactly(total, weights):
    """sum(shares) == total always; every share within one step of its
    exact proportion; the split is deterministic."""
    shares = proportional_shares(total, weights)
    assert len(shares) == len(weights)
    assert sum(shares) == total
    assert all(s >= 0 for s in shares)
    w = weights if sum(weights) else [1] * len(weights)
    denom = sum(w)
    for share, weight in zip(shares, w):
        assert abs(share - total * weight / denom) < 1.0
    assert proportional_shares(total, weights) == shares


def test_mega_op_billing_partitions_cost():
    """64 coalesced requests are billed the *mega-op's* cost, split
    proportionally — not >= 1 step each (the old ``max(1, round(...))``
    debited a 64-request, few-step batch as 64 steps, silently draining
    tenant budgets ~20x too fast)."""
    vecs = [np.array([i], dtype=np.int64) for i in range(64)]

    async def main():
        server = ScanServer(ServeConfig(
            port=0, batch_window=0.05, max_batch=64, cache_entries=0))
        await server.start()
        try:
            clients = [await ServeClient.connect("127.0.0.1", server.port)
                       for _ in range(8)]
            frames = await asyncio.gather(*[
                clients[i % 8].request("plus_scan", v)
                for i, v in enumerate(vecs)])
            for c in clients:
                await c.close()
            return frames
        finally:
            await server.shutdown()

    frames = asyncio.run(main())
    assert all(f["ok"] for f in frames)
    billed = [f["steps"] for f in frames]
    # the old floor of one step per member makes this sum >= 64 no
    # matter how the batcher composed the groups
    assert sum(billed) < len(vecs), billed
    if all(f["batched"] == len(vecs) for f in frames):
        # single mega-op: the bill must equal its cost exactly
        _, steps, _ = BatchEngine("numpy").run_group(
            SERVABLE_OPS["plus_scan"], [(v, None) for v in vecs])
        assert sum(billed) == steps, (sum(billed), steps)


@given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.integers(0, 40)), max_size=40),
       st.integers(1, 100))
@settings(max_examples=60, deadline=None)
def test_quota_meter_reconciles(events, budget):
    """Admission only at positive balance; debits add up exactly."""
    quota = QuotaManager(QuotaPolicy(budget=budget), clock=lambda: 0.0)
    charged = {"a": 0, "b": 0}
    for tenant, steps in events:
        balance_before = quota._meter(tenant).balance
        denial = quota.admit(tenant)
        if balance_before <= 0:
            assert denial is not None
            continue
        assert denial is None
        quota.debit(tenant, steps)
        charged[tenant] += steps
    snap = quota.snapshot()
    for tenant, total in charged.items():
        if tenant in snap:
            assert snap[tenant]["charged_steps"] == total
            assert snap[tenant]["balance"] == budget - total
