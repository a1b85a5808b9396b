"""The operation registry: every exported operation the fuzzer covers.

One :class:`OpSpec` per public operation of :mod:`repro.core.scans` and
:mod:`repro.core.segmented` — the two primitive scans, every derived and
backward scan, the reduces and distributes, and the full segmented
surface.  A spec bundles how to *run* the operation on a machine (``run``)
with what it *means* (``oracle``, a serial loop from
:mod:`repro.verify.oracle`) and the shape of its inputs, so the runner and
the corpus generator never special-case operation names.

Dtype grids:

* most operations run over the full adversarial grid — signed and
  unsigned, narrow and wide, bool, float64;
* ``segment_ids`` / ``seg_index`` / ``seg_enumerate`` take flag vectors by
  contract, so they fuzz over ``bool`` only;
* the segmented *min* scans exclude NaN (``nan_ok=False``): their shared
  kernel combines with ``np.fmin``, ordering NaN like a largest value
  that a min passes over, which is a *documented* departure from
  NaN-propagating sequential semantics, not a conformance bug (see
  ``docs/verification.md``).  The max side combines with ``np.maximum``,
  which propagates NaN exactly as the oracle does, so it admits NaN.

``additive=True`` marks the +-family: on floats their result depends on
association, so the blocked backend's chunked partial sums differ from the
whole-vector ``cumsum`` in the last ulp.  The runner compares those with a
tight tolerance instead of bit equality; integer sums wrap modulo
``2**width`` and stay exact everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import scans, segmented
from . import oracle as _oracle
from .corpus import Materialized

__all__ = ["OpSpec", "OPS", "DTYPES_FULL"]

#: the full adversarial dtype grid
DTYPES_FULL = ("int8", "int16", "uint8", "uint32", "int64", "bool",
               "float64")
_BOOL_ONLY = ("bool",)
#: NumPy defines no boolean subtract, so reflected-arithmetic chains
#: fuzz over the numeric grid only
_DTYPES_NO_BOOL = tuple(d for d in DTYPES_FULL if d != "bool")


@dataclass(frozen=True)
class OpSpec:
    """How to run, check, and generate inputs for one exported operation."""

    name: str
    family: str                  #: "scan" | "reduce" | "distribute" | "segmented" | "fused"
    run: Callable                #: (Machine, Materialized) -> ndarray | scalar
    oracle: Callable             #: (Materialized) -> ndarray | scalar
    dtypes: tuple
    segmented: bool = False      #: needs a segment layout
    n_flags: int = 0             #: auxiliary boolean vectors (seg_split...)
    nan_ok: bool = True          #: NaN admitted in generated float values
    additive: bool = False       #: float results compared with tolerance
    model: str = "scan"          #: cost model the runner builds Machines on


OPS: dict[str, OpSpec] = {}


def _register(spec: OpSpec) -> None:
    if spec.name in OPS:
        raise ValueError(f"duplicate op {spec.name!r}")
    OPS[spec.name] = spec


def _plain(fn):
    """Run an unsegmented vector->vector operation."""
    def run(m, mat: Materialized):
        return fn(m.vector(mat.values)).data
    return run


def _plain_scalar(fn):
    """Run an unsegmented vector->scalar operation (the reduces)."""
    def run(m, mat: Materialized):
        return fn(m.vector(mat.values))
    return run


def _seg(fn):
    """Run a (values, seg_flags) operation."""
    def run(m, mat: Materialized):
        return fn(m.vector(mat.values), m.vector(mat.seg_flags)).data
    return run


def _flags_only(fn):
    """Run an operation taking only the segment-flag vector."""
    def run(m, mat: Materialized):
        return fn(m.vector(mat.seg_flags)).data
    return run


def _seg_split(m, mat: Materialized):
    return segmented.seg_split(m.vector(mat.values), m.vector(mat.flags),
                               m.vector(mat.seg_flags)).data


def _seg_split3(m, mat: Materialized):
    return segmented.seg_split3(m.vector(mat.values), m.vector(mat.flags),
                                m.vector(mat.flags2),
                                m.vector(mat.seg_flags)).data


def _orc(name: str) -> Callable:
    return _oracle.ORACLES[name]


# ----------------------------- scans --------------------------------- #

for _name, _additive in [("plus_scan", True), ("max_scan", False),
                         ("min_scan", False), ("or_scan", False),
                         ("and_scan", False), ("back_plus_scan", True),
                         ("back_max_scan", False), ("back_min_scan", False),
                         ("back_or_scan", False), ("back_and_scan", False)]:
    _register(OpSpec(name=_name, family="scan",
                     run=_plain(getattr(scans, _name)), oracle=_orc(_name),
                     dtypes=DTYPES_FULL, additive=_additive))

# ---------------------- reduces and distributes ----------------------- #

for _kind in ("plus", "max", "min", "or", "and"):
    _register(OpSpec(name=f"{_kind}_reduce", family="reduce",
                     run=_plain_scalar(getattr(scans, f"{_kind}_reduce")),
                     oracle=_orc(f"{_kind}_reduce"),
                     dtypes=DTYPES_FULL, additive=(_kind == "plus")))
    _register(OpSpec(name=f"{_kind}_distribute", family="distribute",
                     run=_plain(getattr(scans, f"{_kind}_distribute")),
                     oracle=_orc(f"{_kind}_distribute"),
                     dtypes=DTYPES_FULL, additive=(_kind == "plus")))

# --------------------------- segmented -------------------------------- #

for _name in ("segment_ids", "seg_index"):
    _register(OpSpec(name=_name, family="segmented",
                     run=_flags_only(getattr(segmented, _name)),
                     oracle=_orc(_name), dtypes=_BOOL_ONLY, segmented=True))

_register(OpSpec(name="seg_enumerate", family="segmented",
                 run=_seg(segmented.seg_enumerate),
                 oracle=_orc("seg_enumerate"),
                 dtypes=_BOOL_ONLY, segmented=True))

for _name, _nan_ok, _additive in [
    ("seg_plus_scan", True, True),
    ("seg_max_scan", True, False),
    ("seg_min_scan", False, False),
    ("seg_or_scan", True, False),
    ("seg_and_scan", True, False),
    ("seg_back_plus_scan", True, True),
    ("seg_back_max_scan", True, False),
    ("seg_back_min_scan", False, False),
    ("seg_copy", True, False),
    ("seg_back_copy", True, False),
    ("seg_plus_distribute", True, True),
    ("seg_max_distribute", True, False),
    ("seg_min_distribute", True, False),
    ("seg_or_distribute", True, False),
    ("seg_and_distribute", True, False),
    ("seg_flag_from_neighbor_change", True, False),
]:
    _register(OpSpec(name=_name, family="segmented",
                     run=_seg(getattr(segmented, _name)), oracle=_orc(_name),
                     dtypes=DTYPES_FULL, segmented=True,
                     nan_ok=_nan_ok, additive=_additive))

# the no-old-flags form: flags of a vector laid out by segment number
_register(OpSpec(name="neighbor_change_flags", family="segmented",
                 run=_plain(segmented.seg_flag_from_neighbor_change),
                 oracle=_orc("neighbor_change_flags"), dtypes=DTYPES_FULL))

_register(OpSpec(name="seg_split", family="segmented", run=_seg_split,
                 oracle=_orc("seg_split"), dtypes=DTYPES_FULL,
                 segmented=True, n_flags=1))

_register(OpSpec(name="seg_split3", family="segmented", run=_seg_split3,
                 oracle=_orc("seg_split3"), dtypes=DTYPES_FULL,
                 segmented=True, n_flags=2))

# ------------------ batched heterogeneous segmented scans -------------- #
# The serving mega-op shape (repro.serve.batching): the auxiliary flag
# vector splits the case into pseudo-requests, each carrying its own
# segment layout, and the whole batch executes as ONE segmented scan over
# the assembled flag vector.  The oracle answers each request
# independently, so this is the server's batching-invisibility claim on
# the cross-backend differential surface.  Each pseudo-request first
# crosses the wire codec (encoded as a frame attachment, decoded back),
# so every dtype and NaN case drawn here also checks that codec.


def _batched_seg(seg_fn):
    def run(m, mat: Materialized):
        from ..serve.batching import assemble
        from ..serve.protocol import decode_values, encode_frame

        parts = [(decode_values(encode_frame({}, v)[1], v.dtype.name), f)
                 for v, f in _oracle._request_parts(mat)]
        values, flags, _ = assemble(parts)
        return seg_fn(m.vector(values), m.flags(flags)).data
    return run


_register(OpSpec(name="batched_seg_plus_scan", family="segmented",
                 run=_batched_seg(segmented.seg_plus_scan),
                 oracle=_orc("batched_seg_plus_scan"),
                 dtypes=DTYPES_FULL, segmented=True, n_flags=1,
                 additive=True))

_register(OpSpec(name="batched_seg_max_scan", family="segmented",
                 run=_batched_seg(segmented.seg_max_scan),
                 oracle=_orc("batched_seg_max_scan"),
                 dtypes=DTYPES_FULL, segmented=True, n_flags=1))

# ------------------------- fused pipelines ----------------------------- #
# Elementwise chains ending (or not) in a primitive scan, exercised
# through the public Vector operators so the lazy DAG / fused-plan path is
# on the differential surface: the runner executes every op under both
# fusion settings on every engine that fuses, and eagerly on the rest,
# and demands identical results *and* charges (see
# runner._run_materialized).


def _fused_square_plus_scan(m, mat: Materialized):
    v = m.vector(mat.values)
    return scans.plus_scan(v * v + v).data


def _fused_where_max_scan(m, mat: Materialized):
    v = m.vector(mat.values)
    return scans.max_scan(m.flags(mat.flags).where(v, 0)).data


def _fused_compare_chain(m, mat: Materialized):
    v = m.vector(mat.values)
    return ((v * 2 >= v) & (v != 0)).data


def _fused_reflected_plus_scan(m, mat: Materialized):
    v = m.vector(mat.values)
    return scans.plus_scan((10 - v) * 2 + (5 + v)).data


def _fused_cast_plus_scan(m, mat: Materialized):
    v = m.vector(mat.values)
    return scans.plus_scan(v.astype(np.float64)).data


_register(OpSpec(name="fused_square_plus_scan", family="fused",
                 run=_fused_square_plus_scan,
                 oracle=_orc("fused_square_plus_scan"),
                 dtypes=DTYPES_FULL, additive=True))

_register(OpSpec(name="fused_where_max_scan", family="fused",
                 run=_fused_where_max_scan,
                 oracle=_orc("fused_where_max_scan"),
                 dtypes=DTYPES_FULL, n_flags=1))

_register(OpSpec(name="fused_compare_chain", family="fused",
                 run=_fused_compare_chain,
                 oracle=_orc("fused_compare_chain"),
                 dtypes=DTYPES_FULL))

_register(OpSpec(name="fused_reflected_plus_scan", family="fused",
                 run=_fused_reflected_plus_scan,
                 oracle=_orc("fused_reflected_plus_scan"),
                 dtypes=_DTYPES_NO_BOOL, additive=True))

# int64 is excluded: its extremes round when cast to float64, and the
# scan's catastrophic cancellation then exceeds any honest tolerance on
# the blocked schedule (eager and fused alike); the remaining dtypes sum
# exactly in float64 at corpus lengths
_register(OpSpec(name="fused_cast_plus_scan", family="fused",
                 run=_fused_cast_plus_scan,
                 oracle=_orc("fused_cast_plus_scan"),
                 dtypes=("int8", "int16", "uint8", "uint32", "bool",
                         "float64"),
                 additive=True))

# ----------------------------- codecs ---------------------------------- #
# The compression workloads (repro.algorithms.codecs) on the differential
# surface: RLE is exact for every dtype (NaN is always its own run), delta
# is arithmetic so it skips bool, and the delta round trip is additive (a
# float decode re-sums the diffs, so blocked partial sums differ in the
# last ulp).


def _delta_encode(m, mat: Materialized):
    from ..algorithms import codecs

    return codecs.delta_encode(m.vector(mat.values)).data


def _delta_round_trip(m, mat: Materialized):
    from ..algorithms import codecs

    return codecs.delta_decode(codecs.delta_encode(m.vector(mat.values))).data


def _rle_encode_values(m, mat: Materialized):
    from ..algorithms import codecs

    return codecs.rle_encode(m.vector(mat.values))[0].data


def _rle_encode_lengths(m, mat: Materialized):
    from ..algorithms import codecs

    return codecs.rle_encode(m.vector(mat.values))[1].data


def _rle_round_trip(m, mat: Materialized):
    from ..algorithms import codecs

    values, lengths = codecs.rle_encode(m.vector(mat.values))
    return codecs.rle_decode(values, lengths).data


_register(OpSpec(name="delta_encode", family="codec", run=_delta_encode,
                 oracle=_orc("delta_encode"), dtypes=_DTYPES_NO_BOOL))

_register(OpSpec(name="delta_round_trip", family="codec",
                 run=_delta_round_trip, oracle=_orc("delta_round_trip"),
                 dtypes=_DTYPES_NO_BOOL, additive=True))

_register(OpSpec(name="rle_encode_values", family="codec",
                 run=_rle_encode_values, oracle=_orc("rle_encode_values"),
                 dtypes=DTYPES_FULL))

_register(OpSpec(name="rle_encode_lengths", family="codec",
                 run=_rle_encode_lengths, oracle=_orc("rle_encode_lengths"),
                 dtypes=DTYPES_FULL))

_register(OpSpec(name="rle_round_trip", family="codec",
                 run=_rle_round_trip, oracle=_orc("rle_round_trip"),
                 dtypes=DTYPES_FULL))

# ------------------------- binary-forking ------------------------------ #
# The same public operations fuzzed on Machine(model="binary-forking"):
# results and cross-engine step charges must match exactly as on the scan
# model (only the per-step costs differ), and the fork ledger must
# reconcile after every case — spawn/sync imbalance is a divergence the
# type system can't see, so the runner gets it as an assertion.


def _forked(run_fn):
    def run(m, mat: Materialized):
        out = run_fn(m, mat)
        assert m.fork_counters.reconciles(), (
            f"fork ledger unbalanced: {m.fork_counters.summary()}")
        return out
    return run


_register(OpSpec(name="forking_plus_scan", family="scan",
                 run=_forked(_plain(scans.plus_scan)),
                 oracle=_orc("plus_scan"), dtypes=DTYPES_FULL,
                 additive=True, model="binary-forking"))

_register(OpSpec(name="forking_seg_plus_scan", family="segmented",
                 run=_forked(_seg(segmented.seg_plus_scan)),
                 oracle=_orc("seg_plus_scan"), dtypes=DTYPES_FULL,
                 segmented=True, additive=True, model="binary-forking"))

_register(OpSpec(name="forking_delta_round_trip", family="codec",
                 run=_forked(_delta_round_trip),
                 oracle=_orc("delta_round_trip"), dtypes=_DTYPES_NO_BOOL,
                 additive=True, model="binary-forking"))
