"""Literal Section-3.4 constructions: every scan from the two primitives.

The paper's hardware implements exactly two scans — integer ``+-scan`` and
integer ``max-scan`` — and Section 3.4 shows how every other scan used in the
paper is *simulated* with at most two calls to those primitives plus access
to the bit representation of the numbers.  This module is that section,
executable:

* ``sim_min_scan``      — invert, ``max-scan``, invert.
* ``sim_or_scan``       — a one-bit ``max-scan``.
* ``sim_and_scan``      — a one-bit ``min-scan``.
* ``sim_seg_max_scan``  — Figure 16: append the segment number above the
  value bits, one unsegmented ``max-scan``, strip the appended bits.
* ``sim_seg_copy``      — place the identity everywhere but segment heads,
  segmented ``max-scan``, put the head element back.
* ``sim_seg_plus_scan`` — unsegmented ``+-scan``, copy each segment head's
  scan value across the segment, subtract.
* ``sim_back_*``        — read the vector into the processors in reverse.
* ``sim_float_max_scan``— flip exponent+significand of negatives so the bit
  patterns order like the floats, run the integer ``max-scan``, flip back.

The bit-append constructions require non-negative values of a declared
width; :mod:`repro.core.segmented` provides the general-dtype equivalents
(same costs, a linear-time kernel instead of raw bits).  The test suite
checks the two agree element-for-element wherever both are defined.
"""
from __future__ import annotations

import numpy as np

from . import scans
from .vector import Vector

__all__ = [
    "sim_min_scan",
    "sim_or_scan",
    "sim_and_scan",
    "sim_back_plus_scan",
    "sim_back_max_scan",
    "sim_seg_max_scan",
    "sim_seg_min_scan",
    "sim_seg_copy",
    "sim_seg_plus_scan",
    "sim_float_max_scan",
    "sim_float_min_scan",
    "sim_verify_plus_scan",
    "sim_verify_max_scan",
]


def _require_unsigned(v: Vector, bits: int) -> None:
    if bits < 1 or bits > 62:
        raise ValueError(f"bit width must be in [1, 62], got {bits}")
    d = v.data
    if len(d) and (d.min() < 0 or d.max() >= (1 << bits)):
        raise ValueError(
            f"values must lie in [0, 2^{bits}) for the bit-append construction"
        )


def sim_min_scan(v: Vector) -> Vector:
    """``min-scan`` by inverting the source, executing a ``max-scan``, and
    inverting the result (Section 3.4).

    The identity handed to the ``max-scan`` is chosen so that its negation is
    the identity of ``min`` (the largest representable value).
    """
    neg = -v
    if np.issubdtype(v.dtype, np.integer):
        identity = -np.iinfo(v.dtype).max
    else:
        identity = -np.inf
    out = scans.max_scan(neg, identity=identity)
    return -out


def sim_or_scan(v: Vector) -> Vector:
    """``or-scan`` as a one-bit ``max-scan`` (Section 3.4)."""
    bit = v.astype(np.int64)
    return scans.max_scan(bit, identity=0) > 0


def sim_and_scan(v: Vector) -> Vector:
    """``and-scan`` as a one-bit ``min-scan``, itself built on ``max-scan``
    with identity 1 (so an empty prefix ANDs to true)."""
    bit = v.astype(np.int64)
    neg = -bit
    return -scans.max_scan(neg, identity=-1) > 0


def sim_back_plus_scan(v: Vector) -> Vector:
    """Backward scans read the vector into the processors in reverse order."""
    return scans.plus_scan(v.reverse()).reverse()


def sim_back_max_scan(v: Vector, identity=None) -> Vector:
    return scans.max_scan(v.reverse(), identity=identity).reverse()


def sim_seg_max_scan(v: Vector, seg_flags: Vector, *, bits: int) -> Vector:
    """Figure 16's segmented ``max-scan``.

    ::

        Seg-Number <- SFlag + enumerate(SFlag)
        B          <- append(Seg-Number, A)
        C          <- extract-bottom-bits(max-scan(B))
        Result     <- if SFlag then identity else C

    The appended segment number dominates the comparison, so the running max
    can never escape backward across a segment boundary; segment heads
    receive the identity (0 for these unsigned values) explicitly.
    """
    _require_unsigned(v, bits)
    sf_int = seg_flags.astype(np.int64)
    seg_number = sf_int + scans.plus_scan(sf_int)
    appended = (seg_number << bits) | v.astype(np.int64)
    scanned = scans.max_scan(appended, identity=0)
    bottom = scanned & Vector._adopt(
        v.machine, np.full(len(v), (1 << bits) - 1, dtype=np.int64))
    return seg_flags.where(0, bottom).astype(v.dtype)


def sim_seg_copy(v: Vector, seg_flags: Vector, *, bits: int) -> Vector:
    """Segmented copy from the segmented ``max-scan``: place the identity in
    all but the first element of each segment, scan, then put the first
    element back (Sections 2.2 and 2.3.1)."""
    _require_unsigned(v, bits)
    masked = seg_flags.where(v, 0)
    scanned = sim_seg_max_scan(masked, seg_flags, bits=bits)
    return seg_flags.where(v, scanned)


def sim_seg_min_scan(v: Vector, seg_flags: Vector, *, bits: int) -> Vector:
    """Segmented ``min-scan`` from the segmented ``max-scan``: complement
    the values within their bit width, scan, complement back (the same
    inversion Section 3.4 uses for the unsegmented min)."""
    _require_unsigned(v, bits)
    mask = (1 << bits) - 1
    inverted = v ^ mask
    scanned = sim_seg_max_scan(inverted, seg_flags, bits=bits)
    return scanned ^ mask


def sim_seg_plus_scan(v: Vector, seg_flags: Vector) -> Vector:
    """Segmented ``+-scan`` from the unsegmented one (Section 3.4): scan the
    whole vector, copy each segment head's scan value across its segment,
    and subtract it out."""
    if len(v.data) and v.data.min() < 0:
        raise ValueError("sim_seg_plus_scan requires non-negative values")
    full = scans.plus_scan(v)
    # each segment head's value in `full` copied across the segment; head
    # scan values are bounded by the total, so size the append field to fit.
    total = int(np.sum(v.data)) if len(v) else 0
    bits = max(int(total).bit_length() + 1, 1)
    if bits > 62:
        raise ValueError("sim_seg_plus_scan requires values whose total fits in 62 bits")
    offsets = sim_seg_copy(full, seg_flags, bits=bits)
    return full - offsets


def _float_flip(bits_vec: np.ndarray) -> np.ndarray:
    """Map IEEE-754 bit patterns to integers that order like the floats:
    flip exponent and significand when the sign bit is set."""
    mask = np.where(bits_vec < 0, np.int64(0x7FFFFFFFFFFFFFFF), np.int64(0))
    return bits_vec ^ mask


def sim_float_max_scan(v: Vector) -> Vector:
    """Floating-point ``max-scan`` on the integer ``max-scan`` (Section 3.4):
    reinterpret, conditionally flip, scan, flip back, reinterpret."""
    if not np.issubdtype(v.dtype, np.floating):
        raise TypeError("sim_float_max_scan requires a float vector")
    m = v.machine
    raw = v.data.astype(np.float64).view(np.int64)
    m.charge_elementwise(len(v))  # the flip
    flipped = Vector._adopt(m, m.execute("elementwise", _float_flip, raw))
    scanned = scans.max_scan(flipped)
    m.charge_elementwise(len(v))  # the flip back
    out_bits = m.execute("elementwise", _float_flip, scanned.data)
    out = out_bits.view(np.float64).copy()
    if len(out):
        out[0] = -np.inf  # the identity of float max
    return Vector(m, out)


def sim_float_min_scan(v: Vector) -> Vector:
    """Floating-point ``min-scan``: negate, float ``max-scan``, negate."""
    out = sim_float_max_scan(-v)
    return -out


# --------------------------------------------------------------------- #
# Self-checking scans: cross-verify a primitive result against an
# independent construction (the detection half of repro.faults)
# --------------------------------------------------------------------- #

def sim_verify_plus_scan(v: Vector, out: Vector) -> bool:
    """Cross-verify ``out == plus_scan(v)`` by the Section 3.4 backward
    construction: an *independent* backward ``+-scan`` gives the suffix
    sums, and for an exclusive forward/backward pair

    ::

        out[i] + back[i] + v[i] == +-reduce(v)      for every i

    A corruption of any single element of ``out`` (or of the verifying
    scan — a benign false alarm) breaks the identity at that element.
    Every operation charges its true steps: one extra scan, two permutes
    (the reversals), the three-way add, and the comparison's and-reduce —
    the measured cost of making a scan self-checking at machine level.

    Float vectors are compared with a relative tolerance (forward and
    backward float sums round differently); integer and boolean vectors
    are compared exactly.
    """
    m = v.machine
    n = len(v)
    if n == 0:
        return True
    back = sim_back_plus_scan(v)
    total = scans.plus_reduce(v)
    m.charge_elementwise(n)  # out + back + v
    resid = m.execute("elementwise", lambda a, b, c: a + b + c,
                      out.data, back.data, v.data)
    m.charge_elementwise(n)  # compare against the distributed total
    if np.issubdtype(resid.dtype, np.floating):
        match = m.execute("elementwise",
                          lambda r: np.isclose(r, total, rtol=1e-9, atol=0.0),
                          resid)
    else:
        match = m.execute("elementwise", np.equal, resid, total)
    m.charge_reduce(n)       # and-reduce of the per-element verdicts
    return bool(match.all())


def sim_verify_max_scan(v: Vector, out: Vector, identity=None) -> bool:
    """Cross-verify ``out == max_scan(v, identity)`` by the defining
    recurrence of the exclusive scan (Section 1.1):

    ::

        out[0] == identity,   out[i+1] == max(out[i], v[i])

    checked in parallel with one elementwise max, one unit shift and one
    and-reduce.  The recurrence is complete: *any* vector other than the
    true scan violates it at its first wrong element, so a single
    corrupted element is always caught.  Charges its true extra steps.
    """
    m = v.machine
    n = len(v)
    if n == 0:
        return True
    if identity is None:
        identity = scans.max_identity(v.dtype)
    inc = out.maximum(v)                    # inclusive scan candidate
    expected = inc.shift(1, fill=identity)  # expected[0] = identity
    m.charge_elementwise(n)                 # compare
    match = m.execute("elementwise", np.equal, out.data, expected.data)
    m.charge_reduce(n)                      # and-reduce of the verdicts
    return bool(match.all())
