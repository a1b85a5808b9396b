"""Request coalescing: k independent jobs, one segmented mega-op.

The paper's segmented primitives *are* a batching mechanism (Section 2.3):
k independent scan requests of total length n, laid head to tail with a
segment flag at each request boundary, fuse into **one** segmented scan
charged as a single unit-step primitive.  This module is that argument
run in production form: :func:`assemble` concatenates a group of pending
requests into one (values, flags) pair, :class:`BatchEngine` executes the
mega-op through the ordinary :class:`~repro.machine.Machine` /
:class:`~repro.backends.Backend` stack (so the blocked and distributed
engines, fusion, and the whole observability layer apply unchanged), and
the per-request results are slices of the one output vector.

Batching must be *semantically invisible*: every response must equal the
serial one-request run.  Three rules keep it that way:

* requests batch only with requests of the same op and dtype (group key),
  so NumPy promotion can never leak across tenants;
* **float vectors never batch.**  The +-family's association changes
  under the segmented construction (exact for integers, last-ulp for
  IEEE floats), and the segmented min-scans combine with ``np.fmin``,
  which passes over NaN rather than propagating it; both are documented
  engine departures (``docs/verification.md``) that a *solo* run does
  not take.
  Float jobs ride the serial path and skip the window, and stay
  bit-identical to it.
* empty vectors run solo (and skip the window too): their result dtype
  is an identity question, answered by the real op rather than
  re-derived here.

The mega-op *shape* itself — heterogeneous per-request segment layouts
concatenated into one flag vector — is on the cross-backend conformance
surface as the ``batched_seg_*`` ops in :mod:`repro.verify.opset`, which
call :func:`assemble` directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..algorithms.radix_sort import (split_radix_sort,
                                     split_radix_sort_float,
                                     split_radix_sort_signed)
from ..backends import resolve_backend
from ..core import scans, segmented
from ..machine.model import Machine

__all__ = ["ServeOp", "SERVABLE_OPS", "request_flags", "assemble",
           "batchable", "proportional_shares", "BatchEngine"]


@dataclass(frozen=True)
class ServeOp:
    """One servable operation: how to run it solo and (maybe) batched.

    ``solo`` runs one request on its own machine; ``fused`` is the
    segmented form a batch of such requests collapses into (``None``
    means the op never batches).  ``segmented`` ops require the request
    to carry its own ``seg_lengths``.
    """

    name: str
    solo: Callable      #: (Machine, values, seg_flags|None) -> ndarray
    fused: Optional[Callable]  #: (Machine, values, flags) -> ndarray
    segmented: bool = False


def _plain(fn) -> Callable:
    return lambda m, v, sf: fn(m.vector(v)).data


def _seg(fn) -> Callable:
    return lambda m, v, sf: fn(m.vector(v), m.flags(sf)).data


def _sort_solo(m: Machine, v: np.ndarray, sf) -> np.ndarray:
    vec = m.vector(v)
    if np.issubdtype(vec.dtype, np.floating):
        return split_radix_sort_float(vec).data
    if np.issubdtype(vec.dtype, np.signedinteger):
        return split_radix_sort_signed(vec).data
    return split_radix_sort(vec).data


SERVABLE_OPS: dict[str, ServeOp] = {}


def _register(name: str, solo, fused, *, segmented=False):
    SERVABLE_OPS[name] = ServeOp(name=name, solo=solo, fused=fused,
                                 segmented=segmented)


# Unsegmented scans: a batch is the segmented scan over request-boundary
# flags (Figure 16's construction, run in reverse: many solo scans
# *become* one segmented scan).
for _n in ("plus_scan", "max_scan", "min_scan", "or_scan", "and_scan",
           "back_plus_scan", "back_max_scan", "back_min_scan"):
    _register(_n, _plain(getattr(scans, _n)),
              _seg(getattr(segmented, f"seg_{_n}")))

# no segmented counterpart exists for the backward one-bit scans: solo only
for _n in ("back_or_scan", "back_and_scan"):
    _register(_n, _plain(getattr(scans, _n)), None)

# Distributes: per-request reduce-and-spread = per-segment
# reduce-and-spread of the batch.
for _k in ("plus", "max", "min", "or", "and"):
    _register(f"{_k}_distribute",
              _plain(getattr(scans, f"{_k}_distribute")),
              _seg(getattr(segmented, f"seg_{_k}_distribute")))

# Segmented requests fuse by concatenating their flag vectors: each
# request's first element begins a segment, so the combined layout is
# exactly the per-request layouts laid head to tail (the "batched
# heterogeneous segmented scan" shape).
for _n in ("seg_plus_scan", "seg_max_scan", "seg_min_scan", "seg_or_scan",
           "seg_and_scan", "seg_back_plus_scan", "seg_back_max_scan",
           "seg_back_min_scan", "seg_copy", "seg_back_copy",
           "seg_plus_distribute", "seg_max_distribute",
           "seg_min_distribute", "seg_or_distribute",
           "seg_and_distribute"):
    _fn = getattr(segmented, _n)
    _register(_n, _seg(_fn), _seg(_fn), segmented=True)

# Sorts run solo: a batched sort would be a segmented quicksort, whose
# pivot schedule (hence result order for equal keys) differs from the
# radix sort's stable order.
_register("sort", _sort_solo, None)


# --------------------------------------------------------------------- #
# Assembly
# --------------------------------------------------------------------- #

def request_flags(n: int, seg_flags: Optional[np.ndarray]) -> np.ndarray:
    """One request's contribution to the mega-op's flag vector: its own
    segment layout for segmented requests, a single head flag otherwise."""
    if seg_flags is not None:
        return np.asarray(seg_flags, dtype=bool)
    flags = np.zeros(n, dtype=bool)
    if n:
        flags[0] = True
    return flags


def assemble(parts: Sequence[tuple]) -> tuple:
    """Concatenate ``[(values, seg_flags|None), ...]`` into the mega-op's
    ``(values, flags, offsets)``; ``offsets[i]:offsets[i+1]`` slices
    request ``i``'s result back out.  Every part must be non-empty and of
    one dtype (grouping enforces this upstream)."""
    values = [np.asarray(v) for v, _ in parts]
    flags = [request_flags(len(v), sf) for v, (_, sf) in zip(values, parts)]
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(v) for v in values], out=offsets[1:])
    return np.concatenate(values), np.concatenate(flags), offsets


def batchable(op: ServeOp, values: np.ndarray) -> bool:
    """Whether one request may join a mega-op (see module docstring)."""
    return (op.fused is not None and len(values) > 0
            and values.dtype.kind != "f")


def proportional_shares(total: int, weights: Sequence[int]) -> list:
    """Split ``total`` into integer shares proportional to ``weights``,
    summing to **exactly** ``total``.

    This is how a mega-op's step cost is billed to its members: each
    request pays for its slice of the batch, and the slices must
    *partition* the cost — rounding each share independently does not
    (``max(1, round(...))`` debits a 64-request, 3-step mega-op as 64
    steps, a 21x overcharge that silently drains tenant budgets).
    Largest-remainder apportionment keeps every share within one step of
    its exact proportion; remainder ties break toward the earlier index,
    so the split is deterministic.  A share may legitimately be 0: a tiny
    request's slice of a cheap mega-op rounds to nothing.
    """
    total = int(total)
    if not weights:
        return []
    w = [max(0, int(x)) for x in weights]
    denom = sum(w)
    if denom == 0:  # all-zero weights: split as evenly as possible
        w = [1] * len(w)
        denom = len(w)
    shares = []
    remainders = []
    for i, x in enumerate(w):
        q, r = divmod(total * x, denom)
        shares.append(q)
        remainders.append((-r, i))
    for _, i in sorted(remainders)[:total - sum(shares)]:
        shares[i] += 1
    return shares


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #

class BatchEngine:
    """Executes solo requests and mega-ops on fresh machines over one
    shared backend.

    The backend is resolved once (so a distributed pool spawns once and
    is reused across every batch); each execution gets its own
    :class:`Machine` so step charges meter exactly one request or one
    batch.  All methods are synchronous and run off the event loop in the
    server's single executor thread.
    """

    def __init__(self, backend=None, *, model: str = "scan") -> None:
        # resolved once: a distributed pool spawns once, not per batch
        self.backend = resolve_backend(backend)
        self.model = model

    def _machine(self) -> Machine:
        return Machine(self.model, backend=self.backend)

    def run_solo(self, op: ServeOp, values: np.ndarray,
                 seg_flags: Optional[np.ndarray]) -> tuple:
        """One request on its own machine -> ``(result, steps)``."""
        m = self._machine()
        out = op.solo(m, values, seg_flags)
        return np.asarray(out), m.steps

    def run_group(self, op: ServeOp, parts: Sequence[tuple]) -> tuple:
        """One mega-op -> ``(results, steps, total_n)``.

        ``parts`` is ``[(values, seg_flags|None), ...]``, already grouped
        by (op, dtype) and vetted by :func:`batchable`.  The whole group
        is charged as one segmented operation; each request's share of
        those steps is the caller's metering decision.
        """
        if len(parts) == 1:
            out, steps = self.run_solo(op, parts[0][0], parts[0][1])
            return [out], steps, len(parts[0][0])
        values, flags, offsets = assemble(parts)
        m = self._machine()
        out = np.asarray(op.fused(m, values, flags))
        results = [out[offsets[i]:offsets[i + 1]].copy()
                   for i in range(len(parts))]
        return results, m.steps, len(values)
