"""The differential executor: one case, every engine, one oracle.

For each :class:`~repro.verify.corpus.Case` the runner materializes the
inputs once, computes the serial-oracle answer, then runs the operation on
a **fresh machine per engine and fusion mode** — vectorized NumPy, the
blocked backend at two chunk sizes (chunk boundaries are where
carry-propagation bugs live), the per-element reference backend, and the
native backend at the default and a tiny block size (blocked's chunk
loop with ``chunk = block``), each once eager and, on the engines
that fuse (blocked and native), once more with the lazy fused-pipeline
path — and demands:

* every engine's *result* matches the oracle (bit-identical for integer
  and bool vectors; NaN-aware bit equality for non-additive float ops;
  a 1e-12 relative tolerance for the float +-family, whose association
  the blocked schedule legitimately changes), and
* every engine's *step charges* are identical, kind for kind, across
  backends **and** fusion modes — the cost model is host-side and must
  leak neither backend details nor whether execution was deferred.

One carve-out: for ops whose NaN handling is a *documented* departure
from sequential semantics (``nan_ok=False`` in the opset — the segmented
min scans order NaN as a largest value), the serial oracle abstains
when the inputs actually contain NaN, and the engines are instead held to
**each other**: the first engine's result becomes the expectation every
other engine must match bit for bit.  That keeps hand-written NaN
counterexamples (the chunk-boundary carry crop) on the cross-engine
surface without pretending the oracle's NaN-propagating answer applies.

Anything else is a :class:`Divergence`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..machine.model import Machine
from .corpus import Case
from .opset import OPS, OpSpec

__all__ = ["DEFAULT_ENGINES", "Divergence", "CaseOutcome", "run_case",
           "run_cases", "results_equal"]

#: engines every case runs on (blocked three times: the default chunk,
#: chunk edges at 7, and a carry at every element boundary with chunk 1;
#: native twice: the default block and a tiny block of 7)
DEFAULT_ENGINES = ("numpy", "blocked", "blocked:7", "blocked:1", "reference",
                   "native", "native:0:7")

#: tolerance for float results of additive (+-family) operations.  The
#: blocked schedule and the segmented subtract-offset construction change
#: the association of IEEE addition; with the tame additive corpus
#: (magnitudes <= ~1e3, lengths <= ~130) honest rounding differences stay
#: below ~1e-10 while any logic bug is off by >= the pool's 1e-3 grain.
ADDITIVE_RTOL = 1e-9
ADDITIVE_ATOL = 1e-9


@dataclass(frozen=True)
class Divergence:
    """One conformance violation: an engine disagreed with the oracle
    (``kind="result"``), engines disagreed on step charges
    (``kind="steps"``), or an engine raised (``kind="error"``)."""

    case: Case
    kind: str                    #: "result" | "steps" | "error"
    engine: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (f"[{self.kind}] {self.case.op} dtype={self.case.dtype} "
                f"engine={self.engine}: expected {self.expected!r}, "
                f"got {self.actual!r} — {self.case.describe()}")


@dataclass(frozen=True)
class CaseOutcome:
    """One case's verdict across all engines."""

    case: Case
    divergences: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.divergences


def _is_float(a) -> bool:
    return np.asarray(a).dtype.kind == "f"


def results_equal(spec: OpSpec, expected, actual) -> bool:
    """The comparison contract (see module docstring)."""
    e, a = np.asarray(expected), np.asarray(actual)
    if e.shape != a.shape:
        return False
    if _is_float(e) or _is_float(a):
        if spec.additive:
            return bool(np.allclose(a, e, rtol=ADDITIVE_RTOL,
                                    atol=ADDITIVE_ATOL, equal_nan=True))
        return bool(np.array_equal(e, a, equal_nan=True))
    if e.ndim and e.dtype.kind != a.dtype.kind:
        # a bool vector must not come back as ints, or vice versa
        return False
    return bool(np.array_equal(e, a))


def _portable(value):
    """A divergence payload that prints cleanly (arrays become lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def run_case(case: Case,
             engines: Sequence[str] = DEFAULT_ENGINES) -> CaseOutcome:
    """Run one case on every engine; return its verdict."""
    spec = OPS.get(case.op)
    if spec is None:
        raise ValueError(f"unknown op {case.op!r}; known: {sorted(OPS)}")
    mat = case.materialize()
    with np.errstate(all="ignore"):  # inf-inf etc. is the point of the corpus
        return _run_materialized(spec, case, mat, engines)


def _oracle_abstains(spec: OpSpec, mat) -> bool:
    """Whether the serial oracle's answer does not bind (documented NaN
    departure: ``nan_ok=False`` ops with NaN actually present)."""
    if spec.nan_ok:
        return False
    values = np.asarray(mat.values)
    return values.dtype.kind == "f" and bool(np.isnan(values).any())


def _run_materialized(spec: OpSpec, case: Case, mat, engines) -> "CaseOutcome":
    # None means "cross-engine mode": the first engine result below
    # becomes the expectation (see module docstring)
    expected = None if _oracle_abstains(spec, mat) else spec.oracle(mat)
    expected_from = "oracle"

    divergences = []
    baseline_steps = None
    baseline_engine = None
    for engine in engines:
        for fusion in (False, True):
            label = f"{engine}[{'fused' if fusion else 'eager'}]"
            m = Machine(spec.model, backend=engine, fusion=fusion)
            if fusion and not m.fusion_enabled:
                break  # an engine that does not fuse runs eagerly anyway
            try:
                actual = spec.run(m, mat)
            except Exception as exc:  # an engine crashing IS a finding
                divergences.append(Divergence(
                    case=case, kind="error", engine=label,
                    expected=_portable(expected),
                    actual=f"{type(exc).__name__}: {exc}"))
                continue
            if expected is None:
                expected, expected_from = actual, label
            elif not results_equal(spec, expected, actual):
                divergences.append(Divergence(
                    case=case, kind="result",
                    engine=f"{label} (vs {expected_from})",
                    expected=_portable(expected), actual=_portable(actual)))
            steps = dict(m.counter.by_kind)
            if baseline_steps is None:
                baseline_steps, baseline_engine = steps, label
            elif steps != baseline_steps:
                divergences.append(Divergence(
                    case=case, kind="steps", engine=label,
                    expected=f"{baseline_engine}: {baseline_steps}",
                    actual=steps))
    return CaseOutcome(case=case, divergences=tuple(divergences))


def run_cases(cases: Sequence[Case],
              engines: Sequence[str] = DEFAULT_ENGINES,
              on_outcome: Optional[Callable[[CaseOutcome], None]] = None,
              ) -> list[CaseOutcome]:
    """Run a whole corpus; ``on_outcome`` (if given) sees each verdict as
    it lands (the CLI uses it for progress and early reporting)."""
    outcomes = []
    for case in cases:
        outcome = run_case(case, engines)
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
    return outcomes
