"""Fused-pipeline plans: the wire format between lazy vectors and backends.

A :class:`FusedPlan` is the flattened, backend-agnostic rendering of one
lazy expression DAG (:mod:`repro.core.lazy`) at the moment it is forced:
a tuple of leaf input arrays, a topologically ordered tuple of
:class:`PlanStep` elementwise operations over them, and — when the DAG is
being forced *by* a primitive scan — a terminal scan op the backend may
fold the chain into.  Plans are immutable and contain no machine, charge
or fault state: the :class:`~repro.machine.Machine` computes every step
and wire charge from the *logical* ops before the plan ever reaches a
backend, exactly as it does for eager execution.

Step kinds (the full elementwise vocabulary of
:class:`~repro.core.vector.Vector`):

* ``"ufunc"`` — ``fn`` is a NumPy ufunc applied to the operands; the
  recorded ``dtype`` is NumPy's own result dtype (probed on zero-length
  slices at build time);
* ``"where"`` — the three-operand select ``np.where(flags, a, b)``;
* ``"cast"`` — ``operand.astype(dtype)`` (unsafe casting, NumPy's
  ``astype`` default);
* ``"custom"`` — an opaque elementwise callable (e.g. ``Vector.bit``'s
  shift-and-mask); backends evaluate it as-is and fuse around it.

Operand references are tagged tuples: ``("in", i)`` names
``plan.inputs[i]``, ``("step", j)`` the output of step ``j``, and
``("const", x)`` a scalar immediate held in the instruction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = ["FusedPlan", "PlanStep", "STEP_KINDS"]

#: the recognized step kinds (validated by the plan constructor)
STEP_KINDS = ("ufunc", "where", "cast", "custom")


@dataclass(frozen=True)
class PlanStep:
    """One elementwise operation of a fused plan (see module docstring)."""

    kind: str
    fn: Optional[Callable]       #: ufunc / opaque callable (None for cast)
    dtype: np.dtype              #: the step's result dtype
    args: tuple                  #: ("in", i) | ("step", j) | ("const", x)

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown plan step kind {self.kind!r}; "
                             f"expected one of {STEP_KINDS}")

    def as_callable(self) -> Callable:
        """The step as a plain elementwise callable (what
        :meth:`FusedPlan.chunks` applies to each chunk of the operands)."""
        if self.kind == "cast":
            dt = self.dtype
            return lambda a: a.astype(dt)
        if self.kind == "where":
            return np.where
        return self.fn


@dataclass(frozen=True)
class FusedPlan:
    """One forced expression DAG, flattened for backend execution.

    ``steps`` is topologically ordered and the **last step is the root**:
    its output is the plan's elementwise result.  When ``terminal`` names
    a primitive scan (``"plus_scan"`` / ``"max_scan"``), the plan's value
    is that scan applied to the root — backends are free (and encouraged)
    to fold the chain into the scan's own pass.  ``terminal_args`` are the
    scan's extra positional arguments (``max_scan``'s identity).
    """

    inputs: tuple                #: leaf ndarrays (read-only)
    steps: tuple                 #: PlanStep, topo order, root last
    n: int                       #: vector length of every step's output
    terminal: Optional[str] = None
    terminal_args: tuple = ()

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a fused plan needs at least one step")
        if self.terminal is not None and self.terminal not in (
                "plus_scan", "max_scan"):
            raise ValueError(f"unknown terminal {self.terminal!r}")

    @property
    def root_dtype(self) -> np.dtype:
        """Result dtype of the elementwise chain (and of the terminal
        scan, which preserves its operand's dtype)."""
        return self.steps[-1].dtype

    def chunks(self, size: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """Evaluate the chain ``size`` rows at a time, yielding
        ``(s, e, rows)`` with ``rows`` the root's values on ``[s, e)``.

        This is the one chain evaluator of the fusing engines.  Every
        intermediate is at most ``size`` elements, so a fused chain's
        working storage is chunk-bounded no matter the vector length, and
        each step applies the eager ufunc to the eager operand order in
        the eager dtype, so values are bit-identical to eager execution.
        """
        for s in range(0, self.n, size):
            e = min(s + size, self.n)
            env: list = []
            for step in self.steps:
                args = [self.inputs[x][s:e] if tag == "in"
                        else env[x] if tag == "step" else x
                        for tag, x in step.args]
                env.append(step.as_callable()(*args))
            yield s, e, env[-1]

    def evaluate(self, size: int) -> np.ndarray:
        """The root's values for all ``n`` rows, computed ``size`` rows
        at a time by :meth:`chunks` (the terminal is not applied)."""
        out = np.empty(self.n, dtype=self.root_dtype)
        for s, e, rows in self.chunks(size):
            out[s:e] = rows
        return out

    def describe(self) -> str:  # pragma: no cover - cosmetic
        ops = [s.fn.__name__ if s.kind == "ufunc" else s.kind
               for s in self.steps]
        tail = f" -> {self.terminal}" if self.terminal else ""
        return f"FusedPlan(n={self.n}, {' -> '.join(ops)}{tail})"
