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

Each step holds the exact callable the eager path hands
``Backend.elementwise`` for the same operation — a NumPy ufunc,
``np.where``, ``methodcaller("astype", dtype)`` or a composite such as
``Vector.bit``'s shift-and-mask — and the result dtype NumPy gives it
(probed on zero-length slices at build time), so a fused step computes
exactly what its eager twin does.

Operand references are tagged tuples: ``("in", i)`` names
``plan.inputs[i]``, ``("step", j)`` the output of step ``j``, and
``("const", x)`` a scalar immediate held in the instruction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = ["FusedPlan", "PlanStep"]


@dataclass(frozen=True)
class PlanStep:
    """One elementwise operation of a fused plan (see module docstring)."""

    fn: Callable                 #: the eager path's elementwise callable
    dtype: np.dtype              #: the step's result dtype
    args: tuple                  #: ("in", i) | ("step", j) | ("const", x)


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
        each step applies the eager callable to the eager operand order
        in the eager dtype, so values are bit-identical to eager execution.
        """
        for s in range(0, self.n, size):
            e = min(s + size, self.n)
            env: list = []
            for step in self.steps:
                args = [self.inputs[x][s:e] if tag == "in"
                        else env[x] if tag == "step" else x
                        for tag, x in step.args]
                env.append(step.fn(*args))
            yield s, e, env[-1]

    def evaluate(self, size: int) -> np.ndarray:
        """The root's values for all ``n`` rows, computed ``size`` rows
        at a time by :meth:`chunks` (the terminal is not applied)."""
        out = np.empty(self.n, dtype=self.root_dtype)
        for s, e, rows in self.chunks(size):
            out[s:e] = rows
        return out

    def describe(self) -> str:  # pragma: no cover - cosmetic
        ops = [getattr(s.fn, "__name__", repr(s.fn)) for s in self.steps]
        tail = f" -> {self.terminal}" if self.terminal else ""
        return f"FusedPlan(n={self.n}, {' -> '.join(ops)}{tail})"
