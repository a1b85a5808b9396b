"""The lazy expression DAG behind :class:`~repro.core.vector.Vector`.

On a backend that fuses (``Backend.fuses``: ``blocked`` and ``native``)
with fusion allowed (see :class:`repro.machine.Machine`), elementwise
vector operations do not materialize: they build one immutable
:class:`LazyNode` per operation — a small DAG whose leaves are already
materialized arrays and scalar immediates — and defer computation until an
*observable boundary* forces the chain (``.data``, a scan, a permute, a
reduction, ``repr``; see ``docs/fusion.md`` for the full forcing rules).

Two invariants make laziness undetectable from the cost model's side:

* **Charges are logical and eager.**  The machine is charged for an
  elementwise op when its node is *built*, in exactly the order eager
  execution would charge it, so step counters — and anything listening to
  them, like the span profiler — are bit-identical whether fusion is on
  or off, even for chains that are never forced.
* **Dtypes are NumPy's own.**  Each node's result dtype is probed at
  build time by evaluating the operation on zero-length slices of its
  operands, so promotion decisions are made by NumPy itself and match
  eager execution exactly (including NEP-50 scalar behavior).

Forcing compiles the reachable, not-yet-materialized subgraph into a
:class:`~repro.backends.plan.FusedPlan` and executes it through the
machine's single dispatch point as one ``fused_pipeline`` primitive,
evaluated chunk by chunk; the root node caches its result, so forcing is
idempotent and a node shared by several consumers is an input leaf to any
plan compiled after it was forced.  Other backends never see a DAG: on
short vectors, building and compiling one costs more than the eager ops
it replaces (see ``docs/fusion.md``).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends.plan import FusedPlan, PlanStep

__all__ = ["LazyNode", "compile_plan", "probe_dtype"]


class LazyNode:
    """One deferred elementwise operation (immutable except for the
    result cache).

    ``fn`` is the callable the eager path hands ``Backend.elementwise``;
    ``args`` holds its operands in call order: other :class:`LazyNode`
    instances, read-only leaf ``ndarray`` operands, or scalar immediates.
    """

    __slots__ = ("fn", "args", "n", "dtype", "result")

    def __init__(self, fn, args: tuple, n: int, dtype: np.dtype) -> None:
        self.fn = fn
        self.args = args
        self.n = n
        self.dtype = dtype
        #: the materialized result once any plan containing this node as
        #: root has executed (None while pending)
        self.result: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cached" if self.result is not None else "pending"
        return (f"LazyNode({getattr(self.fn, '__name__', self.fn)}, "
                f"n={self.n}, dtype={self.dtype}, {state})")


def probe_dtype(fn, args: tuple) -> np.dtype:
    """The operation's result dtype, decided by NumPy itself.

    Calls ``fn`` on zero-length slices of its array/node operands
    (scalars stay scalars, so NEP-50 promotion applies exactly as it will
    at execution time).  Value-dependent failures — a Python int that
    does not fit any common dtype, a bad ``where`` operand — surface here,
    at build time, where eager execution would have raised too.
    """
    probe = []
    for a in args:
        if isinstance(a, LazyNode):
            probe.append(np.empty(0, dtype=a.dtype))
        elif isinstance(a, np.ndarray):
            probe.append(a[:0])
        else:
            probe.append(a)
    return fn(*probe).dtype


def compile_plan(root: LazyNode, *, terminal: Optional[str] = None,
                 terminal_args: tuple = ()) -> FusedPlan:
    """Flatten the pending subgraph under ``root`` into a
    :class:`~repro.backends.plan.FusedPlan`.

    Nodes with a cached result, and raw arrays, become plan inputs;
    pending nodes become steps in topological order with the root last.
    The walk deduplicates by node identity, so a diamond-shaped DAG
    evaluates each shared node once per plan.
    """
    inputs: list = []
    input_index: dict[int, int] = {}   # id(array) -> input slot
    step_index: dict[int, int] = {}    # id(node)  -> step slot
    steps: list[PlanStep] = []

    def leaf(arr: np.ndarray) -> tuple:
        slot = input_index.get(id(arr))
        if slot is None:
            slot = len(inputs)
            input_index[id(arr)] = slot
            inputs.append(arr)
        return ("in", slot)

    def ref_of(operand):
        """The plan reference for an already-visited operand."""
        if isinstance(operand, LazyNode):
            if operand.result is not None:
                return leaf(operand.result)
            return ("step", step_index[id(operand)])
        if isinstance(operand, np.ndarray):
            return leaf(operand)
        return ("const", operand)

    # iterative post-order walk: chains can be thousands of nodes deep
    # (one node per loop iteration), far past the recursion limit
    stack: list[tuple[LazyNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in step_index or node.result is not None:
            continue
        if expanded:
            refs = tuple(ref_of(a) for a in node.args)
            step_index[id(node)] = len(steps)
            steps.append(PlanStep(fn=node.fn, dtype=node.dtype, args=refs))
            continue
        stack.append((node, True))
        for a in node.args:
            if isinstance(a, LazyNode) and id(a) not in step_index \
                    and a.result is None:
                stack.append((a, False))
    return FusedPlan(inputs=tuple(inputs), steps=tuple(steps), n=root.n,
                     terminal=terminal, terminal_args=terminal_args)
