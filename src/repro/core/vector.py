"""The machine-owned ``Vector``: the paper's unit of parallel data.

All algorithm data lives in vectors (one-dimensional arrays) in the shared
memory, with one (virtual) processor per element (Section 2.1).  A
:class:`Vector` couples a NumPy array to the :class:`~repro.machine.Machine`
it lives on; every operation *charges* the machine the program steps the
operation would cost on that model and *computes* the result through the
machine's execution backend (:mod:`repro.backends`) via the single
dispatch point :meth:`repro.machine.Machine.execute`.

Vectors are immutable: operations return new vectors, and the underlying
buffer is marked read-only, so accidental aliasing cannot corrupt step
accounting or results.

On a backend that fuses (``blocked`` and ``native``, whose chunked
executors consume the DAG) with fusion allowed on the machine (see
:class:`~repro.machine.Machine` and ``docs/fusion.md``), elementwise
operations are **lazy**: they charge their program steps immediately — in
exactly eager order, so step counts are bit-identical either way — but
defer computation into a small expression DAG
(:class:`~repro.core.lazy.LazyNode`).  Any observable boundary (``.data``,
``to_array``, a scan, a permute, a reduction, ``repr``, single-cell reads)
*forces* the pending chain: the DAG is compiled to one
:class:`~repro.backends.plan.FusedPlan` and executed by the backend as a
single ``fused_pipeline`` primitive.  ``len()`` and ``.dtype`` never
force — shape and type are known at build time.  On every other backend
elementwise operations execute eagerly, one backend op each.
"""
from __future__ import annotations

from operator import methodcaller
from typing import Callable, Optional, Union

import numpy as np

from .._util import indices_distinct
from ..machine.model import CapabilityError, Machine
from .lazy import LazyNode, compile_plan, probe_dtype

__all__ = ["Vector"]

Scalar = Union[int, float, bool, np.integer, np.floating, np.bool_]

_new = object.__new__
# index range checks as the ufunc reductions ``ndarray.min`` / ``max`` wrap
_min, _max = np.minimum.reduce, np.maximum.reduce


class Vector:
    """A one-dimensional parallel vector owned by a machine.

    Parameters
    ----------
    machine:
        The machine charged for operations on this vector.
    data:
        Any 1-D array-like.  The public constructor always copies, so a
        caller's array can never be aliased by an immutable vector.
        Arrays freshly produced by an execution backend are adopted
        in place — no copy — through the internal :meth:`_adopt` path,
        which every primitive uses for its result.
    """

    # _n is the length, fixed at construction (lazy vectors know it too)
    __slots__ = ("machine", "_storage", "_expr", "_n")

    def __init__(self, machine: Machine, data) -> None:
        arr = np.array(data, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"Vector must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        self.machine = machine
        self._storage = arr
        self._expr = None
        self._n = len(arr)

    @classmethod
    def _adopt(cls, machine: Machine, arr: np.ndarray) -> "Vector":
        """Internal no-copy constructor: wrap an array the caller owns —
        one freshly allocated by a backend, or a view of an already
        immutable buffer — saving one allocation per primitive.  Never
        pass an array someone else may still write through."""
        if arr.ndim != 1:
            raise ValueError(f"Vector must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        self = _new(cls)
        self.machine = machine
        self._storage = arr
        self._expr = None
        self._n = len(arr)
        return self

    @classmethod
    def _defer(cls, machine: Machine, node: LazyNode) -> "Vector":
        """Internal lazy constructor: wrap a pending expression node whose
        value materializes on first observation (see :attr:`_data`)."""
        self = _new(cls)
        self.machine = machine
        self._storage = None
        self._expr = node
        self._n = node.n
        return self

    # ------------------------------------------------------------------ #
    # Introspection (free: no machine steps)
    # ------------------------------------------------------------------ #

    @property
    def _data(self) -> np.ndarray:
        """The underlying array, **forcing** any pending lazy expression.

        Every observable boundary reads through here: the pending DAG is
        compiled into one :class:`~repro.backends.plan.FusedPlan` and
        executed by the backend as a single ``fused_pipeline`` primitive.
        No steps are charged — the machine was charged op by op when the
        expression was built.  Forcing is idempotent (the node caches its
        result)."""
        node = self._expr
        if node is not None:
            if node.result is None:
                plan = compile_plan(node)
                out = self.machine.execute_fused(plan)
                out.setflags(write=False)
                node.result = out
            self._storage = node.result
            self._expr = None
        return self._storage

    def _operand(self):
        """This vector as a lazy-DAG operand: its pending node while
        deferred, its materialized array otherwise."""
        return self._expr if self._expr is not None else self._storage

    def _pending_node(self) -> Optional[LazyNode]:
        """The pending expression node, or ``None`` once materialized
        (used by scans to fuse a terminal onto the chain)."""
        node = self._expr
        return node if node is not None and node.result is None else None

    @property
    def data(self) -> np.ndarray:
        """The read-only underlying array (no copy; forces)."""
        return self._data

    @property
    def dtype(self) -> np.dtype:
        """Element dtype (known at build time; never forces)."""
        if self._expr is not None:
            return self._expr.dtype
        return self._storage.dtype

    def __len__(self) -> int:
        return self._n

    def to_array(self) -> np.ndarray:
        """A mutable copy of the contents."""
        return self._data.copy()

    def to_list(self) -> list:
        return self._data.tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector({self._data.tolist()!r})"

    def __eq__(self, other) -> "Vector":  # type: ignore[override]
        return self._binary(other, np.equal)

    def __ne__(self, other) -> "Vector":  # type: ignore[override]
        return self._binary(other, np.not_equal)

    def __hash__(self):  # vectors are containers, not keys
        raise TypeError("Vector is unhashable")

    def _check_same_machine(self, other: "Vector") -> None:
        if other.machine is not self.machine:
            raise ValueError("vectors live on different machines")
        if other._n != self._n:
            raise ValueError(f"length mismatch: {self._n} vs {other._n}")

    # ------------------------------------------------------------------ #
    # Elementwise operations (one program step each)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _snapshot(operand):
        """A safe leaf for a lazy DAG: writable caller-owned arrays are
        copied and frozen so a later mutation cannot change the deferred
        value (vector storage is already read-only and passes through)."""
        if isinstance(operand, np.ndarray) and operand.flags.writeable:
            operand = operand.copy()
            operand.setflags(write=False)
        return operand

    def _defer_op(self, func, operands: tuple, dtype=None) -> "Vector":
        """Build one pending expression node (the lazy twin of an eager
        ``execute("elementwise", ...)``).  The caller has already charged
        the machine.  The node's result dtype is probed on zero-length
        operand slices so NumPy's own promotion rules decide it, exactly
        as eager execution would; an explicit ``dtype`` that differs from
        the natural one folds the eager path's ``astype`` into the node's
        callable, keeping values bit-identical."""
        operands = tuple(self._snapshot(a) for a in operands)
        node_dtype = probe_dtype(func, operands)
        if dtype is not None and node_dtype != dtype:
            base, node_dtype = func, np.dtype(dtype)
            func = lambda *a: base(*a).astype(node_dtype)  # noqa: E731 - eager twin
        node = LazyNode(func, operands, self._n, node_dtype)
        return Vector._defer(self.machine, node)

    # The eager elementwise paths below are the API's hottest code: each
    # reads its length and the machine's fusion gate once, and adopts the
    # backend's fresh result inline (the body of ``_adopt``; an
    # elementwise result of 1-D operands is always 1-D).

    def _binary(self, other, func: Callable) -> "Vector":
        m, n = self.machine, self._n
        if isinstance(other, Vector):
            self._check_same_machine(other)
        m.charge_elementwise(n)
        if m.fusion_enabled:
            rhs = other._operand() if isinstance(other, Vector) else other
            return self._defer_op(func, (self._operand(), rhs))
        lhs = self._storage if self._expr is None else self._data
        if isinstance(other, Vector):
            other = other._storage if other._expr is None else other._data
        out = m.execute("elementwise", func, lhs, other, inject="elementwise")
        out.setflags(write=False)
        res = _new(Vector)
        res.machine, res._storage, res._expr, res._n = m, out, None, n
        return res

    def _rbinary(self, other, func: Callable) -> "Vector":
        """Reflected arithmetic: ``other op self`` with ``other`` a scalar
        immediate (Python dispatches Vector operands to the forward
        method), so the operand order swaps and the charge is the same
        one elementwise step."""
        m, n = self.machine, self._n
        m.charge_elementwise(n)
        if m.fusion_enabled:
            return self._defer_op(func, (other, self._operand()))
        rhs = self._storage if self._expr is None else self._data
        out = m.execute("elementwise", func, other, rhs, inject="elementwise")
        out.setflags(write=False)
        res = _new(Vector)
        res.machine, res._storage, res._expr, res._n = m, out, None, n
        return res

    def _unary(self, func: Callable, dtype=None) -> "Vector":
        m, n = self.machine, self._n
        m.charge_elementwise(n)
        if m.fusion_enabled:
            return self._defer_op(func, (self._operand(),), dtype)
        fn = func if dtype is None else (lambda a: func(a).astype(dtype))
        arg = self._storage if self._expr is None else self._data
        out = m.execute("elementwise", fn, arg, inject="elementwise")
        out.setflags(write=False)
        res = _new(Vector)
        res.machine, res._storage, res._expr, res._n = m, out, None, n
        return res

    def __add__(self, other) -> "Vector":
        return self._binary(other, np.add)

    def __radd__(self, other) -> "Vector":
        return self._rbinary(other, np.add)

    def __sub__(self, other) -> "Vector":
        return self._binary(other, np.subtract)

    def __rsub__(self, other) -> "Vector":
        return self._rbinary(other, np.subtract)

    def __mul__(self, other) -> "Vector":
        return self._binary(other, np.multiply)

    def __rmul__(self, other) -> "Vector":
        return self._rbinary(other, np.multiply)

    def __truediv__(self, other) -> "Vector":
        return self._binary(other, np.true_divide)

    def __rtruediv__(self, other) -> "Vector":
        return self._rbinary(other, np.true_divide)

    def __floordiv__(self, other) -> "Vector":
        return self._binary(other, np.floor_divide)

    def __rfloordiv__(self, other) -> "Vector":
        return self._rbinary(other, np.floor_divide)

    def __mod__(self, other) -> "Vector":
        return self._binary(other, np.mod)

    def __rmod__(self, other) -> "Vector":
        return self._rbinary(other, np.mod)

    def __neg__(self) -> "Vector":
        return self._unary(np.negative)

    def __abs__(self) -> "Vector":
        return self._unary(np.abs)

    def __lt__(self, other) -> "Vector":
        return self._binary(other, np.less)

    def __le__(self, other) -> "Vector":
        return self._binary(other, np.less_equal)

    def __gt__(self, other) -> "Vector":
        return self._binary(other, np.greater)

    def __ge__(self, other) -> "Vector":
        return self._binary(other, np.greater_equal)

    def __and__(self, other) -> "Vector":
        if self.dtype == np.bool_:
            return self._binary(other, np.logical_and)
        return self._binary(other, np.bitwise_and)

    def __or__(self, other) -> "Vector":
        if self.dtype == np.bool_:
            return self._binary(other, np.logical_or)
        return self._binary(other, np.bitwise_or)

    def __xor__(self, other) -> "Vector":
        if self.dtype == np.bool_:
            return self._binary(other, np.logical_xor)
        return self._binary(other, np.bitwise_xor)

    def __invert__(self) -> "Vector":
        if self.dtype == np.bool_:
            return self._unary(np.logical_not)
        return self._unary(np.bitwise_not)

    def __rshift__(self, other) -> "Vector":
        return self._binary(other, np.right_shift)

    def __lshift__(self, other) -> "Vector":
        return self._binary(other, np.left_shift)

    def minimum(self, other) -> "Vector":
        """Elementwise minimum with a vector or scalar."""
        return self._binary(other, np.minimum)

    def maximum(self, other) -> "Vector":
        """Elementwise maximum with a vector or scalar."""
        return self._binary(other, np.maximum)

    def bit(self, i: int) -> "Vector":
        """The paper's ``A<i>``: extract bit ``i`` of each element as a flag."""
        return self._unary(lambda a: (a >> i) & 1, dtype=bool)

    def astype(self, dtype) -> "Vector":
        """Convert element type (e.g. flags to 0/1 integers); one step."""
        m, n = self.machine, self._n
        m.charge_elementwise(n)
        cast = methodcaller("astype", dtype)
        if m.fusion_enabled:
            return self._defer_op(cast, (self._operand(),))
        arg = self._storage if self._expr is None else self._data
        out = m.execute("elementwise", cast, arg, inject="elementwise")
        out.setflags(write=False)
        res = _new(Vector)
        res.machine, res._storage, res._expr, res._n = m, out, None, n
        return res

    def where(self, if_true: Union["Vector", Scalar], if_false: Union["Vector", Scalar]) -> "Vector":
        """``if self then if_true else if_false`` elementwise; ``self`` must
        be a flag vector.  One program step."""
        if self.dtype != np.bool_:
            raise TypeError("where() requires a boolean flag vector")
        if isinstance(if_true, Vector):
            self._check_same_machine(if_true)
        if isinstance(if_false, Vector):
            self._check_same_machine(if_false)
        m, n = self.machine, self._n
        m.charge_elementwise(n)
        if m.fusion_enabled:
            t = if_true._operand() if isinstance(if_true, Vector) else if_true
            f = (if_false._operand() if isinstance(if_false, Vector)
                 else if_false)
            return self._defer_op(np.where, (self._operand(), t, f))
        t = if_true._data if isinstance(if_true, Vector) else if_true
        f = if_false._data if isinstance(if_false, Vector) else if_false
        cond = self._storage if self._expr is None else self._data
        out = m.execute("elementwise", np.where, cond, t, f,
                        inject="elementwise")
        out.setflags(write=False)
        res = _new(Vector)
        res.machine, res._storage, res._expr, res._n = m, out, None, n
        return res

    # ------------------------------------------------------------------ #
    # Communication operations
    # ------------------------------------------------------------------ #

    def permute(self, index: "Vector", *, length: Optional[int] = None,
                default: Scalar = 0) -> "Vector":
        """``permute(A, I)``: write each element to position ``index[i]``.

        Indices must be unique (an exclusive write; Section 2.1).  The
        destination may be longer than the source (``length``), in which case
        unwritten cells hold ``default``.  One program step.
        """
        self._check_same_machine(index)
        idx = index._data
        n_out = length if length is not None else self._n
        if len(idx) and (_min(idx) < 0 or _max(idx) >= n_out):
            raise IndexError(
                f"permute index out of range [0, {n_out}): "
                f"[{idx.min() if len(idx) else ''}, {idx.max() if len(idx) else ''}]"
            )
        if not indices_distinct(idx, n_out):
            raise CapabilityError(
                "permute requires unique indices (exclusive write); use "
                "combine_write for colliding destinations"
            )
        self.machine.charge_permute(max(self._n, n_out))
        out = self.machine.execute("permute", self._data, idx, n_out, default,
                                   inject="permute")
        return Vector._adopt(self.machine, out)

    def gather(self, index: "Vector") -> "Vector":
        """``A[I]``: each processor reads the cell named by its index.

        Duplicate indices are a concurrent read — illegal on EREW and scan
        machines (a :class:`CapabilityError`).  One program step.
        """
        self._check_same_machine_any_length(index)
        idx = index._data
        if len(idx) and (_min(idx) < 0 or _max(idx) >= self._n):
            raise IndexError("gather index out of range")
        unique = indices_distinct(idx, self._n)
        self.machine.charge_gather(max(self._n, len(idx)), unique=unique)
        out = self.machine.execute("gather", self._data, idx)
        return Vector._adopt(self.machine, out)

    def _check_same_machine_any_length(self, other: "Vector") -> None:
        if other.machine is not self.machine:
            raise ValueError("vectors live on different machines")

    def combine_write(self, index: "Vector", *, length: int, op: str = "min",
                      default: Scalar = 0) -> "Vector":
        """Scatter with colliding destinations, combining with ``op``.

        ``op`` is ``"min"``, ``"max"``, ``"sum"`` or ``"any"`` (the paper's
        "one of the values gets written").  This is the extended-CRCW write;
        on other models it raises unless the machine was created with
        ``allow_concurrent_write=True``.  One program step.
        """
        self._check_same_machine_any_length(index)
        idx = index._data
        if len(idx) != self._n:
            raise ValueError("index vector must match data vector length")
        if len(idx) and (_min(idx) < 0 or _max(idx) >= length):
            raise IndexError("combine_write index out of range")
        self.machine.charge_combine_write(max(self._n, length))
        out = self.machine.execute("combine_write", self._data, idx, length,
                                   op, default)
        return Vector._adopt(self.machine, out)

    def reverse(self) -> "Vector":
        """Read the vector in reverse processor order (used for backward
        scans, Section 3.4).  One permutation step."""
        self.machine.charge_permute(self._n)
        out = self.machine.execute("reverse", self._data)
        return Vector._adopt(self.machine, out)

    def shift(self, k: int, fill: Scalar = 0) -> "Vector":
        """Shift the vector ``k`` places toward higher indices (``k < 0``
        shifts down); vacated cells hold ``fill``.

        A shift is each processor sending its value to a fixed neighbor —
        one permutation step.  This is the "look at the previous element"
        idiom of the paper's quicksort sortedness check and segment-flag
        insertion.
        """
        self.machine.charge_permute(self._n)
        return Vector._adopt(self.machine, self.machine.execute("shift", self._data, k, fill))

    # ------------------------------------------------------------------ #
    # Single-cell access (one memory reference)
    # ------------------------------------------------------------------ #

    def get(self, i: int):
        """Read one cell (a single memory reference; one step)."""
        self.machine.counter.charge("memory", 1)
        return self._data[int(i)].item()

    def first(self):
        """Read the first element (one memory reference)."""
        return self.get(0)

    def last(self):
        """Read the last element (one memory reference)."""
        return self.get(self._n - 1)
