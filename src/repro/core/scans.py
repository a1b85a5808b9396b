"""The scan primitives and the scans derived from them.

The paper admits exactly **two** primitive scans — integer ``+-scan`` and
integer ``max-scan`` — and builds every other scan on top (Section 3.4).
This module mirrors that structure:

* :func:`plus_scan` and :func:`max_scan` are the primitives; each charges one
  ``scan`` program step to the machine (unit time on the scan model, a
  ``2⌈lg n⌉`` tree of memory references on the other models).
* :func:`min_scan`, :func:`or_scan`, :func:`and_scan` and the ``back_*``
  variants are *compositions*: they call the primitives on transformed
  vectors, so their step cost is exactly what the paper's constructions pay.
* ``*_reduce`` and ``*_distribute`` are the Section 2.2 simple operations
  built from scans (``+-distribute`` = ``+-scan`` + backward copy).

All scans are **exclusive** (the paper's definition): element ``i`` of the
result combines elements ``0 .. i-1`` of the input, and element ``0`` is the
operator's identity.

>>> from repro import Machine
>>> m = Machine("scan")
>>> plus_scan(m.vector([2, 1, 2, 3, 5, 8, 13, 21])).to_list()
[0, 2, 3, 5, 8, 13, 21, 34]
"""
from __future__ import annotations

from operator import methodcaller

import numpy as np

from .lazy import LazyNode, compile_plan
from .vector import Vector

__all__ = [
    "plus_scan",
    "max_scan",
    "min_scan",
    "or_scan",
    "and_scan",
    "back_plus_scan",
    "back_max_scan",
    "back_min_scan",
    "back_or_scan",
    "back_and_scan",
    "plus_reduce",
    "max_reduce",
    "min_reduce",
    "or_reduce",
    "and_reduce",
    "plus_distribute",
    "max_distribute",
    "min_distribute",
    "or_distribute",
    "and_distribute",
    "max_identity",
    "min_identity",
]


# --------------------------------------------------------------------- #
# Identities
# --------------------------------------------------------------------- #

def max_identity(dtype: np.dtype):
    """The identity of ``max`` for ``dtype`` (the smallest representable value)."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return False
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).min
    return -np.inf


def min_identity(dtype: np.dtype):
    """The identity of ``min`` for ``dtype`` (the largest representable value)."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return True
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).max
    return np.inf


# --------------------------------------------------------------------- #
# The two primitives
# --------------------------------------------------------------------- #

def _checked_dispatch(v: Vector) -> bool:
    """True when this scan must route through the checked executor
    (:mod:`repro.faults.checked`): the machine has a reliability policy or
    a hard-failed scan unit, and we are not already inside a checked scan."""
    m = v.machine
    return ((m.reliability is not None or m.scan_unit_failed)
            and not m._suppress_scan_check)


def plus_scan(v: Vector) -> Vector:
    """Exclusive ``+-scan``: ``out[i] = v[0] + ... + v[i-1]``, ``out[0] = 0``.

    One of the two primitive scans; one program step.

    Sums accumulate **in the vector's own dtype**: on narrow integer
    dtypes partial sums wrap modulo ``2**width`` exactly as the fixed-width
    adders of the paper's Section 3 hardware would, and because modular
    addition is associative the result is bit-identical on every execution
    backend (see ``docs/verification.md``).  Boolean vectors are widened to
    int64 first, so a ``+-scan`` of flags counts rather than ORs.
    """
    m = v.machine
    if _checked_dispatch(v):
        from ..faults.checked import reliable_plus_scan

        return reliable_plus_scan(v)
    m.charge_scan(v._n)
    node = v._pending_node() if v._expr is not None else None
    if node is not None:
        # fuse the scan onto the pending elementwise chain: one pipeline,
        # one pass per chunk on the blocked backend.  The bool -> int64
        # widening below becomes an uncharged astype step, exactly
        # mirroring the host-side astype of the eager path.
        if node.dtype == np.bool_:
            node = LazyNode(methodcaller("astype", np.int64), (node,),
                            node.n, np.dtype(np.int64))
        plan = compile_plan(node, terminal="plus_scan")
        return Vector._adopt(m, m.execute_fused(plan))
    data = v._data
    if data.dtype == np.bool_:
        data = data.astype(np.int64)
    return Vector._adopt(m, m.execute("plus_scan", data, inject="scan"))


def max_scan(v: Vector, identity=None) -> Vector:
    """Exclusive ``max-scan``: ``out[i] = max(v[0..i-1])``, ``out[0] = identity``.

    One of the two primitive scans; one program step.  ``identity`` defaults
    to the smallest representable value of the dtype; pass ``identity=0`` to
    match the paper's unsigned-integer figures.
    """
    m = v.machine
    if _checked_dispatch(v):
        from ..faults.checked import reliable_max_scan

        return reliable_max_scan(v, identity=identity)
    m.charge_scan(v._n)
    if identity is None:
        identity = max_identity(v.dtype)
    node = v._pending_node() if v._expr is not None else None
    if node is not None:
        plan = compile_plan(node, terminal="max_scan",
                            terminal_args=(identity,))
        return Vector._adopt(m, m.execute_fused(plan))
    out = m.execute("max_scan", v._data, identity, inject="scan")
    return Vector._adopt(m, out)


# --------------------------------------------------------------------- #
# Derived scans (Section 3.4 compositions — costs flow through primitives)
# --------------------------------------------------------------------- #

def _reversing_key(v: Vector) -> Vector:
    """An order-reversing involution that is total on ``v``'s dtype:
    bitwise NOT for integers (``x -> -x - 1`` signed, ``max - x``
    unsigned), logical NOT for bool, negation for floats.  Plain negation
    is *not* total on machine integers — ``-iinfo.min`` overflows back to
    itself for signed dtypes and wraps for unsigned ones — so ``min-scan``
    keys through NOT instead.  One elementwise step, same as negation."""
    if v.dtype == np.bool_ or np.issubdtype(v.dtype, np.integer):
        return ~v
    return -v


def _reversing_key_scalar(x, dtype):
    """:func:`_reversing_key` applied to one scalar of ``dtype``."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return not x
    if np.issubdtype(dtype, np.integer):
        return np.bitwise_not(np.asarray(x, dtype=dtype))[()]
    return -np.asarray(x, dtype=dtype)[()]


def _one_bit(v: Vector) -> Vector:
    """``v`` coerced to {0, 1} int64 by a nonzero test — the bit vector the
    Section 3.4 one-bit scans operate on.  A plain ``astype(int64)`` is not
    enough: negative integers would stay negative and NaN has no integer
    value, while the nonzero test is total.  One elementwise step."""
    return v._unary(lambda a: (a != 0).astype(np.int64))


def min_scan(v: Vector, identity=None) -> Vector:
    """Exclusive ``min-scan``, built as ``inv(max-scan(inv(v)))``
    (Section 3.4) where ``inv`` is the order-reversing key transform of
    :func:`_reversing_key` — total on every dtype, unlike negation."""
    if identity is None:
        identity = min_identity(v.dtype)
    scanned = max_scan(_reversing_key(v),
                       identity=_reversing_key_scalar(identity, v.dtype))
    return _reversing_key(scanned)


def or_scan(v: Vector) -> Vector:
    """Exclusive ``or-scan``: a one-bit ``max-scan`` (Section 3.4)."""
    scanned = max_scan(_one_bit(v), identity=0)
    return scanned > 0


def and_scan(v: Vector) -> Vector:
    """Exclusive ``and-scan``: a one-bit ``min-scan`` (Section 3.4)."""
    scanned = min_scan(_one_bit(v), identity=1)
    return scanned > 0


# --------------------------------------------------------------------- #
# Backward scans: read the vector in reverse order (Section 3.4)
# --------------------------------------------------------------------- #

def _backward(scan_fn, v: Vector, **kw) -> Vector:
    return scan_fn(v.reverse(), **kw).reverse()


def back_plus_scan(v: Vector) -> Vector:
    """Exclusive ``+-scan`` from the last element toward the first."""
    return _backward(plus_scan, v)


def back_max_scan(v: Vector, identity=None) -> Vector:
    """Exclusive ``max-scan`` from the last element toward the first."""
    return _backward(max_scan, v, identity=identity)


def back_min_scan(v: Vector, identity=None) -> Vector:
    """Exclusive ``min-scan`` from the last element toward the first."""
    return _backward(min_scan, v, identity=identity)


def back_or_scan(v: Vector) -> Vector:
    return _backward(or_scan, v)


def back_and_scan(v: Vector) -> Vector:
    return _backward(and_scan, v)


# --------------------------------------------------------------------- #
# Reductions (all elements -> one value)
# --------------------------------------------------------------------- #

def _reduce(v: Vector, op: str, empty):
    m = v.machine
    m.charge_reduce(v._n)
    if v._n == 0:
        return empty
    return m.execute("reduce", v._data, op).item()


def plus_reduce(v: Vector):
    """Sum of all elements (one reduce step)."""
    return _reduce(v, "sum", 0)


def max_reduce(v: Vector):
    """Maximum of all elements (one reduce step)."""
    return _reduce(v, "max", max_identity(v.dtype))


def min_reduce(v: Vector):
    """Minimum of all elements (one reduce step)."""
    return _reduce(v, "min", min_identity(v.dtype))


def or_reduce(v: Vector) -> bool:
    return bool(_reduce(v, "any", False))


def and_reduce(v: Vector) -> bool:
    return bool(_reduce(v, "all", True))


# --------------------------------------------------------------------- #
# Distributes (Section 2.2): every element receives the reduction
# --------------------------------------------------------------------- #

def _distribute(v: Vector, op: str) -> Vector:
    """Reduce then broadcast — the paper implements ``+-distribute`` as a
    ``+-scan`` followed by a backward copy, which is one reduce-shaped step
    plus one broadcast-shaped step on every model."""
    m, n = v.machine, v._n
    m.charge_reduce(n)
    m.charge_broadcast(n)
    if n == 0:
        return Vector._adopt(m, np.empty(0, dtype=v.dtype))
    total = m.execute("reduce", v._data, op)
    return Vector._adopt(m, m.execute("full", n, total, v.dtype))


def plus_distribute(v: Vector) -> Vector:
    """Every element receives the sum of all elements (Figure 1)."""
    return _distribute(v, "sum")


def max_distribute(v: Vector) -> Vector:
    """Every element receives the maximum of all elements."""
    return _distribute(v, "max")


def min_distribute(v: Vector) -> Vector:
    """Every element receives the minimum of all elements."""
    return _distribute(v, "min")


def or_distribute(v: Vector) -> Vector:
    return _distribute(v, "any")


def and_distribute(v: Vector) -> Vector:
    return _distribute(v, "all")
