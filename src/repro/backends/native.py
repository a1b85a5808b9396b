"""The native backend: compiled two-phase Blelloch scans, else blocked's.

The paper's work-efficient circuit (Section 1.3) computes a scan in two
sweeps over a balanced tree; on a multicore CPU the tree degenerates into
the classic block decomposition — the same schedule GPU scan kernels
(``blellochScan`` et al.) and LightScan use to saturate memory bandwidth:

* **upsweep** — each block of ``block`` elements is reduced independently
  (in parallel) to one partial: the block sum, block extreme, or, for the
  segmented variants, the paper's Section 4 *flag-carrying operator* pair
  ``(value since the block's last segment head, has_head)``;
* a tiny **host-side scan of the partials** turns them into per-block
  carry-ins (this is the top of the tree: ``n / block`` elements);
* **downsweep** — each block independently materializes its slice of the
  exclusive scan from its carry-in, again in parallel.

Both sweeps are written once, as plain-Python kernels over preallocated
buffers (``_*_py`` below), driven by :func:`two_phase`, and compiled with
Numba's ``@njit(parallel=True, cache=True)`` when Numba is importable:
then the four scans and the fused terminal scan run the compiled kernels.
Without Numba, :class:`NativeBackend` *is* :class:`BlockedBackend` with
``chunk = block``: it overrides no op, so every op runs blocked's own
code (its chunk loop over the shared carry monoids of
:mod:`repro.backends.carry`, or its one-chunk step), frame for frame.
The tests drive
:func:`two_phase` with the plain-Python kernels on every host, so the
arithmetic Numba compiles stays under test without Numba.

Conformance: integer and boolean results are bit-identical to every
other backend (modular addition and max/min are associative); float
``+``-scans may re-associate across blocks exactly as the blocked and
distributed engines' carries do (the verifier's documented additive
tolerance); ``max``-family scans are exact because ``np.maximum`` and the
kernels' ``v > acc or v != v`` comparison both implement the same
NaN-absorbing total order.  The segmented *min* kernels order NaN as a
largest value (``np.fmin`` semantics) — the same documented ordering
convention as the shared :mod:`repro.backends.carry` kernel, see
``docs/verification.md``.

Selection: ``Machine(backend="native")``, ``native:<threads>``,
``native:<threads>:<block>`` (``threads=0`` means Numba's default), or
``REPRO_BACKEND=native``.  Observability: ``backend.native.ops`` counts
primitives like every backend; ``native.kernel_launches`` counts compiled
two-phase executions, ``native.fallback_ops`` the scans the compiled
engine hands to blocked's code instead (bool lanes, vectors under two
elements; none without Numba, where there is no compiled engine), and
the ``native.threads`` gauge reports the configured thread count.
"""
from __future__ import annotations

import numpy as np

from .blocked import BlockedBackend
from .carry import DEFAULT_CHUNK, block_carries

__all__ = ["NativeBackend", "HAVE_NUMBA", "PY_KERNELS", "two_phase"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
    from numba import njit as _njit, prange

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False
    _numba = None
    prange = range

    def _njit(*args, **kwargs):
        """No-op decorator: kernels stay callable as plain Python."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn
        return wrap

#: default elements per block: the blocked backend's chunk
DEFAULT_BLOCK = DEFAULT_CHUNK

_SCANS = ("plus_scan", "max_scan", "seg_plus_scan", "seg_extreme_scan")


def _nblocks(n: int, block: int) -> int:
    return (n + block - 1) // block


# --------------------------------------------------------------------- #
# Kernels.  One definition each, written in the subset of Python that
# Numba compiles; ``_JIT_KERNELS`` below holds the (maybe-)jitted forms.
# All of them take preallocated output buffers and never allocate.
# --------------------------------------------------------------------- #

def _plus_upsweep_py(values, sums, block, zero):
    nb = sums.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = zero
        for i in range(s, e):
            acc = acc + values[i]
        sums[b] = acc


def _plus_downsweep_py(values, out, offsets, block):
    nb = offsets.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = offsets[b]
        for i in range(s, e):
            out[i] = acc
            acc = acc + values[i]


def _max_upsweep_py(values, sums, block):
    nb = sums.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = values[s]
        for i in range(s + 1, e):
            v = values[i]
            if v > acc or v != v:  # NaN absorbs, like np.maximum
                acc = v
        sums[b] = acc


def _max_downsweep_py(values, out, offsets, block):
    nb = offsets.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = offsets[b]
        for i in range(s, e):
            out[i] = acc
            v = values[i]
            if v > acc or v != v:
                acc = v


def _seg_plus_upsweep_py(values, flags, sums, has, block, zero):
    nb = sums.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = zero
        seen = False
        for i in range(s, e):
            if flags[i]:
                acc = zero
                seen = True
            acc = acc + values[i]
        sums[b] = acc
        has[b] = seen


def _seg_plus_downsweep_py(values, flags, out, carries, block, zero):
    nb = carries.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = carries[b]
        for i in range(s, e):
            if flags[i]:
                acc = zero
            out[i] = acc
            acc = acc + values[i]


def _seg_ext_upsweep_py(values, flags, exts, has, block, is_max):
    nb = exts.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = values[s]
        seen = flags[s]
        for i in range(s + 1, e):
            v = values[i]
            if flags[i]:
                acc = v
                seen = True
            elif is_max:
                if v > acc or v != v:
                    acc = v
            else:
                # NaN orders as a largest value: it never wins a min
                # unless it is all the segment has seen
                if v < acc or acc != acc:
                    acc = v
        exts[b] = acc
        has[b] = seen


def _seg_ext_downsweep_py(values, flags, out, carries, have, block, ident,
                          is_max):
    nb = carries.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = carries[b]
        fresh = not have[b]
        for i in range(s, e):
            v = values[i]
            if flags[i]:
                out[i] = ident
                acc = v
                fresh = False
            else:
                out[i] = ident if fresh else acc
                if fresh:
                    acc = v
                    fresh = False
                elif is_max:
                    if v > acc or v != v:
                        acc = v
                else:
                    if v < acc or acc != acc:
                        acc = v


#: the plain-Python kernels, ``op -> (upsweep, downsweep)``
PY_KERNELS = {
    "plus_scan": (_plus_upsweep_py, _plus_downsweep_py),
    "max_scan": (_max_upsweep_py, _max_downsweep_py),
    "seg_plus": (_seg_plus_upsweep_py, _seg_plus_downsweep_py),
    "seg_extreme": (_seg_ext_upsweep_py, _seg_ext_downsweep_py),
}
_JIT = dict(parallel=True, cache=True, nogil=True)
_JIT_KERNELS = {op: (_njit(**_JIT)(up), _njit(**_JIT)(down))
                for op, (up, down) in PY_KERNELS.items()}


# --------------------------------------------------------------------- #
# The host side: the top of the tree, ``n / block`` elements, sequential
# --------------------------------------------------------------------- #

def _plus_carries(sums: np.ndarray, zero) -> np.ndarray:
    """Exclusive +-scan of the block partials."""
    offsets = np.empty_like(sums)
    offsets[0] = zero
    if len(sums) > 1:
        np.cumsum(sums[:-1], out=offsets[1:])
    return offsets


def _max_carries(exts: np.ndarray, ident) -> np.ndarray:
    offsets = np.empty_like(exts)
    offsets[0] = ident
    if len(exts) > 1:
        np.maximum.accumulate(exts[:-1], out=offsets[1:])
        np.maximum(offsets[1:], ident, out=offsets[1:])
    return offsets


def _seg_plus_carries(sums, has, zero) -> np.ndarray:
    """Exclusive scan of the ``(sum since last head, has_head)`` pairs:
    a head anywhere in a block resets the running open-segment sum."""
    carries = np.empty_like(sums)
    carry = zero
    for b in range(len(sums)):
        carries[b] = carry
        carry = sums[b] if has[b] else np.add(carry, sums[b])
    return carries


def two_phase(kernels: dict, op: str, values: np.ndarray, flags=None,
              identity=None, *, is_max: bool = False,
              block: int = DEFAULT_BLOCK) -> np.ndarray:
    """Upsweep, host scan of the block partials, downsweep: scan ``op``
    (``"plus_scan"``, ``"max_scan"``, ``"seg_plus"`` or ``"seg_extreme"``)
    of a non-empty ``values`` with ``kernels`` (:data:`PY_KERNELS` or
    their compiled forms)."""
    up, down = kernels[op]
    n, dt = len(values), values.dtype
    nb = _nblocks(n, block)
    out = np.empty_like(values)
    zero = dt.type(0)
    with np.errstate(over="ignore"):  # modular carries wrap by design
        if op == "plus_scan":
            sums = np.empty(nb, dtype=dt)
            up(values, sums, block, zero)
            down(values, out, _plus_carries(sums, zero), block)
        elif op == "max_scan":
            exts = np.empty(nb, dtype=dt)
            up(values, exts, block)
            ident = np.asarray(identity, dtype=dt)[()]
            down(values, out, _max_carries(exts, ident), block)
        elif op == "seg_plus":
            sums = np.empty(nb, dtype=dt)
            has = np.empty(nb, dtype=bool)
            up(values, flags, sums, has, block, zero)
            carries = _seg_plus_carries(sums, has, zero)
            down(values, flags, out, carries, block, zero)
        else:
            exts = np.empty(nb, dtype=dt)
            has = np.empty(nb, dtype=bool)
            up(values, flags, exts, has, block, is_max)
            ident = np.asarray(identity, dtype=dt)[()]
            # the kernels' NaN order is block_carries' np.maximum /
            # np.fmin: max propagates NaN, min passes over it
            carries = block_carries(exts, has, ident, is_max=is_max)
            have = np.arange(nb) > 0  # block 0 has no carry-in
            down(values, flags, out, carries, have, block, ident, is_max)
    return out


class NativeBackend(BlockedBackend):
    """Compiled two-phase scans; everything else, and every op without
    Numba, is the blocked backend's with ``chunk = block``."""

    name = "native"
    spec_syntax = "native[:<threads>[:<block>]]"

    @classmethod
    def from_spec(cls, arg: str) -> "NativeBackend":
        if not arg:
            return cls()
        parts = arg.split(":")
        if len(parts) > 2:
            raise ValueError(
                f"backend 'native' takes at most two arguments "
                f"({cls.spec_syntax}), got {arg!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"backend 'native' takes integer arguments "
                f"({cls.spec_syntax}), got {arg!r}") from None
        kwargs = {"threads": numbers[0]}
        if len(numbers) == 2:
            kwargs["block"] = numbers[1]
        return cls(**kwargs)

    def __init__(self, threads: int = 0, block: int = DEFAULT_BLOCK) -> None:
        if threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        super().__init__(chunk=block)
        self.threads = int(threads)
        self.block = self.chunk
        #: whether the compiled kernels are in play (vs blocked's loop)
        self.compiled = HAVE_NUMBA
        if self.compiled and self.threads:
            _numba.set_num_threads(
                min(self.threads, _numba.config.NUMBA_NUM_THREADS))
        from ..observe.metrics import registry

        self._launches = registry.counter("native.kernel_launches")
        self._fallbacks = registry.counter("native.fallback_ops")
        registry.gauge("native.threads").set(
            self.threads if self.threads else
            (_numba.get_num_threads() if self.compiled else 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "numba" if self.compiled else "blocked"
        return (f"NativeBackend(threads={self.threads}, block={self.block}, "
                f"mode={mode})")

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Blocked's figure; a compiled scan adds its per-block partials
        (two words per block)."""
        temp = super().temp_bytes(op, out_bytes)
        if self.compiled and op in _SCANS:
            temp += 2 * max(1, out_bytes // max(1, self.block * 8)) * 8
        return temp

    if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
        # without Numba nothing is overridden: every op, scans included,
        # is blocked's own, frame for frame

        def _scan(self, op: str, values: np.ndarray, flags=None,
                  identity=None, is_max: bool = False) -> np.ndarray:
            # bool lanes keep blocked's accumulate semantics (the machine
            # widens bools before plus_scan anyway); under two elements
            # there is nothing to sweep
            if len(values) >= 2 and values.dtype.kind != "b":
                self._launches.inc()
                return two_phase(_JIT_KERNELS, op, values, flags, identity,
                                 is_max=is_max, block=self.block)
            self._fallbacks.inc()
            return super()._scan(op, values, flags, identity, is_max)

        def fused_pipeline(self, plan) -> np.ndarray:
            """The chain is evaluated one block at a time into one
            full-length buffer (:meth:`~repro.backends.plan.FusedPlan.evaluate`)
            and the terminal scan runs as the ordinary two-phase sweep over
            it, so fused results are bit-identical to eager native
            execution.  A chain with no terminal is blocked's."""
            if plan.terminal is None:
                return super().fused_pipeline(plan)
            n = plan.n
            itemsize = max(1, plan.root_dtype.itemsize)
            root = plan.evaluate(self.block)
            # the chain's block-sized intermediates + the materialized scan
            # input + the per-block partials
            self._fused_temp = (len(plan.steps) * min(n, self.block)
                                * itemsize + root.nbytes
                                + 2 * _nblocks(n, self.block) * itemsize)
            return self._scan(plan.terminal, root, None, *plan.terminal_args)
