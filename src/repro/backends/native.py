"""The native backend: two-phase Blelloch scans over preallocated buffers.

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

Both sweeps are expressed once, as plain-Python kernels over preallocated
buffers (``_*_py`` below), and compiled with Numba's
``@njit(parallel=True, cache=True)`` when Numba is importable.  Without
Numba the backend **falls back gracefully** instead of dying: small
vectors run the same kernels as ordinary Python (keeping the exact kernel
arithmetic on the fuzzer's differential surface), and large vectors run a
vectorized per-block schedule that mirrors :class:`BlockedBackend`'s
proven chunk math — same two phases, NumPy expressions instead of
compiled loops (the segmented extreme scan runs the blocked engine's
own block loop over the shared :mod:`repro.backends.carry` kernel).
``REPRO_NATIVE_PURE=1`` forces the fallback even when Numba is present
(the CI leg that proves it).

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

Everything else — communication, broadcast, the table-driven segmented
ops — inherits :class:`NumPyBackend` unchanged: the paper's argument is
about the scans, and that is where the parallel schedule pays.

Selection: ``Machine(backend="native")``, ``native:<threads>``,
``native:<threads>:<block>`` (``threads=0`` means Numba's default), or
``REPRO_BACKEND=native``.  Observability: ``backend.native.ops`` counts
primitives like every backend; ``native.kernel_launches`` counts compiled
two-phase executions, ``native.fallback_ops`` the pure-path ones, and the
``native.threads`` gauge reports the configured thread count.
"""
from __future__ import annotations

import os

import numpy as np

from .carry import block_carries, seg_extreme_blocks
from .numpy_backend import NumPyBackend, _exclusive_cumsum

__all__ = ["NativeBackend", "HAVE_NUMBA"]

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

#: default elements per block (a few hundred KB of int64 per temporary,
#: matching the blocked backend's chunk)
DEFAULT_BLOCK = 65536

#: largest vector the pure fallback runs through the plain-Python kernels
#: (beyond this it switches to the vectorized per-block schedule)
_PY_KERNEL_MAX = 2048

_ENV_PURE = "REPRO_NATIVE_PURE"


def _nblocks(n: int, block: int) -> int:
    return (n + block - 1) // block


# --------------------------------------------------------------------- #
# Kernels.  One definition each, written in the subset of Python that
# Numba compiles; the ``_K_*`` names below are the (maybe-)jitted forms.
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


_JIT = dict(parallel=True, cache=True, nogil=True)
_K_PLUS_UP = _njit(**_JIT)(_plus_upsweep_py)
_K_PLUS_DOWN = _njit(**_JIT)(_plus_downsweep_py)
_K_MAX_UP = _njit(**_JIT)(_max_upsweep_py)
_K_MAX_DOWN = _njit(**_JIT)(_max_downsweep_py)
_K_SEG_PLUS_UP = _njit(**_JIT)(_seg_plus_upsweep_py)
_K_SEG_PLUS_DOWN = _njit(**_JIT)(_seg_plus_downsweep_py)
_K_SEG_EXT_UP = _njit(**_JIT)(_seg_ext_upsweep_py)
_K_SEG_EXT_DOWN = _njit(**_JIT)(_seg_ext_downsweep_py)


class NativeBackend(NumPyBackend):
    """Two-phase block-parallel scans; everything else rides NumPy."""

    name = "native"
    spec_syntax = "native[:<threads>[:<block>]]"
    fuses = True

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

    def __init__(self, threads: int = 0, block: int = DEFAULT_BLOCK,
                 force_pure: bool | None = None) -> None:
        if threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self.threads = int(threads)
        self.block = int(block)
        if force_pure is None:
            force_pure = os.environ.get(_ENV_PURE, "") not in ("", "0")
        #: whether the compiled kernels are in play (vs the pure fallback)
        self.compiled = HAVE_NUMBA and not force_pure
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
        mode = "numba" if self.compiled else "pure"
        return (f"NativeBackend(threads={self.threads}, block={self.block}, "
                f"mode={mode})")

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _engaged(self, values: np.ndarray) -> bool:
        """Whether the two-phase schedule runs (vs inheriting NumPy).

        Booleans delegate: NumPy's accumulate semantics on bool lanes are
        the contract, and the machine widens bools before ``plus_scan``
        anyway.  Length < 2 is a base case with nothing to sweep.
        """
        return len(values) >= 2 and values.dtype.kind != "b"

    def _use_py_kernels(self, n: int) -> bool:
        return self.compiled or n <= _PY_KERNEL_MAX

    def _count(self, n: int) -> None:
        (self._launches if self.compiled else self._fallbacks).inc()

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Two-phase working storage: the per-block partials (one word per
        block) plus, on the pure path, chunk-bounded NumPy temporaries —
        the segmented extreme kernel holds about 1.6 of them."""
        if op == "fused_pipeline":
            return super().temp_bytes(op, out_bytes)
        per_block = min(out_bytes, self.block * 8)
        partials = 2 * max(1, out_bytes // max(1, self.block * 8)) * 8
        if op == "seg_extreme_scan" and not self.compiled:
            per_block = 13 * per_block // 8
        return per_block + partials

    # ------------------------------------------------------------------ #
    # Unsegmented scans
    # ------------------------------------------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        if not self._engaged(values):
            return super().plus_scan(values)
        n, block = len(values), self.block
        nb = _nblocks(n, block)
        dt = values.dtype
        sums = np.empty(nb, dtype=dt)
        out = np.empty_like(values)
        zero = dt.type(0)
        self._count(n)
        with np.errstate(over="ignore"):  # modular carries wrap by design
            if self._use_py_kernels(n):
                up, down = ((_K_PLUS_UP, _K_PLUS_DOWN) if self.compiled
                            else (_plus_upsweep_py, _plus_downsweep_py))
                up(values, sums, block, zero)
                offsets = self._plus_carries(sums, zero)
                down(values, out, offsets, block)
            else:
                for b in range(nb):
                    s, e = b * block, min(b * block + block, n)
                    sums[b] = values[s:e].sum(dtype=dt)
                offsets = self._plus_carries(sums, zero)
                for b in range(nb):
                    s, e = b * block, min(b * block + block, n)
                    out[s] = offsets[b]
                    np.cumsum(values[s:e - 1], out=out[s + 1:e])
                    out[s + 1:e] += offsets[b]
        return out

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        if not self._engaged(values):
            return super().max_scan(values, identity)
        n, block = len(values), self.block
        nb = _nblocks(n, block)
        dt = values.dtype
        exts = np.empty(nb, dtype=dt)
        out = np.empty_like(values)
        ident = np.asarray(identity, dtype=dt)[()]
        self._count(n)
        if self._use_py_kernels(n):
            up, down = ((_K_MAX_UP, _K_MAX_DOWN) if self.compiled
                        else (_max_upsweep_py, _max_downsweep_py))
            up(values, exts, block)
            offsets = self._max_carries(exts, ident)
            down(values, out, offsets, block)
        else:
            for b in range(nb):
                s, e = b * block, min(b * block + block, n)
                exts[b] = values[s:e].max()
            offsets = self._max_carries(exts, ident)
            for b in range(nb):
                s, e = b * block, min(b * block + block, n)
                out[s] = offsets[b]
                np.maximum.accumulate(values[s:e - 1], out=out[s + 1:e])
                np.maximum(out[s + 1:e], offsets[b], out=out[s + 1:e])
        return out

    def _plus_carries(self, sums: np.ndarray, zero) -> np.ndarray:
        """Exclusive +-scan of the block partials (the top of the tree:
        ``n / block`` elements, sequential on the host)."""
        offsets = np.empty_like(sums)
        offsets[0] = zero
        if len(sums) > 1:
            np.cumsum(sums[:-1], out=offsets[1:])
        return offsets

    def _max_carries(self, exts: np.ndarray, ident) -> np.ndarray:
        offsets = np.empty_like(exts)
        offsets[0] = ident
        if len(exts) > 1:
            np.maximum.accumulate(exts[:-1], out=offsets[1:])
            np.maximum(offsets[1:], ident, out=offsets[1:])
        return offsets

    # ------------------------------------------------------------------ #
    # Segmented scans (the Section 4 flag-carrying operator, fused into
    # a single per-block pass on each sweep)
    # ------------------------------------------------------------------ #

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if not self._engaged(values):
            return super().seg_plus_scan(values, seg_flags)
        n, block = len(values), self.block
        nb = _nblocks(n, block)
        dt = values.dtype
        sums = np.empty(nb, dtype=dt)
        has = np.empty(nb, dtype=bool)
        out = np.empty_like(values)
        zero = dt.type(0)
        self._count(n)
        with np.errstate(over="ignore"):
            if self._use_py_kernels(n):
                up, down = ((_K_SEG_PLUS_UP, _K_SEG_PLUS_DOWN)
                            if self.compiled
                            else (_seg_plus_upsweep_py, _seg_plus_downsweep_py))
                up(values, seg_flags, sums, has, block, zero)
                carries = self._seg_plus_carries(sums, has, zero)
                down(values, seg_flags, out, carries, block, zero)
            else:
                for b in range(nb):
                    s, e = b * block, min(b * block + block, n)
                    seg, sfc = values[s:e], seg_flags[s:e]
                    heads = np.flatnonzero(sfc)
                    if len(heads):
                        sums[b] = seg[heads[-1]:].sum(dtype=dt)
                        has[b] = True
                    else:
                        sums[b] = seg.sum(dtype=dt)
                        has[b] = False
                carries = self._seg_plus_carries(sums, has, zero)
                for b in range(nb):
                    s, e = b * block, min(b * block + block, n)
                    seg, sfc = values[s:e], seg_flags[s:e]
                    # the blocked backend's subtract-offset chunk math,
                    # with the carry-in folded into the continuing run
                    ex = _exclusive_cumsum(seg)
                    local = np.cumsum(sfc)
                    heads = np.flatnonzero(sfc)
                    offs = np.empty(len(heads) + 1, dtype=dt)
                    offs[0] = zero - carries[b]
                    offs[1:] = ex[heads]
                    out[s:e] = ex - offs[local]
        return out

    def _seg_plus_carries(self, sums, has, zero) -> np.ndarray:
        """Exclusive scan of the ``(sum since last head, has_head)`` pairs:
        a head anywhere in a block resets the running open-segment sum."""
        carries = np.empty_like(sums)
        carry = zero
        for b in range(len(sums)):
            carries[b] = carry
            carry = sums[b] if has[b] else np.add(carry, sums[b])
        return carries

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        if not self._engaged(values):
            return super().seg_extreme_scan(values, seg_flags, identity,
                                            is_max=is_max)
        n, block = len(values), self.block
        dt = values.dtype
        ident = np.asarray(identity, dtype=dt)[()]
        self._count(n)
        if not self._use_py_kernels(n):
            # the vectorized tier is the blocked engine's block loop
            return seg_extreme_blocks(values, seg_flags, ident,
                                      is_max=is_max, block=block)
        nb = _nblocks(n, block)
        exts = np.empty(nb, dtype=dt)
        has = np.empty(nb, dtype=bool)
        out = np.empty_like(values)
        up, down = ((_K_SEG_EXT_UP, _K_SEG_EXT_DOWN) if self.compiled
                    else (_seg_ext_upsweep_py, _seg_ext_downsweep_py))
        up(values, seg_flags, exts, has, block, is_max)
        # the kernels' NaN order is block_carries' np.maximum / np.fmin:
        # max propagates NaN, min passes over it
        carries = block_carries(exts, has, ident, is_max=is_max)
        have = np.arange(nb) > 0  # block 0 has no carry-in
        down(values, seg_flags, out, carries, have, block, ident, is_max)
        return out

    # ------------------------------------------------------------------ #
    # Fused pipelines: the elementwise chain evaluated block by block
    # into the scan's input buffer, then one two-phase sweep over it
    # ------------------------------------------------------------------ #

    def fused_pipeline(self, plan) -> np.ndarray:
        """Fold the chain into the per-block schedule.

        The chain is evaluated one block at a time into a preallocated
        buffer by the blocked engine's chunk evaluator
        (:meth:`~repro.backends.plan.FusedPlan.chunks`), and the terminal
        scan, if any, then runs as the ordinary two-phase sweep over that
        buffer — so fused results are bit-identical to eager native
        execution, and a fused ``plus_scan(a*b + c)`` materializes one
        full-length buffer plus one block of chain intermediates.
        """
        n = plan.n
        itemsize = max(1, plan.root_dtype.itemsize)
        root = plan.evaluate(self.block)
        # the chain's block-sized intermediates
        self._fused_temp = len(plan.steps) * min(n, self.block) * itemsize
        if plan.terminal is None:
            return root
        # + the materialized scan input + the per-block partials
        self._fused_temp += (root.nbytes
                             + 2 * _nblocks(n, self.block) * itemsize)
        return getattr(self, plan.terminal)(root, *plan.terminal_args)
