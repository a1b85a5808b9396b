"""Sparse matrix–vector multiply by segmented sums.

The canonical segmented-scan application from the scan-vector line of
work: store a sparse matrix with one segment per row (the nonzeros of
that row), and ``y = A @ x`` becomes

1. gather ``x[col]`` into every nonzero slot (one exclusive gather when
   each column index appears once; a charged concurrent read otherwise —
   on EREW/scan machines the duplicates are served by a sort-and-copy
   simulation costing an extra ``lg n`` on that single step);
2. multiply elementwise;
3. one segmented ``+-distribute`` and a pack of the segment heads.

O(1) program steps per multiply on the scan model regardless of the
sparsity pattern — the irregularity that breaks dense-array parallelism
is exactly what segments absorb.  Rows with no nonzeros are handled by
tracking the nonempty-row ids (the representation cannot hold an empty
segment).
"""
from __future__ import annotations

import numpy as np

from .._util import ceil_log2, indices_distinct
from ..core import ops, segmented
from ..core.vector import Vector
from ..machine.model import Machine

__all__ = ["SparseMatrix"]


class SparseMatrix:
    """A CSR-like sparse matrix over a machine, rows as segments."""

    def __init__(self, machine: Machine, dense=None, *, shape=None,
                 rows=None, cols=None, vals=None) -> None:
        """Build from a dense array, or from COO triples (``rows``,
        ``cols``, ``vals``) plus ``shape``."""
        self.machine = machine
        if dense is not None:
            d = np.asarray(dense, dtype=np.float64)
            if d.ndim != 2:
                raise ValueError("dense matrix must be 2-D")
            rows, cols = np.nonzero(d)
            vals = d[rows, cols]
            shape = d.shape
        else:
            if shape is None:
                raise ValueError("shape is required with COO input")
            rows = np.asarray(rows, dtype=np.int64)
            cols = np.asarray(cols, dtype=np.int64)
            vals = np.asarray(vals, dtype=np.float64)
            if not (len(rows) == len(cols) == len(vals)):
                raise ValueError("rows/cols/vals length mismatch")
        self.shape = (int(shape[0]), int(shape[1]))
        if len(rows) and (rows.min() < 0 or rows.max() >= self.shape[0]
                          or cols.min() < 0 or cols.max() >= self.shape[1]):
            raise ValueError("index out of range")

        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        self.nnz = len(vals)
        self.row_of_slot = rows
        self.col = Vector(machine, cols) if self.nnz else machine.vector([])
        self.val = Vector(machine, vals) if self.nnz else \
            machine.vector([], dtype=np.float64)
        sf = np.zeros(self.nnz, dtype=bool)
        if self.nnz:
            sf[0] = True
            sf[1:] = rows[1:] != rows[:-1]
        self.seg_flags = Vector(machine, sf)
        self.nonempty_rows = np.unique(rows)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_of_slot, self.col.data] = self.val.data
        return out

    def matvec(self, x) -> Vector:
        """``A @ x`` in O(1) scan-model program steps."""
        m = self.machine
        xv = x if isinstance(x, Vector) else m.vector(
            np.asarray(x, dtype=np.float64), dtype=np.float64)
        if len(xv) != self.shape[1]:
            raise ValueError(
                f"length mismatch: {self.shape[1]} columns vs {len(xv)}")
        out = np.zeros(self.shape[0])
        if self.nnz == 0:
            return Vector(m, out)

        # 1. x values at the nonzero slots.  Duplicate column indices make
        # this a concurrent read; EREW-family machines simulate it with a
        # sort-and-segmented-copy, charged as lg n extra on this one step.
        idx = self.col.data
        if indices_distinct(idx, self.shape[1]):
            xs = xv.gather(self.col)
        else:
            if m.capabilities.concurrent_read:
                m.charge_gather(max(self.nnz, self.shape[1]), unique=False)
            else:
                for _ in range(2 * ceil_log2(max(self.nnz, 2))):
                    m.charge_elementwise(self.nnz)
            xs = Vector(m, xv.data[idx])

        # 2. multiply, 3. per-row sums
        prod = self.val * xs
        sums = segmented.seg_plus_distribute(prod, self.seg_flags)
        heads = ops.pack(sums, self.seg_flags)
        m.charge_block("permute", self.shape[0])
        out[self.nonempty_rows] = heads.data
        return Vector(m, out)

    def row_sums(self) -> Vector:
        """Per-row sums of the stored values (one distribute + pack)."""
        m = self.machine
        out = np.zeros(self.shape[0])
        if self.nnz:
            sums = segmented.seg_plus_distribute(self.val, self.seg_flags)
            heads = ops.pack(sums, self.seg_flags)
            m.charge_block("permute", self.shape[0])
            out[self.nonempty_rows] = heads.data
        return Vector(m, out)

    def scale_rows(self, factors) -> "SparseMatrix":
        """Multiply each row by a factor: distribute the factors over the
        segments (O(1) steps) and rebuild."""
        m = self.machine
        f = np.asarray(factors, dtype=np.float64)
        if len(f) != self.shape[0]:
            raise ValueError("need one factor per row")
        if self.nnz == 0:
            return self
        fv = Vector(m, f[self.nonempty_rows])
        heads_idx = Vector(m, np.flatnonzero(self.seg_flags.data).astype(np.int64))
        at_heads = fv.permute(heads_idx, length=self.nnz)
        spread = segmented.seg_copy(at_heads, self.seg_flags)
        new_vals = self.val * spread
        return SparseMatrix(m, shape=self.shape, rows=self.row_of_slot,
                            cols=self.col.data, vals=new_vals.data)
