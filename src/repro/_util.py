"""Small shared helpers used across the package."""
from __future__ import annotations

import numpy as np

__all__ = ["ceil_log2", "ceil_div", "as_int_array", "as_bool_array",
           "indices_distinct"]


def ceil_log2(n: int) -> int:
    """``ceil(log2(n))`` for positive integers, with ``ceil_log2(1) == 0``.

    This is the tree depth used throughout the paper's cost analysis: an
    ``n``-leaf balanced binary tree has ``ceil_log2(n)`` levels of edges.
    """
    if n < 1:
        raise ValueError(f"ceil_log2 requires n >= 1, got {n}")
    return int(n - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division ``ceil(a / b)`` for non-negative ``a``, positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    return -(-a // b)


def indices_distinct(idx: np.ndarray, length: int) -> bool:
    """Whether the integer indices ``idx``, all already checked to lie in
    ``[0, length)``, are pairwise distinct.

    Marks every target in a ``length``-cell table and counts the marked
    cells: O(n + length) work, against the hash or sort of
    ``np.unique``.  This is the exclusive-write check behind ``permute``
    (an O(1)-step, linear-work primitive in the paper's Section 2.1).
    """
    seen = np.zeros(length, dtype=bool)
    seen[idx] = True
    return int(np.count_nonzero(seen)) == len(idx)


def as_int_array(data) -> np.ndarray:
    """Coerce ``data`` to a 1-D ``int64`` array, rejecting higher dimensions."""
    arr = np.asarray(data)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.int64)
    return arr.astype(np.int64, copy=False)


def as_bool_array(data) -> np.ndarray:
    """Coerce ``data`` to a 1-D boolean array."""
    arr = np.asarray(data)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D flag vector, got shape {arr.shape}")
    return arr.astype(bool, copy=False)
