"""Tree contraction: parallel expression-tree evaluation (Table 5).

Rake-and-compress contraction of a rooted binary expression tree whose
internal nodes apply ``+`` or ``*`` and whose leaves hold constants:

* **rake** — a leaf whose sibling is also a leaf collapses its parent to a
  constant; a leaf whose sibling is internal turns its parent into a *unary*
  node carrying the affine function ``x -> a·x + b`` (affine maps are closed
  under composition for ``{+, *}`` expressions, the standard trick);
* **compress** — every unary node whose child is unary composes with it
  (one synchronous pointer-jumping step, halving every unary chain).

Both happen each round on every eligible node, the finished nodes are
packed away (load balancing, Section 2.5), and the tree contracts to its
root in O(lg n) rounds.  Each round costs O(⌈active/p⌉) program steps under
the long-vector cost model, so total work is O(n) with ``p = n / lg n``
processors — the Table 5 processor-step reduction.

Arithmetic is carried modulo a prime (default ``2^31 - 1``) so coefficient
growth cannot overflow; pass ``modulus=None`` for exact evaluation of small
trees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.model import Machine

__all__ = ["ExpressionTree", "tree_contract", "DEFAULT_MODULUS"]

DEFAULT_MODULUS = (1 << 31) - 1

_LEAF, _BINARY, _UNARY = 0, 1, 2
OP_ADD, OP_MUL = 0, 1


@dataclass
class ExpressionTree:
    """A rooted binary expression tree in array form.

    ``left``/``right`` are child indices (``-1`` on leaves), ``op`` is
    ``OP_ADD`` or ``OP_MUL`` on internal nodes, ``value`` holds leaf
    constants.  ``root`` is the root index.
    """

    left: np.ndarray
    right: np.ndarray
    op: np.ndarray
    value: np.ndarray
    root: int

    @property
    def n(self) -> int:
        return len(self.left)

    def eval_serial(self, modulus: int | None = DEFAULT_MODULUS) -> int:
        """Reference bottom-up evaluation (host-side, iterative)."""
        order = []
        stack = [self.root]
        seen = np.zeros(self.n, dtype=bool)
        while stack:
            v = stack.pop()
            order.append(v)
            if self.left[v] >= 0:
                stack.append(self.left[v])
                stack.append(self.right[v])
        val = {}
        for v in reversed(order):
            if self.left[v] < 0:
                val[v] = int(self.value[v])
            else:
                a, b = val[self.left[v]], val[self.right[v]]
                val[v] = a + b if self.op[v] == OP_ADD else a * b
            if modulus:
                val[v] %= modulus
        return val[self.root]

    @staticmethod
    def random(rng: np.random.Generator, n_leaves: int, *, max_value: int = 1000,
               skew: float = 0.5) -> "ExpressionTree":
        """A random binary tree with ``n_leaves`` leaves; ``skew`` near 1
        produces vine-like (deep) trees, near 0 balanced ones."""
        n = 2 * n_leaves - 1
        left = np.full(n, -1, dtype=np.int64)
        right = np.full(n, -1, dtype=np.int64)
        op = rng.integers(0, 2, size=n).astype(np.int64)
        value = rng.integers(0, max_value, size=n).astype(np.int64)
        # grow by splitting a random current leaf into an internal node
        next_id = 1
        leaves = [0]
        while next_id < n:
            pick = -1 if rng.random() < skew else rng.integers(0, len(leaves))
            v = leaves.pop(pick)
            left[v], right[v] = next_id, next_id + 1
            leaves.extend((next_id, next_id + 1))
            next_id += 2
        return ExpressionTree(left=left, right=right, op=op, value=value, root=0)


def tree_contract(machine: Machine, tree: ExpressionTree,
                  *, modulus: int | None = DEFAULT_MODULUS,
                  max_rounds: int | None = None) -> tuple[int, int]:
    """Evaluate ``tree`` by rake-and-compress.  Returns ``(value, rounds)``."""
    n = tree.n
    mod = modulus or 0
    left = tree.left.copy()
    right = tree.right.copy()
    kind = np.where(left < 0, _LEAF, _BINARY).astype(np.int8)
    value = tree.value.astype(np.int64).copy()
    if mod:
        value %= mod
    # unary nodes carry f(x) = a*x + b and a single child pointer
    fa = np.ones(n, dtype=np.int64)
    fb = np.zeros(n, dtype=np.int64)
    child = np.full(n, -1, dtype=np.int64)
    op = tree.op
    parent = np.full(n, -1, dtype=np.int64)
    internal = left >= 0
    parent[left[internal]] = np.flatnonzero(internal)
    parent[right[internal]] = np.flatnonzero(internal)
    alive = np.ones(n, dtype=bool)

    if max_rounds is None:
        max_rounds = 8 * (int(n).bit_length() + 2) + 16
    rounds = 0

    def _mul(a, b):
        return (a * b) % mod if mod else a * b

    def _add(a, b):
        return (a + b) % mod if mod else a + b

    while kind[tree.root] != _LEAF:
        if rounds >= max_rounds:
            raise RuntimeError(f"tree contraction exceeded {max_rounds} rounds")
        rounds += 1
        active = int(alive.sum())
        # each phase below is a constant number of parallel primitives over
        # the live nodes (reads go child->parent or parent->single-child,
        # both exclusive)
        for _ in range(6):
            machine.charge_elementwise(active)
        machine.charge_block("gather", active)
        machine.charge_block("gather", active)

        k = kind.copy()
        # --- rake ----------------------------------------------------- #
        binary = k == _BINARY
        lk = np.where(binary, k[np.clip(left, 0, n - 1)], -1)
        rk = np.where(binary, k[np.clip(right, 0, n - 1)], -1)
        both = binary & (lk == _LEAF) & (rk == _LEAF)
        if both.any():
            li, ri = left[both], right[both]
            res = np.where(op[both] == OP_ADD,
                           _add(value[li], value[ri]),
                           _mul(value[li], value[ri]))
            value[both] = res
            kind[both] = _LEAF
            alive[li] = alive[ri] = False
        one_leaf = binary & ((lk == _LEAF) ^ (rk == _LEAF))
        if one_leaf.any():
            leaf_is_left = one_leaf & (lk == _LEAF)
            leaf_is_right = one_leaf & (rk == _LEAF)
            for mask, leaf_side, other_side in (
                (leaf_is_left, left, right),
                (leaf_is_right, right, left),
            ):
                if not mask.any():
                    continue
                li = leaf_side[mask]
                c = value[li]
                is_add = op[mask] == OP_ADD
                fa[mask] = np.where(is_add, 1, c)
                fb[mask] = np.where(is_add, c, 0)
                child[mask] = other_side[mask]
                kind[mask] = _UNARY
                alive[li] = False
        # --- compress / apply ------------------------------------------ #
        k = kind.copy()
        unary = k == _UNARY
        ck = np.where(unary, k[np.clip(child, 0, n - 1)], -1)
        # unary over leaf: finish
        fin = unary & (ck == _LEAF)
        if fin.any():
            ci = child[fin]
            value[fin] = _add(_mul(fa[fin], value[ci]), fb[fin])
            kind[fin] = _LEAF
            alive[ci] = False
        # unary over unary: compose and jump (synchronous snapshot)
        jump = unary & (ck == _UNARY)
        if jump.any():
            ci = child[jump]
            fa2, fb2, c2 = fa[ci].copy(), fb[ci].copy(), child[ci].copy()
            fb[jump] = _add(_mul(fa[jump], fb2), fb[jump])
            fa[jump] = _mul(fa[jump], fa2)
            child[jump] = c2
            alive[ci] = False  # composed away once its parent absorbs it
        # the composed-away child may itself still be someone's child; keep
        # any node that is still referenced
        referenced = np.zeros(n, dtype=bool)
        live_u = kind == _UNARY
        referenced[child[live_u]] = True
        live_b = kind == _BINARY
        referenced[left[live_b]] = True
        referenced[right[live_b]] = True
        referenced[tree.root] = True
        alive = referenced
        # load balance the survivors (a pack)
        machine.charge_block("permute", active)

    return int(value[tree.root]), rounds
