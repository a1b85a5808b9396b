"""The distributed backend: sharded multi-process scans with supervision.

:class:`DistributedBackend` turns the blocked backend's chunk loop inside
out: instead of one process sweeping chunks serially, a
:class:`~repro.cluster.pool.WorkerPool` of OS processes each owns one
contiguous shard in shared memory, the four scans (``plus_scan``,
``max_scan`` and the segmented sum/extreme scans) run shard-locally in
parallel, and per-shard carries meet in a round-efficient exclusive
exchange.  Everything else — ``reduce``, elementwise ops, permutations,
the small-vector cases below ``min_distribute`` — runs in-process as
:class:`NumPyBackend` does (the blocked engine's one-chunk steps, with the
same carry monoids the workers run).  Shipping a 100-element vector
through shared memory buys nothing but latency, and a ``reduce`` would
copy n elements in only to get one scalar back, so float sums also keep
numpy's bits.

The supervision story (see :mod:`repro.cluster.pool` and
``docs/distributed.md``): worker failures are classified, retried with
backoff, and after budget exhaustion the shard — or, once every slot is
retired, the whole backend — **degrades to in-process compute with the
identical kernels**.  Fault handling can change latency and ledger
counts, never results or step charges; step charges never reach a backend
at all (:mod:`repro.machine` charges host-side), which is what lets the
conformance fuzzer demand bit-identical charges from a backend whose
workers are being killed mid-op.

Pools are processes, so they are shared per worker count
(:func:`repro.cluster.pool.shared_pool`) and acquired lazily — building a
``Machine(backend="distributed")`` costs nothing until the first
distribution-worthy op.  A backend constructed with an explicit ``policy``
or ``chaos`` plan gets a private pool instead, so chaos tests cannot
contaminate the shared one.

Spec syntax: ``distributed[:<workers>[:<min_n>]]`` — e.g. ``distributed``
(4 workers), ``distributed:8``, ``distributed:2:1`` (two workers,
distribute even single-element vectors; the conformance-fuzzer
configuration, since its corpus is deliberately tiny).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.chaos import ChaosPlan
from ..cluster.ledger import ClusterLedger
from ..cluster.pool import RetryPolicy, WorkerPool, shared_pool
from .numpy_backend import NumPyBackend

__all__ = ["DistributedBackend", "DEFAULT_WORKERS", "DEFAULT_MIN_DISTRIBUTE"]

#: default pool width (modest: every worker is a real OS process)
DEFAULT_WORKERS = 4

#: below this length, shared-memory setup dwarfs the scan — stay local
DEFAULT_MIN_DISTRIBUTE = 65536


class DistributedBackend(NumPyBackend):
    """Sharded multi-process execution with fault-tolerant supervision."""

    name = "distributed"
    spec_syntax = "distributed[:<workers>[:<min_n>]]"

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 min_distribute: int = DEFAULT_MIN_DISTRIBUTE,
                 policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosPlan] = None) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if min_distribute < 1:
            raise ValueError(
                f"min_distribute must be >= 1, got {min_distribute}")
        self.workers = int(workers)
        self.min_distribute = int(min_distribute)
        self._policy = policy
        self._chaos = chaos
        # explicit policy/chaos → a private pool this backend owns;
        # otherwise the process-wide shared pool for this worker count
        self._pool: Optional[WorkerPool] = None
        self._private = policy is not None or chaos is not None
        #: local scans run before a pool existed to count them; handed
        #: to the pool's ledger when it first resolves
        self._local_before_pool = 0

    @classmethod
    def from_spec(cls, arg: str) -> "DistributedBackend":
        if not arg:
            return cls()
        parts = arg.split(":")
        if len(parts) > 2:
            raise ValueError(
                f"backend 'distributed' takes at most two arguments "
                f"({cls.spec_syntax}), got {arg!r}")
        try:
            workers = int(parts[0])
            min_n = int(parts[1]) if len(parts) == 2 else DEFAULT_MIN_DISTRIBUTE
        except ValueError:
            raise ValueError(
                f"backend 'distributed' arguments must be integers "
                f"({cls.spec_syntax}), got {arg!r}") from None
        try:
            return cls(workers=workers, min_distribute=min_n)
        except ValueError as exc:
            # constructor range errors, re-anchored to the spec string
            raise ValueError(
                f"backend 'distributed' spec {arg!r} is invalid: {exc} "
                f"({cls.spec_syntax})") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DistributedBackend(workers={self.workers}, "
                f"min_distribute={self.min_distribute})")

    # --------------------------- pool access --------------------------- #

    @property
    def pool(self) -> WorkerPool:
        """The worker pool, spawned on first use."""
        if self._pool is None or self._pool.closed:
            if self._private:
                self._pool = WorkerPool(self.workers, policy=self._policy,
                                        chaos=self._chaos)
            else:
                self._pool = shared_pool(self.workers)
            if self._local_before_pool:
                self._pool.ledger.bump("ops", self._local_before_pool)
                self._pool.ledger.bump("ops_local", self._local_before_pool)
                self._local_before_pool = 0
        return self._pool

    @property
    def ledger(self) -> ClusterLedger:
        """The pool's fault ledger (spawns the pool if needed)."""
        return self.pool.ledger

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """A sharded scan's host storage is the result copy alone:
        operands and output live in the pool's shared-memory arena, which
        persists across ops (at most 2x the latest op's bytes per role)
        and so is no per-op temporary.  An estimate for observability;
        nothing is charged for it."""
        if op in ("plus_scan", "max_scan", "seg_plus_scan",
                  "seg_extreme_scan"):
            return out_bytes
        return super().temp_bytes(op, out_bytes)

    def _distribute(self, n: int) -> bool:
        """Whether a length-``n`` scan should go to the pool; counts
        the local-fallback ledger lines when the answer is no."""
        if n < self.min_distribute or n == 0:
            worth = False
        else:
            worth = self.pool.available  # spawns the pool on first need
        if not worth:
            if self._pool is None:
                self._local_before_pool += 1
            else:
                self._pool.ledger.bump("ops")
                self._pool.ledger.bump("ops_local")
        return worth

    # ---------------------- distributed primitives --------------------- #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        if self._distribute(len(values)):
            return self.pool.run_scan("plus_scan", values)
        return super().plus_scan(values)

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        if self._distribute(len(values)):
            return self.pool.run_scan("max_scan", values, identity=identity)
        return super().max_scan(values, identity)

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if self._distribute(len(values)):
            return self.pool.run_scan("seg_plus", values, flags=seg_flags)
        return super().seg_plus_scan(values, seg_flags)

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        if self._distribute(len(values)):
            return self.pool.run_scan("seg_extreme", values, flags=seg_flags,
                                      identity=identity, is_max=is_max)
        return super().seg_extreme_scan(values, seg_flags, identity,
                                        is_max=is_max)

    # --------------------------- lifecycle ----------------------------- #

    def shutdown(self) -> None:
        """Stop a private pool (shared pools are owned by the registry)."""
        if self._pool is not None and self._private:
            self._pool.shutdown()
