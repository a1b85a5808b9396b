"""Sharded multi-process execution with supervision and fault recovery.

The paper's long-vector simulation (Figure 10) maps ``n`` logical
processors onto ``p`` physical ones; this package makes the mapping real
by sharding the scans of long vectors across OS worker processes.  The layers, bottom up:

* :mod:`~repro.cluster.shardops` — the shard slicer and checksums,
  shared by workers and the supervisor, and the ``+``-scan names the
  layer benchmark times (the shard kernels are
  :mod:`repro.backends.carry`'s);
* :mod:`~repro.cluster.exchange` — the Träff-style round-efficient
  exclusive carry exchange (⌈lg p⌉ combining rounds);
* :mod:`~repro.cluster.worker` — the child-process command loop
  (compute over the pool's shared-memory arena, checksum, reply);
* :mod:`~repro.cluster.chaos` — deterministic scripted failures
  (kill/hang/corrupt) so every recovery path is testable;
* :mod:`~repro.cluster.ledger` — the fault ledger with its reconciliation
  invariant ``failures == retries + degraded_shards``;
* :mod:`~repro.cluster.pool` — the :class:`WorkerPool` supervisor:
  health checks, failure classification, the :class:`RetryPolicy` ladder,
  and graceful degradation to host-side compute.

:class:`repro.backends.DistributedBackend` sits on top and is the only
consumer most code ever needs; see ``docs/distributed.md``.
"""
from .chaos import ChaosAction, ChaosPlan, ChaosState
from .exchange import exchange_rounds, exclusive_exchange
from .ledger import ClusterLedger
from .pool import (RetryPolicy, WorkerPool, set_shared_chaos, shared_pool,
                   shutdown_all_pools)

__all__ = [
    "ChaosAction",
    "ChaosPlan",
    "ChaosState",
    "ClusterLedger",
    "RetryPolicy",
    "WorkerPool",
    "exchange_rounds",
    "exclusive_exchange",
    "set_shared_chaos",
    "shared_pool",
    "shutdown_all_pools",
]
