"""The cluster's fault ledger: every failure, retry, and degradation.

The distributed backend's promise is not "workers never fail" but "every
failure is accounted for and the result is still right".  The
:class:`ClusterLedger` is the accounting half of that promise, in the
mold of :class:`repro.machine.counters.FaultCounters`: a
:class:`~repro.observe.metrics.Ledger` of integer counters (each also
published as ``cluster.<field>``) with a :meth:`reconciles` invariant
that ties them together — every classified failure must end in exactly
one retry or one degraded shard, so ``failures == retries +
degraded_shards`` always holds after a job completes.  Chaos tests
assert these counts exactly; the ``cluster`` CLI prints the snapshot as
its ledger table.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..observe.metrics import Ledger

__all__ = ["ClusterLedger"]


@dataclass
class ClusterLedger(Ledger):
    """Counters for one :class:`~repro.cluster.pool.WorkerPool`'s lifetime."""

    prefix = "cluster"

    # traffic
    ops: int = 0                  #: primitive executions routed to the backend
    ops_distributed: int = 0      #: ops actually sharded across workers
    ops_local: int = 0            #: ops computed in-process (below threshold or pool broken)
    shards: int = 0               #: shard dispatches, both phases, including retries

    # chaos injections (what the plan did)
    chaos_kills: int = 0
    chaos_hangs: int = 0
    chaos_corruptions: int = 0

    # failure classification (what the supervisor saw)
    timeouts: int = 0             #: shard replies past the op deadline
    crashes: int = 0              #: dead worker / broken pipe / error reply
    corrupt_replies: int = 0      #: checksum mismatches

    # recovery actions (what the supervisor did)
    retries: int = 0              #: shard re-dispatches after a failure
    spawns: int = 0               #: worker processes started, respawns included
    respawns: int = 0             #: worker processes restarted
    degraded_shards: int = 0      #: shards computed host-side after retry exhaustion
    orphaned_shards: int = 0      #: shards moved host-side because no worker was live
    heartbeat_failures: int = 0   #: liveness pings that went unanswered
    dead_workers: int = 0         #: slots retired after repeated failures
    pool_degradations: int = 0    #: times the whole pool was declared broken

    @property
    def failures(self) -> int:
        """Total classified shard failures."""
        return self.timeouts + self.crashes + self.corrupt_replies

    def reconciles(self) -> bool:
        """The supervision invariant: every failure was answered by
        exactly one retry or one host-side degradation."""
        return self.failures == self.retries + self.degraded_shards
