"""The sharded metadata service: one shard of the partitioned tier.

Composes the layered subsystems of :mod:`repro.core.shard` into the
concrete service class (formerly the single ``ShardMetadataService`` of
the old ``repro/core/sharding.py`` monolith):

- :class:`~repro.core.shard.routing.ShardRoutingPart` — shard arithmetic,
  peer RPCs, forwards, read handlers;
- :class:`~repro.core.shard.replication.ShardReplicationPart` — skeleton
  replication and mirror broadcasts;
- :class:`~repro.core.shard.coordination.ShardCoordinationPart` —
  intent/prepare/dedup records, cross-shard rename/link, migration;
- :class:`~repro.core.shard.rebalance.ShardRebalancePart` — online
  load-aware re-partitioning;
- :class:`~repro.core.shard.recovery.ShardRecoveryPart` — crash recovery
  and the tier-wide repair passes;

with :class:`~repro.core.metaservice.MetadataService` at the root of the
MRO supplying the transaction bodies every layer builds on.
"""

import itertools

from repro.core.metaservice import MetadataService
from repro.core.shard.coordination import ShardCoordinationPart
from repro.core.shard.rebalance import ShardRebalancePart
from repro.core.shard.recovery import ShardRecoveryPart
from repro.core.shard.replication import ShardReplicationPart
from repro.core.shard.routing import ShardRoutingPart


class ShardMetadataService(
    ShardRoutingPart,
    ShardReplicationPart,
    ShardCoordinationPart,
    ShardRebalancePart,
    ShardRecoveryPart,
    MetadataService,
):
    """One shard of the partitioned metadata tier.

    Extends :class:`MetadataService` with a shard identity, the replicated
    directory/symlink skeleton, forwarded resolves, the cross-shard
    rename/link protocols and online re-partitioning described in the
    package docstring.  Registered as ``cofsmds`` on its own machine, so
    shard-to-shard coordination uses the exact same simulated RPC path as
    client traffic.
    """

    def __init__(self, machine, config, shard_id, shard_machines, sharding,
                 policy=None, streams=None):
        self.shard_id = shard_id
        self.n_shards = len(shard_machines)
        self.shard_machines = shard_machines
        self.sharding = sharding
        self._local_only = False
        self._parent_walk = False
        #: rewritten path of the last local symlink retarget (scoped to
        #: one synchronous walk; see routing's ownership guard / readdir).
        self._walk_target = None
        #: suppresses the parent-walk ownership re-check for handlers
        #: that legitimately walk another shard's skeleton replica
        #: (replicated-rename bodies and their replays).
        self._skip_owner_guard = False
        #: optional :class:`repro.core.faults.CrashSchedule`; when set,
        #: every peer RPC send/receive becomes a crash boundary.
        self.faults = None
        #: allocator for intent-record ids (reseated on recovery).
        self._intent_seq = itertools.count(1)
        #: recovery epoch of this shard (mirrors the durable ``epochs``
        #: row for ``shard_id``; bumped atomically at the start of every
        #: recovery).  Coordinated operations capture it when they start
        #: and stamp it onto every record and peer RPC they issue.
        self.epoch = 0
        #: in-memory fence map, coordinator shard -> minimum live epoch
        #: (mirrors the durable ``epochs`` rows).  Records and RPCs from
        #: a coordinator with a smaller epoch are provably dead and are
        #: refused (:class:`~repro.core.shard.routing.EpochFenced`).
        self.fences = {shard_id: 0}
        #: ids of coordinator intents whose operation is still running on
        #: this shard (pure bookkeeping — models "is there a live process
        #: driving this transaction?", which recovery's completion pass
        #: asks before reclaiming a record it cannot fence by epoch).
        self._live_tids = set()
        #: admission gate: an Event while the local rebuild is in flight
        #: (incoming requests wait on it), None while serving.
        self._admission = None
        #: dead-member flag (set by the kill/partition fault hooks in
        #: :mod:`repro.core.faults`): a down member refuses every new
        #: dispatch with :class:`~repro.core.shard.routing.MemberDown`.
        #: In-flight handlers keep running — exactly the zombie window
        #: epoch fencing exists for.
        self.down = False
        #: the :class:`~repro.core.shard.replication.ReplicatedShard`
        #: group this service belongs to (None on unreplicated tiers).
        self.group = None
        super().__init__(machine, config, policy=policy, streams=streams)
        # Metrics and force spans from this node key on the shard id, not
        # the machine name.
        self.dbsvc.obs_shard = shard_id
        # The durable epoch row exists from birth (no simulated cost: it
        # rides the same bootstrap transaction path as the root inode and
        # is marked durable before the first client request).
        self.db.transaction(
            lambda txn: txn.insert(
                "epochs", {"shard": shard_id, "epoch": 0}))
        self.dbsvc.journal.mark_durable()
        # Vino allocation: stride-N classes keep shards collision-free while
        # every shard bootstraps the same replicated root as vino 1.
        start = self.shard_id + 1
        if self.shard_id == 0:
            start += self.n_shards  # vino 1 is the root, already allocated
        self._vino = itertools.count(start, self.n_shards)

    def _placement_stream(self):
        """Placement randomization: an independent stream per shard."""
        return f"cofs.placement.s{self.shard_id}"
