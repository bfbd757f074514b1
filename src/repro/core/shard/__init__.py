"""Sharded metadata tier: the COFS namespace over N metadata servers.

The paper's metadata service is a single node; the moment client counts
grow, it becomes the next bottleneck after the one it removed.  This
package partitions the virtual namespace across N
:class:`~repro.core.metaservice.MetadataService` shards, following the
HopsFS school of hierarchical-metadata partitioning, as layered
subsystems (one module per concern — the old single-module layout maps
onto them as noted in :mod:`repro.core.sharding`):

- :mod:`repro.core.shard.routing` — the partition function
  (:class:`ShardingPolicy`: hash-by-parent-directory or static subtrees,
  plus the re-homing override map), the client-side :class:`ShardRouter`
  with its load counters, and the forward machinery
  (:class:`ResolveForward` / :class:`VinoForward`) with the service-side
  resolution hooks and read handlers.
- :mod:`repro.core.shard.replication` — the replicated directory/symlink
  skeleton: mutation handlers that pair a local transaction with a
  redoable mirror broadcast, and the broadcast primitive (per-peer RPCs
  overlapped via ``sim.all_of``).  Also the primary/backup shard
  groups (:class:`ReplicatedShard`): synchronous journal log shipping
  with quorum acknowledgement, epoch-fenced failover, snapshot rejoin,
  and bounded-staleness follower reads, with :class:`GroupTargets`
  keeping cross-shard coordination addressed to groups, never nodes.
- :mod:`repro.core.shard.coordination` — 2-phase prepare/commit:
  intent/prepare/dedup records, cross-shard rename and hard link, and the
  crash-safe copy → import → purge population migration.
- :mod:`repro.core.shard.rebalance` — online load-aware re-partitioning:
  the re-homing protocol, override durability, and the
  :class:`Rebalancer` that samples router load and migrates hot
  directories.
- :mod:`repro.core.shard.recovery` — recovery of one shard or the whole
  tier: epoch bump + tier fence (recovery is safe against a *live* tier:
  stale coordinators are refused via :class:`EpochFenced`, live intents
  are spared), fenced intent completion, override restore, skeleton
  resync, placement reconciliation, allocator reseating
  (:func:`recover_tier`).
- :mod:`repro.core.shard.service` — :class:`ShardMetadataService`, the
  composition of the above over the base service.

A 1-shard configuration never constructs this service; the stack keeps the
plain :class:`~repro.core.metaservice.MetadataService` + a pass-through
router, so every seed figure doubles as a regression test for the routing
layer.
"""

from repro.core.shard.rebalance import Rebalancer, ShardRebalancePart
from repro.core.shard.recovery import ShardRecoveryPart, recover_tier
from repro.core.shard.replication import (
    GroupTargets,
    ReplicatedShard,
    ShardReplicationPart,
)
from repro.core.shard.routing import (
    EpochFenced,
    HashDirSharding,
    MemberDown,
    ResolveForward,
    ShardingPolicy,
    ShardRouter,
    ShardRoutingPart,
    SubtreeSharding,
    VinoForward,
)
from repro.core.shard.coordination import ShardCoordinationPart
from repro.core.shard.service import ShardMetadataService

__all__ = [
    "EpochFenced",
    "GroupTargets",
    "HashDirSharding",
    "MemberDown",
    "Rebalancer",
    "ReplicatedShard",
    "ResolveForward",
    "ShardCoordinationPart",
    "ShardingPolicy",
    "ShardMetadataService",
    "ShardRebalancePart",
    "ShardRecoveryPart",
    "ShardReplicationPart",
    "ShardRouter",
    "ShardRoutingPart",
    "SubtreeSharding",
    "VinoForward",
    "recover_tier",
]
