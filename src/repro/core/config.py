"""COFS configuration."""

from dataclasses import dataclass, field

from repro.db.service import DbConfig


@dataclass
class CofsConfig:
    """Tunables of the COFS layer.

    The placement values mirror the paper's prototype: a hash of (node,
    virtual parent, process) picks the underlying directory, a randomization
    factor spreads files one sublevel further, and underlying directories
    are capped at 512 entries (paper §III-B).
    """

    #: cap on entries per underlying directory.
    max_entries_per_dir: int = 512
    #: number of randomization subdirectories below each hash bucket.
    rand_subdirs: int = 16
    #: hash space for (node, parent, pid) buckets.
    hash_buckets: int = 4096
    #: root of the reorganized layout on the underlying file system.
    underlying_root: str = "/.cofs"
    #: MDS dispatch CPU per request, beyond per-query DB costs.
    mds_dispatch_cpu_ms: float = 0.02
    #: request/response sizes for driver<->service messages.
    rpc_bytes: int = 512
    #: route read-only ops (``stat``/``readlink``/``readdir``) to an
    #: in-sync backup of the owning group instead of its primary.  Only
    #: meaningful on replicated tiers (``CofsStack(replicas>=2)``); the
    #: staleness bound below governs which backups qualify.
    follower_reads: bool = False
    #: maximum replication lag (journal records behind the group head) a
    #: backup may have and still serve follower reads.  With the default
    #: synchronous quorum shipping an in-sync backup's lag is 0, so the
    #: default bound admits exactly the fully caught-up followers.
    follower_staleness: int = 0
    #: asynchronous group commit for metadata updates: commit to the
    #: volatile tables immediately, ack when *dependency* rules allow,
    #: and let a per-shard batcher coalesce log forces (see
    #: :class:`repro.db.service.DbConfig.async_commit`, which this flag
    #: simply propagates into ``db``).  Off by default — synchronous
    #: forces are the durability contract all reference figures were
    #: measured with.
    async_commit: bool = False
    #: cost model of the Mnesia-like database backing the service.
    db: DbConfig = field(default_factory=DbConfig)
    #: local disk of the metadata-service node (the paper used a 25 GB
    #: ext3-formatted disk locally attached to one blade).
    mds_disk_seek_ms: float = 3.0
    mds_disk_bw: float = 50000.0  # bytes/ms ~ 50 MB/s ext3-era disk

    def __post_init__(self):
        if self.async_commit and not self.db.async_commit:
            from dataclasses import replace as dc_replace

            self.db = dc_replace(self.db, async_commit=True)

    def replace(self, **overrides):
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)
