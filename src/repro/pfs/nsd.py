"""NSD (network shared disk) servers.

The paper's testbed has two Intel storage servers on 1 Gb links.  Each NSD
server here owns a metadata disk, a data disk and a log-disk region, plus
small buffer caches for inode blocks and directory blocks.  Clients read and
write filesystem structures *through* these servers (shared-disk
architecture): the authoritative structures live in shared memory objects,
and the NSD charges the time a real disk/server would take — including the
buffer-cache thrashing that makes large-directory stats disk-bound (the
convergence plateau of Fig. 5).
"""

from repro.cluster.disk import Disk, GroupCommitLog
from repro.pfs.cache import LruDict


class NsdServer:
    """One storage server: disks, caches and their RPC service."""

    def __init__(self, machine, state, config):
        self.machine = machine
        self.sim = machine.sim
        self.state = state
        self.config = config
        self.meta_disk = Disk(
            self.sim, f"{machine.name}:meta",
            seek_ms=config.meta_disk_seek_ms, bandwidth=config.meta_disk_bw,
        )
        self.data_disk = Disk(
            self.sim, f"{machine.name}:data",
            seek_ms=config.data_disk_seek_ms, bandwidth=config.data_disk_bw,
        )
        self.log_disk = Disk(
            self.sim, f"{machine.name}:log",
            seek_ms=0.0, bandwidth=config.meta_disk_bw,
        )
        machine.add_disk("meta", self.meta_disk)
        machine.add_disk("data", self.data_disk)
        machine.add_disk("log", self.log_disk)
        self._inode_cache = LruDict(config.nsd_inode_cache_blocks)
        self._dirblock_cache = LruDict(config.nsd_dirblock_cache_blocks)
        self._client_logs = {}

    # -- write-ahead logs -------------------------------------------------------

    def client_log(self, client_name):
        """The (server-side) group-commit log of one client node."""
        log = self._client_logs.get(client_name)
        if log is None:
            log = GroupCommitLog(
                self.sim, self.log_disk,
                force_ms=self.config.log_force_ms,
                per_member_ms=self.config.log_per_member_ms,
                group_max=self.config.log_group_max,
            )
            self._client_logs[client_name] = log
        return log

    def log_force(self, client_name, records=1):
        """RPC handler: force ``client_name``'s log (group-committed)."""
        yield from self.client_log(client_name).force()
        return True

    # -- inode attribute blocks ----------------------------------------------------

    def fetch_attr_block(self, block_id):
        """RPC handler: all live attrs packed in inode block ``block_id``.

        A cache miss reads the block from the metadata disk.  The reply
        maps each live ino to its attribute fields as a plain tuple,
        snapshotted when the handler runs (see
        :meth:`repro.pfs.inode.InodeTable.attr_snapshot`).
        """
        yield from self.machine.compute(self.config.nsd_cpu_ms)
        if self._inode_cache.get(block_id) is None:
            yield from self.meta_disk.read(self.config.meta_block_bytes)
            self._inode_cache.put(block_id, True)
        return self.state.inodes.attr_snapshot(block_id)

    def put_attr(self, ino):
        """RPC handler: attribute write-back for ``ino``.

        The inode block is written through to the metadata disk — in the
        shared-disk design the requester of a stolen token reads the inode
        from storage, so the holder's flush must reach it.  The server keeps
        the fresh block cached.
        """
        yield from self.machine.compute(self.config.nsd_cpu_ms / 2)
        yield from self.meta_disk.write(self.config.meta_block_bytes)
        self._inode_cache.put(self.state.inodes.block_of(ino), True)
        return True

    # -- directory blocks -------------------------------------------------------------

    def fetch_dir_block(self, dir_ino, block_id):
        """RPC handler: charge for reading one directory block."""
        yield from self.machine.compute(self.config.nsd_cpu_ms)
        key = (dir_ino, block_id)
        if self._dirblock_cache.get(key) is None:
            yield from self.meta_disk.read(self.config.meta_block_bytes)
            self._dirblock_cache.put(key, True)
        return True

    def put_dir_block(self, dir_ino, block_id):
        """RPC handler: write back one dirty directory block."""
        yield from self.machine.compute(self.config.nsd_cpu_ms / 2)
        yield from self.meta_disk.write(self.config.meta_block_bytes)
        self._dirblock_cache.put((dir_ino, block_id), True)
        return True

    def invalidate_dir(self, dir_ino):
        """Drop cached blocks of a destroyed directory (local bookkeeping)."""
        for key in self._dirblock_cache.keys():
            if key[0] == dir_ino:
                self._dirblock_cache.pop(key)

    # -- data chunks ------------------------------------------------------------------

    def read_chunk(self, ino, chunk_index, size):
        """RPC handler: read a data chunk from the data disk."""
        yield from self.machine.compute(self.config.nsd_cpu_ms / 2)
        yield from self.data_disk.read(size)
        return size

    def write_chunk(self, ino, chunk_index, size):
        """RPC handler: write a data chunk to the data disk."""
        yield from self.machine.compute(self.config.nsd_cpu_ms / 2)
        yield from self.data_disk.write(size, sequential=True)
        return size
