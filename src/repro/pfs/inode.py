"""Inodes and the shared on-disk inode table.

Inodes are packed several to a disk block (``pack`` inodes per block): the
block is the disk-I/O and server-cache granule, which is how "unrelated files
in the same directory share management-information granules" in the paper's
problem statement.  Attribute *tokens* are per-inode; *fetches* are per-block
at the server, and the client-side fetch coalescer
(:mod:`repro.pfs.client`) merges concurrent fetches for the same block.
"""

from repro.pfs.bytemap import ByteMap
from repro.pfs.directory import ExtendibleDir
from repro.pfs.types import DIRECTORY, FILE, SYMLINK, FileAttr


class Inode:
    """The authoritative (shared-disk) state of one file system object."""

    __slots__ = (
        "ino", "kind", "mode", "uid", "gid", "size", "nlink",
        "atime", "mtime", "ctime", "data", "dir", "symlink_target",
        "creator",
    )

    def __init__(self, ino, kind, mode, uid, gid, now, creator,
                 dir_block_capacity=64):
        self.ino = ino
        self.kind = kind
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.size = 0
        self.nlink = 2 if kind == DIRECTORY else 1
        self.atime = now
        self.mtime = now
        self.ctime = now
        self.creator = creator
        self.data = ByteMap() if kind == FILE else None
        self.dir = ExtendibleDir(dir_block_capacity) if kind == DIRECTORY else None
        self.symlink_target = None

    @property
    def is_dir(self):
        return self.kind == DIRECTORY

    @property
    def is_file(self):
        return self.kind == FILE

    @property
    def is_symlink(self):
        return self.kind == SYMLINK

    def attr(self):
        """A stat snapshot of this inode."""
        return FileAttr(*self.attr_fields())

    def attr_fields(self):
        """The :class:`FileAttr` fields of a stat snapshot, as a tuple."""
        kind = self.kind
        size = len(self.dir) if kind == DIRECTORY else self.size
        return (self.ino, kind, self.mode, self.uid, self.gid,
                size, self.nlink, self.atime, self.mtime, self.ctime)


class InodeTable:
    """Allocator and registry for inodes, with block packing.

    Inode numbers are handed out from per-creator *allocation segments*
    (GPFS's inode allocation map segments): each creating node draws from
    its own contiguous range, so parallel creates never contend on inode
    allocation, and a node's fresh inodes pack into its own inode blocks.
    """

    SEGMENT = 1 << 14  # inos per allocation segment

    def __init__(self, pack=32, dir_block_capacity=64):
        self.pack = pack
        self.dir_block_capacity = dir_block_capacity
        self._inodes = {}
        self._segments = {}     # creator -> iterator over its current segment
        self._segment_owner = {}  # segment id -> creator
        self._next_segment = 0

    def __len__(self):
        return len(self._inodes)

    def __contains__(self, ino):
        return ino in self._inodes

    def segment_of(self, ino):
        """The allocation segment id an inode number belongs to."""
        return ino // self.SEGMENT

    def segment_owner(self, segment_id):
        """The node the segment was assigned to (None if unassigned)."""
        return self._segment_owner.get(segment_id)

    def _fresh_ino(self, creator):
        cursor = self._segments.get(creator)
        if cursor is None or cursor[0] >= cursor[1]:
            seg = self._next_segment
            self._next_segment += 1
            self._segment_owner[seg] = creator
            base = seg * self.SEGMENT
            cursor = [base + 1 if base == 0 else base, base + self.SEGMENT]
            self._segments[creator] = cursor
        ino = cursor[0]
        cursor[0] += 1
        return ino

    def allocate(self, kind, mode, uid, gid, now, creator):
        """Create a fresh inode (from the creator's segment) and return it."""
        ino = self._fresh_ino(creator)
        inode = Inode(
            ino, kind, mode, uid, gid, now, creator,
            dir_block_capacity=self.dir_block_capacity,
        )
        self._inodes[ino] = inode
        return inode

    def get(self, ino):
        """The inode for ``ino`` or None if freed/never allocated."""
        return self._inodes.get(ino)

    def free(self, ino):
        """Drop an inode (callers ensure nlink reached zero)."""
        self._inodes.pop(ino, None)

    def block_of(self, ino):
        """The inode-block id (fetch/cache granule) holding ``ino``."""
        return ino // self.pack

    def attr_snapshot(self, block_id):
        """``{ino: attr fields}`` of every live inode in ``block_id``.

        Plain tuples (see :meth:`Inode.attr_fields`), taken now: the reader
        builds the :class:`FileAttr` of the one inode it wants.
        """
        lo = block_id * self.pack
        get = self._inodes.get
        snapshot = {}
        for ino in range(lo, lo + self.pack):
            inode = get(ino)
            if inode is not None:
                snapshot[ino] = inode.attr_fields()
        return snapshot
