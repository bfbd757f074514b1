"""The per-node parallel-FS client: the VFS operations.

This is where the paper's metadata behaviours live.  Key structure:

- **resolution** walks path components under per-directory read tokens with
  a bounded directory-block cache;
- **creates/unlinks** are performed *by the client* under the directory's
  exclusive token — contended creates serialize on token handoffs whose cost
  (revoke round trips, dirty-block write-back, log forces) produces the
  20→30 ms collapse of Figs. 2 and 4;
- **attribute operations** pin per-inode tokens cached in a bounded LRU
  (1024 entries): below the cap everything is node-local (Fig. 1's fast
  regime), above it each access pays token + NSD round trips, and tokens
  left dirty at a creator node make other nodes' first accesses pay
  revocation + flush (Fig. 5's expensive phase, converging once the
  creator's cache cap is exceeded);
- **token ordering** — operations take directory tokens before attribute
  tokens and never wait on a directory token while pinning an attribute
  token, which rules out revocation deadlocks.

Data operations delegate to :class:`~repro.pfs.pagecache.DataPath`.
"""

import itertools

from repro.pfs.cache import LruDict
from repro.pfs.errors import FsError
from repro.pfs.pagecache import DataPath
from repro.pfs.tokens import RO, XW
from repro.pfs.tokenclient import TokenClient
from repro.pfs.types import (
    DIRECTORY, FILE, SYMLINK, FileAttr, OpenFlags, components, split,
)
from repro.pfs.vfs import FileSystemApi
from repro.pfs.wal import ClientWal

_MAX_SYMLINK_DEPTH = 8


class _OpenFile:
    __slots__ = ("fh", "ino", "flags", "wrote")

    def __init__(self, fh, ino, flags):
        self.fh = fh
        self.ino = ino
        self.flags = flags
        self.wrote = False


class PfsClient(FileSystemApi):
    """One node's mount of the parallel file system."""

    def __init__(self, pfs, machine, uid=0, gid=0):
        self.pfs = pfs
        self.state = pfs.state
        self.config = pfs.config
        self.machine = machine
        self.sim = machine.sim
        self.uid = uid
        self.gid = gid
        self.tokens = TokenClient(machine, pfs.token_machine, pfs.config)
        machine.register("tokens", self.tokens)
        self.data = DataPath(self)
        machine.register("ranges", self.data)
        self.wal = ClientWal(machine, pfs.nsd_for_log(machine.name), pfs.config)
        self._dirblocks = LruDict(self.config.dirblock_cache_blocks)
        self._dirty_dirblocks = {}  # dir ino -> set of block ids
        self._prefix_cache = {}     # parent-path tuple -> (ino, walk steps)
        self._prefix_by_dir = {}    # dir ino -> prefix keys reading from it
        self._dentries = {}         # dir ino -> {name: (child, block, is_symlink)}
        self._attr_fetches = {}     # inode block id -> in-flight event
        self._handles = {}
        self._fh_counter = itertools.count(1)
        pfs.token_server.attach_client(machine.name, machine)
        pfs.range_server.attach_client(machine.name, machine)

    @property
    def name(self):
        return self.machine.name

    def _now(self):
        return self.sim.now

    def _op_cost(self):
        return self.machine.compute(self.config.client_op_cpu_ms)

    # ------------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------------

    def _inode(self, ino, path="?"):
        inode = self.state.inodes.get(ino)
        if inode is None:
            raise FsError.enoent(path)
        return inode

    #: bound on cached resolution prefixes; overflow clears the cache.
    _PREFIX_CACHE_MAX = 256

    def _resolve(self, path, follow=True, _depth=0):
        """Coroutine: the inode number at ``path`` (symlinks followed).

        Repeated walks of the same parent directory take the *prefix cache*
        fast path: when every directory token and directory block along the
        walked prefix is still cached (and quiescent), the per-component
        cache-hit charges collapse into one scheduled sleep of the same
        total virtual duration, with the directory tokens pinned across it.
        The cache is invalidated whenever a walked directory's entries
        change or its token is dropped, so a hit can never observe state
        the step-by-step walk would not.
        """
        if _depth > _MAX_SYMLINK_DEPTH:
            raise FsError.einval(f"too many levels of symbolic links: {path}")
        parts = components(path)
        n = len(parts)
        ino = self.state.root_ino
        start = 0
        steps = None
        prefix_key = None
        if n > 1:
            prefix_key = parts[:-1]
            hit = self._prefix_cache.get(prefix_key)
            if hit is not None:
                prepared = self._prefix_try(hit)
                if prepared is not None:
                    entries, when = prepared
                    yield from self.sim.sleep_until(when)
                    for entry in entries:
                        entry.unpin()
                    ino = hit[0]
                    start = n - 1
                else:
                    self._prefix_cache.pop(prefix_key, None)
            if start == 0:
                steps = []
        for index in range(start, n):
            name = parts[index]
            inode = self._inode(ino, path)
            if not inode.is_dir:
                raise FsError.enotdir(path)
            if steps is not None and index == n - 1:
                # The whole parent prefix resolved without symlinks:
                # remember it before the (possibly failing) leaf lookup.
                self._remember_prefix(prefix_key, ino, steps)
            child, block = yield from self._lookup_step(ino, name)
            if child is None:
                raise FsError.enoent(path)
            child_inode = self._inode(child, path)
            last = index == n - 1
            if child_inode.is_symlink and (follow or not last):
                rest = "/".join(parts[index + 1:])
                target = child_inode.symlink_target
                if not target.startswith("/"):
                    base = "/" + "/".join(parts[:index])
                    target = f"{base}/{target}"
                if rest:
                    target = f"{target}/{rest}"
                result = yield from self._resolve(
                    target, follow=follow, _depth=_depth + 1
                )
                return result
            if steps is not None and not last:
                steps.append((ino, block))
            ino = child
        return ino

    def _prefix_try(self, hit):
        """Validate and pin a cached prefix walk (plain function, no yield).

        Returns (pinned token entries, absolute wake-up time) when every
        walked directory token is still cached and quiescent and every
        walked block is still resident — or None when the cached state no
        longer applies (token lost, block evicted, CPU contended) and the
        step-by-step walk must run instead.  The wake-up time is the same
        sequence of dirblock-hit charges the steps would pay, accumulated
        with identical float rounding.
        """
        cpu = self.machine.cpu
        if len(cpu.users) >= cpu.capacity or cpu.queue:
            return None
        tokens = self.tokens
        dirblocks = self._dirblocks
        data = dirblocks._data
        entries = []
        for dir_ino, block in hit[1]:
            entry = tokens.get_covering(("dir", dir_ino), RO)
            if entry is None:
                return None
            key = (dir_ino, block)
            if key not in data:
                dirblocks.misses += 1
                return None
            dirblocks.hits += 1
            data.move_to_end(key)
            entries.append(entry)
        when = self.sim.now
        hit_ms = self._DIRBLOCK_HIT_MS
        for entry in entries:
            entry.pins += 1
            when += hit_ms
        return entries, when

    def _remember_prefix(self, prefix_key, parent_ino, steps):
        if len(self._prefix_cache) >= self._PREFIX_CACHE_MAX:
            self._prefix_cache.clear()
            self._prefix_by_dir.clear()
        self._prefix_cache[prefix_key] = (parent_ino, steps)
        by_dir = self._prefix_by_dir
        for dir_ino, _block in steps:
            bucket = by_dir.get(dir_ino)
            if bucket is None:
                bucket = by_dir[dir_ino] = set()
            bucket.add(prefix_key)

    def _invalidate_prefixes(self, dir_ino):
        """Drop cached resolution state reading entries from ``dir_ino``."""
        self._dentries.pop(dir_ino, None)
        keys = self._prefix_by_dir.pop(dir_ino, None)
        if keys:
            cache = self._prefix_cache
            for key in keys:
                cache.pop(key, None)

    def _resolve_parent(self, path, charge_op=False):
        """Coroutine: (parent_ino, leaf_name) for ``path``.

        With ``charge_op``, the per-op CPU cost is charged as part of the
        resolution (collapsing into one wake-up when fully cached).
        """
        parent_path, name = split(path)
        if not name:
            raise FsError.einval(f"path has no leaf component: {path}")
        if charge_op:
            yield from self._op_cost()
        parent_ino = yield from self._resolve(parent_path)
        parent = self._inode(parent_ino, parent_path)
        if not parent.is_dir:
            raise FsError.enotdir(parent_path)
        return parent_ino, name

    def _lookup(self, dir_ino, name):
        """Coroutine: child ino of ``name`` in ``dir_ino`` (None if absent)."""
        child, _block = yield from self._lookup_step(dir_ino, name)
        return child

    def _lookup_step(self, dir_ino, name):
        """Coroutine: (child ino or None, block id) for one walk step.

        A cached dentry skips the directory hashing and block lookup while
        performing the exact same token hold, block-cache touch and
        virtual-time charge at the exact same instants as the full step —
        so timing (and thus every simulated result) is unchanged.
        """
        dir_inode = self._inode(dir_ino)
        dmap = self._dentries.get(dir_ino)
        cached = dmap.get(name) if dmap is not None else None
        if cached is not None:
            entry = self.tokens.hold_cached(("dir", dir_ino), RO)
            if entry is not None:
                child = cached[0]
                block = cached[1]
                dirblocks = self._dirblocks
                data = dirblocks._data
                key = (dir_ino, block)
                if key in data:
                    dirblocks.hits += 1
                    data.move_to_end(key)
                    try:
                        yield from self.machine.compute(self._DIRBLOCK_HIT_MS)
                    finally:
                        entry.unpin()
                    return child, block
                dirblocks.misses += 1
                entry.unpin()
        entry = self.tokens.hold_cached(("dir", dir_ino), RO)
        if entry is None:
            entry = yield from self._hold_dir(dir_ino, RO)
        try:
            block = dir_inode.dir.block_of(name)
            yield from self._ensure_dirblock(dir_ino, block)
            child = dir_inode.dir.lookup(name)
            if child is not None:
                cinode = self.state.inodes.get(child)
                if cinode is not None:
                    dmap = self._dentries.get(dir_ino)
                    if dmap is None:
                        dmap = self._dentries[dir_ino] = {}
                    elif len(dmap) > 4096:
                        dmap.clear()
                    dmap[name] = (child, block, cinode.kind == SYMLINK)
            return child, block
        finally:
            entry.unpin()

    # ------------------------------------------------------------------------
    # directory tokens and blocks
    # ------------------------------------------------------------------------

    def _on_dir_drop(self, entry):
        """Token-drop hook for directory tokens (entry.key = ("dir", ino))."""
        self._drop_dir_state(entry.key[1])

    def _hold_dir(self, dir_ino, mode):
        entry = yield from self.tokens.hold(
            ("dir", dir_ino), mode, on_drop=self._on_dir_drop
        )
        return entry

    def _drop_dir_state(self, dir_ino):
        for key in self._dirblocks.keys():
            if key[0] == dir_ino:
                self._dirblocks.pop(key)
        self._dirty_dirblocks.pop(dir_ino, None)
        self._invalidate_prefixes(dir_ino)

    #: virtual cost of touching an already-cached directory block.
    _DIRBLOCK_HIT_MS = 0.002

    def _ensure_dirblock(self, dir_ino, block):
        if self._dirblocks.get((dir_ino, block)) is not None:
            return self.machine.compute(self._DIRBLOCK_HIT_MS)
        return self._fetch_dirblock(dir_ino, block)

    def _fetch_dirblock(self, dir_ino, block):
        """Coroutine: pull a missing directory block from its NSD."""
        nsd = self.pfs.nsd_for_dirblock(dir_ino, block)
        yield from self.machine.call(
            nsd, "nsd", "fetch_dir_block", args=(dir_ino, block),
            req_size=128, resp_size=self.config.meta_block_bytes,
        )
        self._dirblocks.put((dir_ino, block), True)

    def _touch_dirblock_dirty(self, dir_ino, block):
        self._dirblocks.put((dir_ino, block), True)
        self._dirty_dirblocks.setdefault(dir_ino, set()).add(block)

    def _dir_flush_cb(self, dir_ino):
        """Flush callback attached to a dirty directory token."""

        def flush():
            dirty = self._dirty_dirblocks.pop(dir_ino, None)
            if dirty:
                # One block is written back synchronously with the token
                # handoff; the rest ride the journal and later write-behind.
                block = sorted(dirty)[0]
                nsd = self.pfs.nsd_for_dirblock(dir_ino, block)
                yield from self.machine.call(
                    nsd, "nsd", "put_dir_block", args=(dir_ino, block),
                    req_size=self.config.meta_block_bytes, resp_size=128,
                )
            yield from self.wal.force()

        return flush

    def _mutate_dir_cost(self, dir_inode, block, splits):
        """CPU + structural costs of one directory mutation (yield from)."""
        cfg = self.config
        cost = cfg.dir_insert_cpu_ms
        depth_over = min(
            max(0, dir_inode.dir.global_depth - cfg.dir_depth_free),
            cfg.dir_depth_cap_levels,
        )
        cost += cfg.dir_depth_cost_ms * depth_over
        cost += splits * (cfg.dir_insert_cpu_ms * 2)
        return self.machine.compute(cost)

    # ------------------------------------------------------------------------
    # attribute tokens
    # ------------------------------------------------------------------------

    def _on_attr_drop(self, entry):
        """Token-drop hook for attribute tokens (entry.key = ("attr", ino))."""
        self.data.drop_ino(entry.key[1])

    def _hold_attr(self, ino, mode):
        entry = self.tokens.hold_cached(("attr", ino), mode)
        if entry is None:
            entry = yield from self.tokens.hold(
                ("attr", ino), mode, on_drop=self._on_attr_drop
            )
        if entry.payload is None:
            yield from self._fetch_attrs(ino, entry)
        return entry

    def _fetch_attrs(self, ino, entry):
        """Coroutine: load attrs for ``ino`` (fetches coalesce per block)."""
        block = self.state.inodes.block_of(ino)
        inflight = self._attr_fetches.get(block)
        if inflight is not None:
            attrs = yield inflight
        else:
            gate = self.sim.event()
            self._attr_fetches[block] = gate
            nsd = self.pfs.nsd_for_inode_block(block)
            attrs = {}
            try:
                attrs = yield from self.machine.call(
                    nsd, "nsd", "fetch_attr_block", args=(block,),
                    req_size=128, resp_size=self.config.meta_block_bytes,
                )
            finally:
                del self._attr_fetches[block]
                gate.succeed(attrs)
        got = attrs.get(ino)
        if got is None:
            inode = self.state.inodes.get(ino)
            if inode is None:
                raise FsError.enoent(f"inode {ino}")
            got = inode.attr()
        elif type(got) is tuple:
            # The reply carries field tuples; build the one FileAttr read
            # here and keep it in the shared reply, so coalesced waiters
            # on the same ino get the same object.
            got = attrs[ino] = FileAttr(*got)
        entry.payload = got

    def _attr_flush_cb(self, ino, entry):
        """Flush callback for dirty attributes: apply + log + write-back."""

        def flush():
            inode = self.state.inodes.get(ino)
            if inode is not None and entry.payload is not None:
                attr = entry.payload
                inode.mode = attr.mode
                inode.uid = attr.uid
                inode.gid = attr.gid
                inode.atime = attr.atime
                inode.mtime = attr.mtime
                inode.ctime = attr.ctime
                if inode.is_file:
                    inode.size = max(inode.size, attr.size)
            # Attribute flushes on revocation are individually synchronous
            # log forces (they do not ride the node's group-commit batching):
            # this is the serial cost that builds the revocation queue at a
            # creator node in the paper's Figs. 2 and 5.
            log_nsd = self.pfs.nsd_for_log(self.machine.name)
            yield from self.machine.call(
                log_nsd, "nsd", "log_force", args=(self.machine.name, 1),
                req_size=512, resp_size=128,
            )
            nsd = self.pfs.nsd_for_inode(ino)
            yield from self.machine.call(
                nsd, "nsd", "put_attr", args=(ino,),
                req_size=512, resp_size=128,
            )

        return flush

    # ------------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------------

    def mkdir(self, path, mode=0o755):
        parent_ino, name = yield from self._resolve_parent(path, charge_op=True)
        yield from self._create_object(parent_ino, name, DIRECTORY, mode, path)

    def create(self, path, mode=0o644):
        parent_ino, name = yield from self._resolve_parent(path, charge_op=True)
        ino = yield from self._create_object(parent_ino, name, FILE, mode, path)
        return self._new_handle(ino, OpenFlags.WRONLY | OpenFlags.CREAT)

    def symlink(self, target, path):
        parent_ino, name = yield from self._resolve_parent(path, charge_op=True)
        ino = yield from self._create_object(parent_ino, name, SYMLINK, 0o777, path)
        self.state.inodes.get(ino).symlink_target = target

    def _create_object(self, parent_ino, name, kind, mode, path):
        """Coroutine: the shared create path for files/dirs/symlinks.

        The directory token is pinned only for the insert itself; the log
        force and the new inode's token acquisition happen after the pin is
        released, so under contention they overlap the next node's token
        handoff (as GPFS allows — recovery ordering comes from the journal).
        """
        parent = self._inode(parent_ino, path)
        entry = yield from self._hold_dir(parent_ino, XW)
        try:
            block = parent.dir.block_of(name)
            yield from self._ensure_dirblock(parent_ino, block)
            if parent.dir.lookup(name) is not None:
                raise FsError.eexist(path)
            inode = self.state.inodes.allocate(
                kind, mode, self.uid, self.gid, self._now(), self.name
            )
            splits = parent.dir.insert(name, inode.ino)
            self._invalidate_prefixes(parent_ino)
            if kind == DIRECTORY:
                self.state.parents[inode.ino] = parent_ino
                parent.nlink += 1
            yield from self._mutate_dir_cost(parent, block, splits)
            self._touch_dirblock_dirty(parent_ino, parent.dir.block_of(name))
            parent.mtime = parent.ctime = self._now()
            entry.mark_dirty(self._dir_flush_cb(parent_ino))
        finally:
            entry.unpin()
        # The creator caches the new inode's attributes exclusively.  The
        # inode came from this node's allocation segment, so the token is
        # segment-delegated: no server round trip.
        drop = lambda _e, ino=inode.ino: self.data.drop_ino(ino)  # noqa: E731
        attr_entry = yield from self.tokens.grant_local(
            ("attr", inode.ino), XW, on_drop=drop
        )
        attr_entry.payload = inode.attr()
        attr_entry.mark_dirty(self._attr_flush_cb(inode.ino, attr_entry))
        attr_entry.unpin()
        yield from self.wal.force()
        return inode.ino

    def unlink(self, path):
        parent_ino, name = yield from self._resolve_parent(path, charge_op=True)
        parent = self._inode(parent_ino, path)
        entry = yield from self._hold_dir(parent_ino, XW)
        try:
            block = parent.dir.block_of(name)
            yield from self._ensure_dirblock(parent_ino, block)
            ino = parent.dir.lookup(name)
            if ino is None:
                raise FsError.enoent(path)
            victim = self._inode(ino, path)
            if victim.is_dir:
                raise FsError.eisdir(path)
            parent.dir.remove(name)
            self._invalidate_prefixes(parent_ino)
            yield from self._mutate_dir_cost(parent, block, 0)
            self._touch_dirblock_dirty(parent_ino, block)
            parent.mtime = parent.ctime = self._now()
            entry.mark_dirty(self._dir_flush_cb(parent_ino))
            victim.nlink -= 1
            victim.ctime = self._now()
            if victim.nlink <= 0:
                yield from self._destroy_inode(ino)
            yield from self.wal.force()
        finally:
            entry.unpin()

    def rmdir(self, path):
        parent_ino, name = yield from self._resolve_parent(path, charge_op=True)
        parent = self._inode(parent_ino, path)
        entry = yield from self._hold_dir(parent_ino, XW)
        try:
            block = parent.dir.block_of(name)
            yield from self._ensure_dirblock(parent_ino, block)
            ino = parent.dir.lookup(name)
            if ino is None:
                raise FsError.enoent(path)
            victim = self._inode(ino, path)
            if not victim.is_dir:
                raise FsError.enotdir(path)
            if len(victim.dir) > 0:
                raise FsError.enotempty(path)
            parent.dir.remove(name)
            self._invalidate_prefixes(parent_ino)
            self._invalidate_prefixes(ino)
            yield from self._mutate_dir_cost(parent, block, 0)
            self._touch_dirblock_dirty(parent_ino, block)
            parent.nlink -= 1
            parent.mtime = parent.ctime = self._now()
            entry.mark_dirty(self._dir_flush_cb(parent_ino))
            self.state.parents.pop(ino, None)
            yield from self._destroy_inode(ino)
            yield from self.wal.force()
        finally:
            entry.unpin()

    def _destroy_inode(self, ino):
        """Coroutine: strip tokens everywhere and free the inode."""
        yield from self.machine.call(
            self.pfs.token_machine, "tokmgr", "revoke_all",
            args=(self.name, ("attr", ino)),
            req_size=self.config.token_msg_bytes,
            resp_size=self.config.token_msg_bytes,
        )
        self.tokens.drop_local(("attr", ino))
        self.data.drop_ino(ino)
        self.pfs.range_server.forget(ino)
        self.state.inodes.free(ino)

    def rename(self, old, new):
        old_parent, old_name = yield from self._resolve_parent(old, charge_op=True)
        new_parent, new_name = yield from self._resolve_parent(new)
        # Lock directories in ino order to avoid ABBA revocation deadlocks.
        order = sorted({old_parent, new_parent})
        held = []
        try:
            for dir_ino in order:
                entry = yield from self._hold_dir(dir_ino, XW)
                held.append((dir_ino, entry))
            yield from self._rename_locked(
                old, new, old_parent, old_name, new_parent, new_name
            )
            for dir_ino, entry in held:
                entry.mark_dirty(self._dir_flush_cb(dir_ino))
            yield from self.wal.force()
        finally:
            for _ino, entry in held:
                entry.unpin()

    def _rename_locked(self, old, new, old_parent, old_name,
                       new_parent, new_name):
        src_dir = self._inode(old_parent, old)
        dst_dir = self._inode(new_parent, new)
        src_block = src_dir.dir.block_of(old_name)
        yield from self._ensure_dirblock(old_parent, src_block)
        ino = src_dir.dir.lookup(old_name)
        if ino is None:
            raise FsError.enoent(old)
        moving = self._inode(ino, old)
        dst_block = dst_dir.dir.block_of(new_name)
        yield from self._ensure_dirblock(new_parent, dst_block)
        existing = dst_dir.dir.lookup(new_name)
        if existing == ino:
            return
        if existing is not None:
            target = self._inode(existing, new)
            if target.is_dir:
                if not moving.is_dir:
                    raise FsError.eisdir(new)
                if len(target.dir) > 0:
                    raise FsError.enotempty(new)
                dst_dir.dir.remove(new_name)
                self._invalidate_prefixes(new_parent)
                self._invalidate_prefixes(existing)
                dst_dir.nlink -= 1
                self.state.parents.pop(existing, None)
                yield from self._destroy_inode(existing)
            else:
                if moving.is_dir:
                    raise FsError.enotdir(new)
                dst_dir.dir.remove(new_name)
                self._invalidate_prefixes(new_parent)
                target.nlink -= 1
                if target.nlink <= 0:
                    yield from self._destroy_inode(existing)
        src_dir.dir.remove(old_name)
        splits = dst_dir.dir.insert(new_name, ino)
        self._invalidate_prefixes(old_parent)
        self._invalidate_prefixes(new_parent)
        yield from self._mutate_dir_cost(dst_dir, dst_block, splits)
        self._touch_dirblock_dirty(old_parent, src_block)
        self._touch_dirblock_dirty(new_parent, dst_dir.dir.block_of(new_name))
        if moving.is_dir and old_parent != new_parent:
            src_dir.nlink -= 1
            dst_dir.nlink += 1
            self.state.parents[ino] = new_parent
        now = self._now()
        src_dir.mtime = src_dir.ctime = now
        dst_dir.mtime = dst_dir.ctime = now
        moving.ctime = now

    def link(self, src, dst):
        yield from self._op_cost()
        src_ino = yield from self._resolve(src, follow=False)
        source = self._inode(src_ino, src)
        if source.is_dir:
            raise FsError.eisdir(src)
        dst_parent, dst_name = yield from self._resolve_parent(dst)
        parent = self._inode(dst_parent, dst)
        entry = yield from self._hold_dir(dst_parent, XW)
        try:
            block = parent.dir.block_of(dst_name)
            yield from self._ensure_dirblock(dst_parent, block)
            if parent.dir.lookup(dst_name) is not None:
                raise FsError.eexist(dst)
            attr_entry = yield from self._hold_attr(src_ino, XW)
            try:
                splits = parent.dir.insert(dst_name, src_ino)
                self._invalidate_prefixes(dst_parent)
                yield from self._mutate_dir_cost(parent, block, splits)
                self._touch_dirblock_dirty(
                    dst_parent, parent.dir.block_of(dst_name)
                )
                source.nlink += 1
                source.ctime = self._now()
                # In-place update, as in _truncate_ino: keep unflushed
                # attribute changes riding the cached payload.
                attr = attr_entry.payload
                attr.nlink = source.nlink
                attr.ctime = source.ctime
                attr_entry.mark_dirty(self._attr_flush_cb(src_ino, attr_entry))
                parent.mtime = parent.ctime = self._now()
                entry.mark_dirty(self._dir_flush_cb(dst_parent))
            finally:
                attr_entry.unpin()
            yield from self.wal.force()
        finally:
            entry.unpin()

    # ------------------------------------------------------------------------
    # attribute operations
    # ------------------------------------------------------------------------

    def stat(self, path):
        yield from self._op_cost()
        ino = yield from self._resolve(path)
        entry = yield from self._hold_attr(ino, RO)
        try:
            attr = entry.payload
            # Link counts and directory sizes are maintained under the
            # *directory* tokens (they change with namespace operations, and
            # their updates are journaled with them), so refresh them from
            # the authoritative inode rather than the attribute snapshot.
            inode = self.state.inodes.get(ino)
            if inode is not None:
                attr.nlink = inode.nlink
                if inode.is_dir:
                    attr.size = len(inode.dir)
                elif inode.is_file:
                    # Sizes are maintained with shared-write semantics:
                    # concurrent writers each grow their local view and the
                    # metanode merges to the maximum (GPFS does the same).
                    attr.size = max(attr.size, inode.size)
            return attr
        finally:
            entry.unpin()

    def utime(self, path, atime=None, mtime=None):
        yield from self._op_cost()
        ino = yield from self._resolve(path)
        entry = yield from self._hold_attr(ino, XW)
        try:
            now = self._now()
            attr = entry.payload
            attr.atime = now if atime is None else atime
            attr.mtime = now if mtime is None else mtime
            attr.ctime = now
            entry.mark_dirty(self._attr_flush_cb(ino, entry))
        finally:
            entry.unpin()

    def chmod(self, path, mode):
        yield from self._op_cost()
        ino = yield from self._resolve(path)
        entry = yield from self._hold_attr(ino, XW)
        try:
            entry.payload.mode = mode
            entry.payload.ctime = self._now()
            entry.mark_dirty(self._attr_flush_cb(ino, entry))
        finally:
            entry.unpin()

    def chown(self, path, uid, gid):
        yield from self._op_cost()
        ino = yield from self._resolve(path)
        entry = yield from self._hold_attr(ino, XW)
        try:
            entry.payload.uid = uid
            entry.payload.gid = gid
            entry.payload.ctime = self._now()
            entry.mark_dirty(self._attr_flush_cb(ino, entry))
        finally:
            entry.unpin()

    def statfs(self):
        """Aggregate statistics, served by the token-manager node."""
        yield from self._op_cost()
        yield from self.machine.network.transfer(
            self.machine.host, self.pfs.token_machine.host, 256)
        yield from self.machine.network.transfer(
            self.pfs.token_machine.host, self.machine.host, 256)
        inodes = self.state.inodes
        total_bytes = sum(
            inode.size for inode in inodes._inodes.values() if inode.is_file
        )
        return {
            "files": len(inodes),
            "bytes_used": total_bytes,
            "clients": len(self.pfs.clients),
            "servers": len(self.pfs.nsds),
        }

    def readlink(self, path):
        yield from self._op_cost()
        ino = yield from self._resolve(path, follow=False)
        inode = self._inode(ino, path)
        if not inode.is_symlink:
            raise FsError.einval(f"not a symlink: {path}")
        return inode.symlink_target

    def readdir(self, path):
        yield from self._op_cost()
        ino = yield from self._resolve(path)
        inode = self._inode(ino, path)
        if not inode.is_dir:
            raise FsError.enotdir(path)
        entry = yield from self._hold_dir(ino, RO)
        try:
            names = []
            for block in inode.dir.blocks():
                yield from self._ensure_dirblock(ino, block.block_id)
                names.extend(block.entries.keys())
            yield from self.machine.compute(0.0005 * len(names))
            return sorted(names)
        finally:
            entry.unpin()

    # ------------------------------------------------------------------------
    # open files and data
    # ------------------------------------------------------------------------

    def _new_handle(self, ino, flags):
        fh = next(self._fh_counter)
        self._handles[fh] = _OpenFile(fh, ino, flags)
        return fh

    def _handle(self, fh):
        handle = self._handles.get(fh)
        if handle is None:
            raise FsError.ebadf(fh)
        return handle

    def open(self, path, flags=0):
        parent_ino, name = yield from self._resolve_parent(path, charge_op=True)
        child = yield from self._lookup(parent_ino, name)
        if child is None:
            if not flags & OpenFlags.CREAT:
                raise FsError.enoent(path)
            ino = yield from self._create_object(parent_ino, name, FILE,
                                                 0o644, path)
            return self._new_handle(ino, flags)
        if flags & OpenFlags.CREAT and flags & OpenFlags.EXCL:
            raise FsError.eexist(path)
        ino = yield from self._resolve(path)  # follow symlinks to the file
        inode = self._inode(ino, path)
        if inode.is_dir and OpenFlags.wants_write(flags):
            raise FsError.eisdir(path)
        entry = yield from self._hold_attr(ino, RO)
        entry.unpin()
        if flags & OpenFlags.TRUNC and inode.is_file:
            yield from self._truncate_ino(ino, 0)
        return self._new_handle(ino, flags)

    def close(self, fh):
        handle = self._handle(fh)
        yield from self._op_cost()
        if handle.wrote and self.config.fsync_on_close:
            yield from self.data.fsync(handle.ino)
        del self._handles[fh]

    def read(self, fh, offset, size, want_data=False):
        handle = self._handle(fh)
        inode = self._inode(handle.ino)
        if not inode.is_file:
            raise FsError.eisdir(f"fh {fh}")
        yield from self.data.read(handle.ino, offset, size)
        if want_data:
            return inode.data.read(offset, size)
        return max(0, min(inode.size - offset, size))

    def write(self, fh, offset, size=None, data=None):
        handle = self._handle(fh)
        if not OpenFlags.wants_write(handle.flags):
            raise FsError.einval(f"fh {fh} not open for writing")
        inode = self._inode(handle.ino)
        if not inode.is_file:
            raise FsError.eisdir(f"fh {fh}")
        written = inode.data.write(offset, length=size, data=data)
        yield from self.data.write(handle.ino, offset, written)
        handle.wrote = True
        now = self._now()
        inode.size = max(inode.size, offset + written)
        inode.mtime = inode.ctime = now
        cached = self.tokens.cached(("attr", handle.ino))
        if cached is not None and cached.payload is not None:
            cached.payload.size = inode.size
            cached.payload.mtime = now
            cached.payload.ctime = now
        return written

    def fsync(self, fh):
        handle = self._handle(fh)
        yield from self.data.fsync(handle.ino)

    def truncate(self, path, size):
        yield from self._op_cost()
        ino = yield from self._resolve(path)
        inode = self._inode(ino, path)
        if inode.is_dir:
            raise FsError.eisdir(path)
        yield from self._truncate_ino(ino, size)

    def _truncate_ino(self, ino, size):
        inode = self._inode(ino)
        yield from self.data.ensure_range(ino, 0, 1 << 62, XW)
        entry = yield from self._hold_attr(ino, XW)
        try:
            inode.data.truncate(size)
            inode.size = size
            now = self._now()
            inode.mtime = inode.ctime = now
            # Update the cached attributes in place: replacing the payload
            # with a fresh inode snapshot would clobber still-unflushed
            # attribute changes (e.g. a preceding chmod's mode).
            attr = entry.payload
            attr.size = size
            attr.mtime = attr.ctime = now
            entry.mark_dirty(self._attr_flush_cb(ino, entry))
        finally:
            entry.unpin()
