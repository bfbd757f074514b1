"""Replication: skeleton mirrors, and the primary/backup shard groups.

Two distinct replication mechanisms live here:

1. **Skeleton mirrors** (PR 2): the directory/symlink skeleton is
   replicated across *shards* so any shard can walk any path.  The
   mutation handlers pair a local transaction with a redoable mirror
   broadcast (create_node, unlink, rmdir, setattr); the ``mirror_*`` RPCs
   replay those mutations on a peer.

2. **Primary/backup groups** (this PR): each logical shard is a
   :class:`ReplicatedShard` group — one primary plus backups on their own
   machines, connected by *synchronous journal log shipping*.  After
   every locally durable update transaction the primary ships its redo
   journal's unacknowledged suffix to each live backup
   (:meth:`ReplicatedShard._ship`, driven from the
   ``DbService.replicator`` hook), and the client is acknowledged only
   once a **quorum** (majority of the live membership) holds the change
   durably.  Backups apply the suffix atomically with a durable
   applied-LSN pointer (:meth:`ShardReplicationPart.repl_apply`), so a
   shipped record is never applied twice and a gap is never silently
   skipped.  On primary failure a *fenced failover*
   (:meth:`ReplicatedShard.failover`) promotes the most caught-up live
   backup: the candidate bumps the group's durable recovery epoch — PR
   5's fencing token — and installs it tier-wide and on its fellow
   members before serving, so a zombie ex-primary's stamps (and its
   journal ships) are refused everywhere; its locally committed but
   never-quorum-acked suffix is discarded by the snapshot resync when it
   rejoins (:meth:`ReplicatedShard.rejoin`).  Cross-shard coordination
   is untouched: record ids and RPC targets name *groups* (shard ids),
   never nodes — :class:`GroupTargets` re-resolves every peer RPC to the
   group's current primary.  In-sync backups additionally serve
   bounded-staleness follower reads (see
   :meth:`~repro.core.shard.routing.ShardRouter._read_driver`).

Mirror broadcasts overlap their per-peer RPCs
(:meth:`~repro.core.shard.routing.ShardRoutingPart._fan_out`): the
coordinator answers only after *every* mirror applied, and pays the max,
not the sum, of the peer round trips.  The per-op intent records
journaled with the local change make the redo safe however many mirrors
landed, in any order, before a crash (proven per boundary by the 3- and
4-shard scenarios in ``tests/core/test_crash_points.py``).
"""

from repro import obs
from repro.core.shard.routing import EpochFenced, MemberDown, ResolveForward
from repro.pfs.errors import FsError
from repro.pfs.types import DIRECTORY, FILE, SYMLINK, normalize, split


class ShardReplicationPart:
    """Mixin: replicated mutations + mirror replays.

    Composed into :class:`repro.core.shard.service.ShardMetadataService`;
    ``super()`` calls resolve to the base
    :class:`~repro.core.metaservice.MetadataService` transaction bodies.
    """

    def _local_body(self, fn):
        """Wrap a txn body so resolution never forwards (mirror replays)."""
        def wrapped(txn):
            self._local_only = True
            try:
                return fn(txn)
            finally:
                self._local_only = False
        return wrapped

    # -- the broadcast primitive -------------------------------------------

    def _broadcast(self, method, *args, stamp=None):
        """Coroutine: apply a mirror op on every other shard.

        Results keep shard order.  ``stamp`` is the issuing operation's
        ``(coordinator, epoch)``; without one the broadcast carries the
        live epoch (recovery redo, which is always current).  The stamp
        is appended as each mirror RPC's last argument — it is
        deliberately *not* part of the recorded intent args, so a redo
        replays under the recovering coordinator's fresh epoch.
        """
        if stamp is None:
            stamp = self._stamp()
        results = yield from self._fan_out(method, *args, stamp)
        return results

    def _txn_mirror_intent(self, txn, mirror, args, epoch=None):
        """Journal a redoable mirror broadcast with the local change."""
        return self._txn_intent(
            txn, self.epoch if epoch is None else epoch, {
                "id": self._new_tid(), "role": "coord", "op": "mirror",
                "mirror": mirror, "args": list(args),
            })

    # -- namespace mutation with replication -------------------------------

    def setattr(self, path, changes, now, _hops=0):
        self._check_hops(_hops, path)
        yield from self._dispatch()
        epoch = self.epoch
        self._check_setattr(changes)
        tids = []
        inner = self._setattr_body(path, changes, now)

        def body(txn):
            row = inner(txn)
            if row["kind"] == DIRECTORY:
                # Keep every replica of the skeleton coherent (stat reads
                # the contents-owner replica; see getattr); the intent
                # makes the broadcast crash-redoable.
                tids.append(self._txn_mirror_intent(
                    txn, "mirror_setattr", [path, changes, now], epoch))
            return row

        def on_forward(fwd):
            view = yield from self._redispatch(
                fwd, "setattr", fwd.path, changes, now, _hops + 1)
            return view

        def on_vino(fwd):
            view = yield from self._peer(
                fwd.shard, "setattr_vino", fwd.vino, changes, now)
            return view

        def tail(box):
            # Committed locally (and shipped); fenced or killed in the
            # broadcast tail: the completion pass redoes the mirrors
            # from the journaled intent.
            box[0] = self._attr_view(box[0])
            if tids:
                yield from self._broadcast(
                    "mirror_setattr", path, changes, now,
                    stamp=self._stamp(epoch))
                yield from self.intent_forget(tids[0])

        return (yield from self._coordinated(
            tids, body=body, tail=tail, swallow=(EpochFenced, MemberDown),
            on_forward=on_forward, on_vino=on_vino))

    def create_node(self, path, kind, mode, uid, gid, node, pid, now,
                    target=None, _hops=0):
        self._check_hops(_hops, path)
        if kind == FILE:
            # Files are single-shard: the base transaction, no intent.
            try:
                view = yield from super().create_node(
                    path, kind, mode, uid, gid, node, pid, now, target)
            except ResolveForward as fwd:
                # The serving shard runs its own owner-clock bump.
                view = yield from self._redispatch(
                    fwd, "create_node", fwd.path, kind, mode, uid, gid,
                    node, pid, now, target, _hops + 1)
                return view
            self._bump_split_dir_times(path, now)
            return view
        yield from self._dispatch()
        epoch = self.epoch
        tids = []
        inner = self._create_body(
            path, kind, mode, uid, gid, node, pid, now, target)

        def body(txn):
            row = inner(txn)
            tids.append(self._txn_mirror_intent(
                txn, "mirror_create", [path, self._attr_view(row), now],
                epoch))
            return row

        def on_forward(fwd):
            view = yield from self._redispatch(
                fwd, "create_node", fwd.path, kind, mode, uid, gid, node,
                pid, now, target, _hops + 1)
            return view

        def tail(box):
            # Committed locally (and shipped); fenced or killed in the
            # broadcast tail: the completion pass redoes the mirrors
            # from the journaled intent.
            box[0] = self._attr_view(box[0])
            yield from self._broadcast(
                "mirror_create", path, box[0], now, stamp=self._stamp(epoch))
            yield from self.intent_forget(tids[0])

        return (yield from self._coordinated(
            tids, body=body, tail=tail, swallow=(EpochFenced, MemberDown),
            on_forward=on_forward))

    def unlink(self, path, now, _hops=0):
        self._check_hops(_hops, path)
        yield from self._dispatch()
        epoch = self.epoch
        tids = []
        forwarded = []
        inner = self._unlink_body(path, now)

        def body(txn):
            outcome = inner(txn)
            if outcome[0] == "#stub":
                # The remote link-count drop must survive a crash here.
                tids.append(self._txn_intent(txn, epoch, {
                    "id": self._new_tid(), "role": "coord",
                    "op": "unlink_stub", "vino": outcome[1],
                    "home": outcome[2], "now": now,
                }))
            elif outcome[0] == SYMLINK and outcome[1][1]:
                tids.append(self._txn_mirror_intent(
                    txn, "mirror_unlink", [path, now], epoch))
            return outcome

        def on_forward(fwd):
            # The serving shard runs its own owner-clock bump.
            forwarded.append(True)
            result = yield from self._redispatch(
                fwd, "unlink", fwd.path, now, _hops + 1)
            return result

        def tail(box):
            # Fenced (or killed) past the local commit: recovery's redo
            # performs the remote drop / replica removal, and the box
            # holds what had landed by then.  A stub unlink cannot
            # report the remote (upath, last) outcome any more; the
            # client skips its underlying cleanup and the scrubber
            # reclaims the object.
            outcome = box[0]
            if outcome[0] == "#stub":  # inode adjusted at its home shard
                box[0] = (None, False)
                _marker, vino, home = outcome
                tid = tids[0]
                dedup = self._dedup_id(tid, vino)
                result = yield from self._peer(
                    home, "unlink_vino", vino, now, dedup,
                    self._stamp(epoch))
                yield from self.intent_forget(tid)
                yield from self._peer(home, "intent_forget", dedup)
                box[0] = result
                return
            kind, (upath, last) = outcome
            box[0] = (upath, last)
            if kind == SYMLINK and last:
                yield from self._broadcast(
                    "mirror_unlink", path, now, stamp=self._stamp(epoch))
                yield from self.intent_forget(tids[0])

        result = yield from self._coordinated(
            tids, body=body, tail=tail, swallow=(EpochFenced, MemberDown),
            on_forward=on_forward)
        if not forwarded:
            self._bump_split_dir_times(path, now)
        return result

    def rmdir(self, path, now, _hops=0):
        self._check_hops(_hops, path)
        # The directory's file population lives on its entries owner —
        # or, when it is split, across every partition shard; each
        # remote holder must report empty (this shard's own entries are
        # checked by the transaction body below).
        for owner in self.sharding.entry_shards(
                normalize(path), self.n_shards):
            if owner == self.shard_id:
                continue
            entries = yield from self._peer(owner, "count_children_of", path)
            if entries:
                raise FsError.enotempty(path)
        yield from self._dispatch()
        epoch = self.epoch
        tids = []
        norm = normalize(path)
        inner = self._rmdir_body(path, now)

        forgotten = []

        def body(txn):
            result = inner(txn)
            # A re-homing override — and a partition row — dies with its
            # directory: dropping the durable rows atomically with the
            # rmdir (and on every peer via mirror_rmdir) closes the
            # "override outlives its directory" stickiness — a recreated
            # directory routes by the static rule again, unsplit.
            if self._drop_override_body(norm, now)(txn):
                forgotten.append("override")
            if self._drop_partitions_body(norm, now)(txn):
                forgotten.append("partitions")
            tids.append(self._txn_mirror_intent(
                txn, "mirror_rmdir", [path, now], epoch))
            return result

        def on_forward(fwd):
            result = yield from self._redispatch(
                fwd, "rmdir", fwd.path, now, _hops + 1)
            return result

        def tail(box):
            # Committed locally (and shipped); fenced or killed in the
            # broadcast tail: the completion pass redoes the mirrors
            # from the journaled intent.
            if "override" in forgotten:
                self.sharding.overrides.pop(norm, None)
            if "partitions" in forgotten:
                self.sharding.partitions.pop(norm, None)
            yield from self._broadcast(
                "mirror_rmdir", path, now, stamp=self._stamp(epoch))
            yield from self.intent_forget(tids[0])

        return (yield from self._coordinated(
            tids, body=body, tail=tail, swallow=(EpochFenced, MemberDown),
            on_forward=on_forward))

    # -- mirror (replication) RPCs -----------------------------------------

    def mirror_setattr(self, path, changes, now, stamp=None):
        """RPC (shard-to-shard): replicate a directory/symlink setattr."""
        yield from self._dispatch()
        self._check_setattr(changes)

        def body(txn):
            self._check_stamp(stamp)
            try:
                row = dict(self._txn_resolve(txn, path))
            except FsError:
                return False
            row.update(changes)
            row["ctime"] = now
            txn.write("inodes", row)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def mirror_create(self, path, view, now, stamp=None):
        """RPC (shard-to-shard): replicate a directory/symlink create."""
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            parent, name = self._txn_resolve_parent(txn, path)
            if txn.read("dentries", (parent["vino"], name)) is not None:
                return False
            row = {
                "vino": view["vino"], "kind": view["kind"],
                "mode": view["mode"], "uid": view["uid"], "gid": view["gid"],
                "nlink": view["nlink"], "size": view["size"],
                "atime": view["atime"], "mtime": view["mtime"],
                "ctime": view["ctime"], "target": view["target"],
                "upath": view["upath"], "delegated": False,
            }
            txn.insert("inodes", row)
            self._invalidate_resolve(parent["vino"])
            txn.insert("dentries", {
                "key": (parent["vino"], name), "parent": parent["vino"],
                "name": name, "vino": view["vino"],
            })
            up = dict(parent)
            up["mtime"] = up["ctime"] = now
            if view["kind"] == DIRECTORY:
                up["nlink"] += 1
            txn.write("inodes", up)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def mirror_unlink(self, path, now, stamp=None):
        """RPC (shard-to-shard): replicate a symlink removal."""
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            try:
                parent, name = self._txn_resolve_parent(txn, path)
            except FsError:
                return False
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                return False
            self._invalidate_resolve(parent["vino"])
            txn.delete("dentries", (parent["vino"], name))
            row = txn.read("inodes", dentry["vino"])
            if row is not None:
                txn.delete("inodes", row["vino"])
            up = dict(parent)
            up["mtime"] = up["ctime"] = now
            txn.write("inodes", up)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def mirror_rmdir(self, path, now, stamp=None):
        """RPC (shard-to-shard): replicate a directory removal.

        Guard against the coordinator's check-then-act window: if entries
        appeared here since the emptiness checks, refuse to delete so no
        file becomes unreachable (the skeleton diverges until the retried
        rmdir; full cross-shard atomicity is a ROADMAP open item).

        Any re-homing override row for the path is dropped in the same
        transaction — on *every* path through the replay, including the
        refusal: the coordinator's commit is the authoritative removal
        of the directory, its own row is already gone, and a refusing
        shard keeping the row would diverge the override tables (and a
        later ``restore_overrides`` union would resurrect the forgotten
        override tier-wide).  The forget-on-rmdir thereby rides the
        existing redoable broadcast instead of needing its own intent.
        """
        yield from self._dispatch()
        norm = normalize(path)
        forgotten = []

        def body(txn):
            self._check_stamp(stamp)
            # Same newest-wins discipline as mirror_override: a redo
            # replaying this rmdir late must not drop an override (or a
            # partition row) a recreated directory acquired since.
            if self._drop_override_body(norm, now)(txn):
                forgotten.append("override")
            if self._drop_partitions_body(norm, now)(txn):
                forgotten.append("partitions")
            try:
                parent, name = self._txn_resolve_parent(txn, path)
            except FsError:
                return False
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                return False  # already replayed here
            if txn.index_read("dentries", "parent", dentry["vino"]):
                return False  # refused: the directory survives here
            self._invalidate_resolve(parent["vino"])
            self._invalidate_resolve(dentry["vino"])
            txn.delete("dentries", (parent["vino"], name))
            txn.delete("inodes", dentry["vino"])
            up = dict(parent)
            up["nlink"] -= 1
            up["mtime"] = up["ctime"] = now
            txn.write("inodes", up)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        if "override" in forgotten:
            self.sharding.overrides.pop(norm, None)
        if "partitions" in forgotten:
            self.sharding.partitions.pop(norm, None)
        return result

    def mirror_rename_stage(self, old, new, seq, vino, stamp=None):
        """RPC (shard-to-shard): stage a rename's new-name alias (phase 1).

        Idempotent and newest-seq-wins: a replica whose retire high-water
        mark already passed ``seq`` refuses the stale stage — a redo
        replaying behind a later rename of the same directory must not
        resurrect a dead alias.  Once staged, both the old and the new
        name resolve here until the flip's retire lands.
        """
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            row = txn.read("inodes", vino)
            if row is None or row.get("rseq", 0) >= seq:
                return False
            try:
                return self._txn_stage_alias(
                    txn, normalize(old), new, seq, vino)
            except FsError:
                return False

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def mirror_rename_unstage(self, new, seq, vino, stamp=None):
        """RPC (shard-to-shard): drop a staged alias (flip abort path).

        Seq-guarded like the stage: only the alias this flip staged
        (same vino, ``staged <= seq``) is dropped, so an abort replay
        racing a newer rename of the same directory never strips the
        newer flip's alias.
        """
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            return self._txn_gc_alias(txn, new, seq, vino)

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    # -- split-directory owner clock ---------------------------------------

    def _bump_split_dir_times(self, path, now):
        """Route a split directory's own time bump to its owner's clock.

        A split directory's file creates/unlinks commit on the partition
        shard owning the *entry*, which bumps only that replica's copy of
        the directory inode — invisible to stat, which reads the
        directory's owner.  Forwarding the bump to the owner (applied
        last-writer-wins, in the owner's arrival order) makes the
        owner's clock the one totally-ordered history for the directory's
        mtime/ctime instead of a per-partition merge.

        Plain python end to end: advisory timestamps get no simulated
        events (charge-preserving, like the shared partition map — see
        :meth:`bump_dir_times`), so the common unsplit/served-here path
        and the forwarded path alike cost nothing modeled.
        """
        parent, _name = split(path)
        if normalize(parent) not in self.sharding.partitions:
            return False
        owner = self._dir_owner(parent)
        if owner == self.shard_id:
            return False
        peer = self.shard_machines[owner].services.get("cofsmds")
        if peer is None:
            return False  # advisory times; the op itself committed
        return peer.bump_dir_times(parent, now)

    # -- primary/backup group RPCs -----------------------------------------

    def _member_call(self, member, method, *args, req_size=None):
        """Coroutine: an intra-group RPC to a *specific* member.

        Unlike :meth:`~repro.core.shard.routing.ShardRoutingPart._peer`
        this does not resolve through the group's current primary — log
        shipping, fence installs and snapshot pushes target an exact
        node.  Under fault injection the send/receive become crash
        boundaries labelled with the member's slot (``m<i>``), so the
        crash-point harness enumerates "primary dies before/after the
        ship" and "backup dies mid-catch-up" exactly like peer RPCs.
        """
        call = self.machine.call(
            member.machine, "cofsmds", method, args=args,
            req_size=self.config.rpc_bytes if req_size is None else req_size,
            resp_size=self.config.rpc_bytes,
        )
        slot = f"m{getattr(member, 'member_index', '?')}"
        if self.faults is not None:
            call = self._peer_traced(call, slot, method)
        if obs.TRACER is None:
            return call
        return self._peer_span(call, "member_rpc", slot, method)

    def repl_apply(self, base, records, stamp=None):
        """RPC (primary-to-backup): apply a shipped journal suffix.

        ``base`` is the LSN (index into the primary's redo journal) of
        ``records[0]``.  The backup keeps a *durable* applied-LSN pointer
        (the ``repl`` table row), written in the same transaction as the
        applied records, so the apply is atomic and idempotent: a
        re-shipped prefix is skipped by the pointer, a suffix beyond a
        gap is refused.  The primary's stamp is epoch-checked inside the
        transaction body — after a fenced failover the promoted primary
        installs its bumped epoch on every live member, so a zombie
        ex-primary's ships are refused *here* even if some other fence
        has not reached it yet.
        """
        yield from self._dispatch()

        fence_rows = []
        touched_dirs = []

        def body(txn):
            del fence_rows[:], touched_dirs[:]
            self._check_stamp(stamp)
            row = txn.read("repl", "applied")
            applied = row["lsn"]
            if base > applied:
                raise FsError(
                    "EAGAIN",
                    f"shard s{self.shard_id}: replication gap "
                    f"(ship base {base} > applied {applied})")
            for ops in records[applied - base:]:
                for op, table, payload in ops:
                    if op == "write":
                        txn.write(table, dict(payload))
                        if table == "epochs":
                            fence_rows.append(
                                (payload["shard"], payload["epoch"]))
                    else:
                        txn.delete(table, payload)
                    if table == "dentries":
                        touched_dirs.append(True)
            applied = max(applied, base + len(records))
            txn.write("repl", {"slot": "applied", "lsn": applied})
            return applied

        applied = yield from self.dbsvc.execute(self._local_body(body))
        # Keep the in-memory epoch/fence mirrors honest: fence installs
        # and epoch bumps on the primary arrive here as shipped ``epochs``
        # rows (the invariant checker asserts rows == memory on every
        # member it inspects).
        for shard, epoch in fence_rows:
            if self.fences.get(shard, 0) < epoch:
                self.fences[shard] = epoch
            if shard == self.shard_id and self.epoch < epoch:
                self.epoch = epoch
        if touched_dirs:
            self._resolve_cache.clear()
            self._resolve_by_parent.clear()
        return applied

    def repl_snapshot(self):
        """Coroutine (runs on the primary): snapshot for a rejoin resync.

        Returns ``(tables, head)``: every table's rows except the
        receiver-local ``repl`` pointer, plus the journal length the
        snapshot corresponds to.  Both are captured inside one
        transaction body (bodies are atomic), so the table image and the
        LSN can never disagree.
        """
        yield from self._dispatch()

        def body(txn):
            tables = {
                name: [dict(row) for row in txn.match(name)]
                for name in self.db.tables if name != "repl"
            }
            return tables, len(self.dbsvc.journal._records)

        snapshot = yield from self.dbsvc.execute(body)
        return snapshot

    def repl_install_snapshot(self, tables, head):
        """RPC (primary-to-member): overwrite state with a resync snapshot.

        Brings a dead member (stale backup, or a zombie ex-primary whose
        divergent never-acked suffix must be discarded) back in sync:
        every table is made identical to the snapshot in one transaction,
        the applied pointer jumps to the snapshot's LSN, and the
        in-memory epoch/fence mirrors and resolve caches are rebuilt from
        the installed rows.  The overwrite goes through the normal
        transaction path, so the member's own redo journal stays
        coherent: a crash after the install rebuilds to exactly the
        installed state.
        """
        yield from self._rejoin_dispatch()

        def body(txn):
            for name, rows in tables.items():
                pk = self.db.table(name).key
                desired = {row[pk]: row for row in rows}
                for row in list(txn.match(name)):
                    if row[pk] not in desired:
                        txn.delete(name, row[pk])
                for key, row in desired.items():
                    current = txn.read(name, key)
                    if current is None or dict(current) != row:
                        txn.write(name, dict(row))
            txn.write("repl", {"slot": "applied", "lsn": head})
            return True

        yield from self.dbsvc.execute(self._local_body(body))
        self.fences = {
            row["shard"]: row["epoch"] for row in tables["epochs"]}
        self.epoch = self.fences.get(self.shard_id, 0)
        self._resolve_cache.clear()
        self._resolve_by_parent.clear()
        self._live_tids.clear()
        return head


class GroupTargets:
    """Sequence mapping shard id -> the group's *current* primary machine.

    Cross-shard coordination names **groups, not nodes**: record ids stay
    ``s<k>.…`` and every peer RPC indexes this sequence at call time, so
    after a failover all new coordination traffic lands on the promoted
    primary with zero changes to the protocols.  The slots are
    pre-allocated and bound after the groups exist, breaking the
    construction cycle (members need ``len(shard_machines)`` before any
    group can be built).
    """

    def __init__(self, n_shards):
        self._groups = [None] * n_shards

    def bind(self, groups):
        """Attach the built groups (once, at tier construction)."""
        assert len(groups) == len(self._groups)
        self._groups[:] = groups

    def group(self, shard):
        return self._groups[shard]

    def __len__(self):
        return len(self._groups)

    def __getitem__(self, shard):
        return self._groups[shard].primary.machine

    def __iter__(self):
        for group in self._groups:
            yield group.primary.machine


class ReplicatedShard:
    """One logical shard: a primary plus backups under log shipping.

    All members bootstrap the same deterministic state (same shard id,
    same replicated root, same epoch row) on their own machines; from
    then on the primary's redo journal is the group's single history.
    The primary's :attr:`~repro.db.service.DbService.replicator` hook
    drives :meth:`_ship` after every locally durable update — client
    acknowledgement therefore *implies* quorum durability.

    Membership bookkeeping (who is down, who is most caught up, who is
    the primary) is plain Python state: it models the external
    coordination service real deployments lean on (the paper's tier has
    one too — Mnesia's schema coordinator), so reading it costs nothing.
    The *work* of failover — the epoch bump, the tier-wide fence
    installs, allocator reseats, snapshot resyncs — all rides the
    simulated RPC/transaction paths and pays full cost.
    """

    def __init__(self, members, config):
        assert members, "a group needs at least a primary"
        self.members = list(members)
        self.config = config
        self.shard_id = members[0].shard_id
        self.sim = members[0].sim
        self.primary_index = 0
        #: the group's promoted epoch: a member whose epoch lags this is
        #: a zombie and its ships are refused (second, group-local fence
        #: independent of the tier-wide stamp fences).
        self.epoch = members[0].epoch
        self.failovers = 0
        #: ``(ex_primary, applied_lsn)`` of the last promotion: the
        #: candidate's applied pointer *in the ex-primary's LSN space* at
        #: the moment it was promoted.  A zombie commit at or below this
        #: LSN provably survived into the promoted history (a concurrent
        #: committer's suffix ship carried it over before the fence), so
        #: its client is acknowledged instead of fenced — fencing it
        #: would make the router retry an already-replicated,
        #: non-idempotent mutation (EEXIST on the new primary).
        self.promoted_from = None
        #: ``(started_ms, serving_ms)`` of the last promotion — the
        #: availability gap the failover benchmark reports.
        self.last_failover = None
        self._failover_gate = None
        base = len(self.primary.dbsvc.journal._records)
        for index, member in enumerate(self.members):
            assert member.shard_id == self.shard_id
            assert len(member.dbsvc.journal._records) == base, \
                "group members must bootstrap identical journals"
            member.group = self
            member.member_index = index
        #: backup -> highest primary-journal LSN it has durably applied
        #: (``None`` while a member is resyncing: it is not yet part of
        #: the quorum membership).  The durable twin of each entry is the
        #: backup's own ``repl`` table row.
        self.acked = {}
        for member in self.backups:
            # The applied pointer exists from birth (bootstrap path, same
            # zero-cost discipline as the epoch row).
            member.db.transaction(
                lambda txn, lsn=base: txn.insert(
                    "repl", {"slot": "applied", "lsn": lsn}))
            member.dbsvc.journal.mark_durable()
            self.acked[member] = base
        self.primary.dbsvc.replicator = self._shipper(self.primary)

    # -- membership --------------------------------------------------------

    @property
    def primary(self):
        return self.members[self.primary_index]

    @property
    def backups(self):
        return [m for i, m in enumerate(self.members)
                if i != self.primary_index]

    @property
    def lsn(self):
        """The group's history head: the primary's journal length."""
        return len(self.primary.dbsvc.journal._records)

    def live_backups(self):
        """Backups that are up *and* in the quorum membership."""
        return [m for m in self.backups
                if not m.down and self.acked.get(m) is not None]

    def mark_down(self, member):
        """A member stopped answering: it leaves the live membership."""
        member.down = True

    def follower_for_read(self, staleness):
        """An in-sync live backup (lag ≤ ``staleness`` records), or None.

        Follower reads are the payoff for synchronous shipping: a backup
        whose applied LSN is within the configured bound of the group
        head serves ``stat``/``readdir``-class traffic without touching
        the primary, with a staleness bounded by that many records.
        """
        head = self.lsn
        for member in self.live_backups():
            if head - self.acked[member] <= staleness:
                return member
        return None

    # -- log shipping ------------------------------------------------------

    def _shipper(self, member):
        """The replicator closure installed on a member while primary.

        Deliberately *never* detached when the member stops being
        primary: a resurrected zombie's next local commit calls into
        :meth:`_ship`, fails the primaryship check, and surfaces
        :class:`EpochFenced` — the client is never acknowledged and the
        divergent local commit is discarded by the rejoin resync.
        """
        def replicate(commit_lsn):
            return self._ship(member, commit_lsn)
        return replicate

    def _survived_promotion(self, member, commit_lsn):
        """Did a fenced ex-primary's commit make it into the new history?

        Suffix shipping means a *concurrent* committer's ship can carry
        this transaction's record to a backup before the fence lands; if
        that backup was then promoted with the record applied
        (``commit_lsn`` ≤ its applied pointer in the ex-primary's LSN
        space), the mutation lives on in the group's one true history and
        the client must be acknowledged — the same rule as a Raft entry
        already replicated to the new leader.  Everything newer is truly
        lost and the caller surfaces the fence (client retries on the
        promoted primary).
        """
        return (self.promoted_from is not None
                and self.promoted_from[0] is member
                and commit_lsn <= self.promoted_from[1])

    def _ship(self, member, commit_lsn):
        """Coroutine: ship the journal suffix, ack only on quorum.

        Runs inside the primary's update transaction path (the
        ``DbService.replicator`` hook), after local durability and
        before the client regains control; ``commit_lsn`` is the LSN of
        the caller's own transaction.  Each live backup receives the
        suffix past its acked LSN — shipping from the ack pointer makes
        the protocol self-healing: a backup that missed a ship (crash
        between send and apply) is caught up by the very next one.  The
        mutation is acknowledged only when a **majority of the live
        membership** (the primary's own durable copy included) holds it;
        otherwise the client sees EAGAIN and retries.  A ship fenced by
        a concurrent promotion acks anyway when the commit provably
        survived into the promoted history
        (:meth:`_survived_promotion`).
        """
        if obs.TRACER is None and obs.METRICS is None:
            return self._ship_inner(member, commit_lsn)
        return self._ship_observed(member, commit_lsn)

    def _ship_observed(self, member, commit_lsn):
        """Coroutine: :meth:`_ship_inner` under a ``ship`` span + metrics."""
        tracer, metrics = obs.TRACER, obs.METRICS
        sim = self.sim
        start = sim.now
        span = None
        if tracer is not None:
            span = tracer.start("ship", f"s{self.shard_id}", start,
                                shard=self.shard_id, epoch=member.epoch,
                                lsn=commit_lsn)
        try:
            yield from self._ship_inner(member, commit_lsn)
        except FsError as exc:
            if span is not None:
                tracer.finish(span, sim.now, outcome=exc.code)
            raise
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, sim.now, outcome=type(exc).__name__)
            raise
        if span is not None:
            tracer.finish(span, sim.now)
        if metrics is not None:
            metrics.observe("quorum_ack_ms", self.shard_id, sim.now - start)

    def _ship_inner(self, member, commit_lsn):
        if member is not self.primary or member.epoch < self.epoch:
            if self._survived_promotion(member, commit_lsn):
                return
            raise EpochFenced(self.shard_id, member.epoch, self.epoch)
        journal = member.dbsvc.journal
        head = len(journal._records)
        stamp = (self.shard_id, member.epoch)
        for backup in self.members:
            if backup is member or backup.down:
                continue
            base = self.acked.get(backup)
            if base is None:
                continue  # mid-resync: the rejoin will set its pointer
            if obs.METRICS is not None:
                obs.METRICS.observe(
                    "ship_lag_records", self.shard_id, head - base)
            try:
                applied = yield from member._member_call(
                    backup, "repl_apply", base,
                    journal._records[base:head], stamp,
                    req_size=self.config.rpc_bytes + 256 * (head - base))
            except MemberDown:
                # The backup died under us: it leaves the live
                # membership (the quorum shrinks with it) and will
                # full-resync when it rejoins.
                self.mark_down(backup)
                continue
            except EpochFenced:
                # The backup fenced us mid-ship: a promotion won the
                # race while this RPC was in flight (it waited out the
                # candidate's admission gate).  Same survival rule as
                # the entry check.
                if self._survived_promotion(member, commit_lsn):
                    return
                raise
            if self.acked.get(backup) is not None:
                self.acked[backup] = max(self.acked[backup], applied)
            if obs.METRICS is not None:
                obs.METRICS.observe(
                    "apply_lag_records", self.shard_id, head - applied)
        live = 1 + len(self.live_backups())
        acks = 1 + sum(1 for b in self.live_backups()
                       if self.acked[b] >= commit_lsn)
        if acks < live // 2 + 1:
            raise FsError(
                "EAGAIN",
                f"shard s{self.shard_id}: quorum lost "
                f"({acks}/{live} acks for lsn {commit_lsn})")

    # -- failover ----------------------------------------------------------

    def ensure_failover(self):
        """Coroutine: guarantee the group has a live, promoted primary.

        No-op while the primary is up.  Called by the router's retry
        path on EAGAIN — the router, not a background detector, notices
        the dead primary, which keeps the availability gap equal to the
        promotion work itself.
        """
        if not self.primary.down:
            return None
        promoted = yield from self.failover()
        return promoted

    def failover(self):
        """Coroutine: fenced promotion of the most caught-up live backup.

        Sequence (single-flight; concurrent callers wait on the gate and
        return the winner's primary):

        1. pick the live backup with the highest applied LSN — under
           synchronous shipping its tables already hold every record the
           group ever acknowledged, so there is no journal replay and the
           availability gap is promotion work, not recovery work;
        2. the candidate bumps the group's durable epoch, installs the
           fence tier-wide *and* on its fellow members, and reseats its
           allocators — all behind its admission gate
           (:meth:`~repro.core.shard.recovery.ShardRecoveryPart.promote`);
        3. the group re-points at the candidate (``GroupTargets`` makes
           every future peer RPC land there) and its replicator hook
           starts shipping;
        4. the new primary runs the tier-wide completion pass for the
           dead coordinator's epoch — cross-shard records the old
           primary left mid-protocol are finished or reclaimed from the
           *replicated* intent rows;
        5. any other stale backups rejoin by snapshot (their pointers
           index the dead primary's journal, a different LSN space).

        The dead ex-primary itself stays down until explicitly revived
        and :meth:`rejoin`-ed.
        """
        if self._failover_gate is not None:
            yield self._failover_gate
            return self.primary
        self._failover_gate = self.sim.event()
        started = self.sim.now
        tracer = obs.TRACER
        # The failover span measures exactly the availability gap: it opens
        # at the single-flight claim and closes the instant serving resumes
        # (``last_failover``); the overlapped cleanup below stays outside.
        span = None
        if tracer is not None:
            span = tracer.start("failover", f"s{self.shard_id}", started,
                                shard=self.shard_id, epoch=self.epoch)
        try:
            old = self.primary
            candidates = [m for m in self.backups
                          if not m.down and self.acked.get(m) is not None]
            if not candidates:
                raise FsError(
                    "EIO",
                    f"shard s{self.shard_id}: no live in-sync backup "
                    f"to promote")
            best = max(
                candidates,
                key=lambda m: (self.acked[m], -m.member_index))
            yield from best.promote(self)
            self.failovers += 1
            self.primary_index = best.member_index
            self.epoch = best.epoch
            stale = [m for m in candidates if m is not best]
            # Everything the candidate had applied survives into the
            # promoted history: zombie ships at or below this LSN are
            # acknowledged, not fenced (see _survived_promotion).  The
            # candidate's *durable* pointer is the authority — the ack
            # map lags it when an apply's response was in flight at the
            # kill.
            self.promoted_from = (old, next(
                row["lsn"] for row in best.db.table("repl").all()
                if row["slot"] == "applied"))
            self.acked = {}
            best.dbsvc.replicator = self._shipper(best)
            self.last_failover = (started, self.sim.now)
            if span is not None:
                tracer.finish(span, self.sim.now)
                span = None
            if obs.METRICS is not None:
                obs.METRICS.observe(
                    "failover_gap_ms", self.shard_id, self.sim.now - started)
            # Serving has resumed; the cleanup below overlaps new traffic.
            yield from best.complete_tier_intents(
                {self.shard_id: best.epoch})
            for member in stale:
                # Their applied pointers index the *old* primary's
                # journal — a different LSN space.  Snapshot resync.
                yield from self.rejoin(member)
        finally:
            if span is not None:  # error before serving resumed
                tracer.finish(span, self.sim.now, outcome="error")
            gate, self._failover_gate = self._failover_gate, None
            gate.succeed()
        return self.primary

    def rejoin(self, member):
        """Coroutine: bring a dead or stale member back as a backup.

        Full snapshot resync from the current primary: the member is
        down for the whole window (it must serve nothing until the
        snapshot is in), its possibly-divergent state — including a
        zombie ex-primary's committed-but-never-acked suffix — is
        overwritten, and only then does it enter the quorum membership
        at the snapshot's LSN.  Ships that race the resync skip the
        member (``acked`` is None); the first ship after it lands closes
        any gap from the snapshot head.
        """
        primary = self.primary
        assert member is not primary, "cannot rejoin the primary"
        member.down = True
        member.dbsvc.replicator = None  # a backup never ships
        self.acked[member] = None
        tables, head = yield from primary.repl_snapshot()
        yield from primary._member_call(
            member, "repl_install_snapshot", tables, head,
            req_size=self.config.rpc_bytes
            + 256 * sum(len(rows) for rows in tables.values()))
        self.acked[member] = head
        member.down = False
        return head
