"""Per-node token cache and revocation handling.

Each client node caches tokens in bounded LRU caches (the attribute-token
capacity is the paper's 1024-entry cliff).  Operations *pin* a token while
using it; revocations wait for pins to drain, flush dirty state attached to
the token (attribute write-back + log force), then downgrade or drop it.

Concurrent token acquisitions from the same node are pumped through a small
batcher: while one request message is in flight, later requests queue and go
out together in one batched message.  A single synchronous process never
batches; two processes on the node do — which reproduces the paper's
observation (Fig. 1) that a second process "slightly compensates" beyond the
cache cliff.
"""

from repro.pfs.cache import LruDict
from repro.pfs.tokens import mode_covers
from repro.sim.resources import Resource


class TokenEntry:
    """A cached token plus the client state attached to it."""

    __slots__ = ("key", "mode", "pins", "prepins", "dirty", "flush_cb",
                 "on_drop", "payload", "revoking", "_waiters")

    def __init__(self, key, mode):
        self.key = key
        self.mode = mode
        self.pins = 0
        self.prepins = 0  # courtesy pins from server installs, not yet adopted
        self.dirty = False
        self.flush_cb = None
        self.on_drop = None
        self.payload = None
        self.revoking = False
        self._waiters = []

    def pin(self):
        self.pins += 1

    def unpin(self):
        if self.pins <= 0:
            raise RuntimeError(f"unpin of unpinned token {self.key}")
        self.pins -= 1
        if self.pins == 0:
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                event.succeed()

    def mark_dirty(self, flush_cb):
        self.dirty = True
        self.flush_cb = flush_cb


class TokenClient:
    """The token cache of one client node (also its revocation service)."""

    def __init__(self, machine, server_machine, config):
        self.machine = machine
        self.sim = machine.sim
        self.server_machine = server_machine
        self.config = config
        pinned = lambda entry: entry.pins > 0  # noqa: E731 - tiny predicate
        self._caches = {
            "attr": LruDict(config.attr_cache_entries, pinned=pinned),
            "dir": LruDict(config.dir_token_entries, pinned=pinned),
        }
        self._acq_queue = []
        self._acq_wake = None  # parked acquire pump's gate
        self._acq_started = False
        self._inflight_acquires = {}  # key -> [done events awaiting grant]
        self._relinquish = []
        self._revoke_service = Resource(machine.sim, capacity=1)
        self.flushes = 0
        self.revokes_served = 0

    def _cache_for(self, key):
        return self._caches[key[0]]

    def cached(self, key):
        """The cached entry for ``key`` without recency effects, or None."""
        return self._cache_for(key).peek(key)

    def get_covering(self, key, mode):
        """The cached, quiescent entry covering ``mode``, or None.

        Touches recency (and the hit/miss counters) exactly like the
        :meth:`hold` hit path — inlined, as this runs on every walk step.
        The caller still has to pin the entry before any yield.
        """
        cache = self._caches[key[0]]
        entry = cache._data.get(key)
        if entry is None:
            cache.misses += 1
            return None
        cache.hits += 1
        cache._data.move_to_end(key)
        if not entry.revoking and mode_covers(entry.mode, mode):
            return entry
        return None

    def hold_cached(self, key, mode):
        """Non-coroutine fast path of :meth:`hold`: the pinned entry on a
        cache hit, or None when the caller must take the full path."""
        entry = self.get_covering(key, mode)
        if entry is not None:
            entry.pins += 1
        return entry

    # -- acquiring -------------------------------------------------------------

    def hold(self, key, mode, on_drop=None):
        """Coroutine: pin a token for ``key`` with at least ``mode``.

        Returns the (pinned) :class:`TokenEntry`.  The caller must
        :meth:`TokenEntry.unpin` it when the operation completes.
        """
        entry = self.get_covering(key, mode)
        if entry is not None:
            entry.pin()
            return entry
        cache = self._cache_for(key)
        # Miss, upgrade, or mid-revocation: go to the token server (batched).
        # The grant is installed into the cache by the server's push (see
        # TokenServer.acquire) before the RPC reply arrives, carrying a
        # courtesy pin so a conflicting revocation cannot snatch the token
        # away before this operation has used it once.
        yield from self._acquire(key, mode)
        entry = cache.get(key)
        if entry is None:  # pragma: no cover - install guarantees presence
            raise RuntimeError(f"token {key} missing after grant")
        if not mode_covers(entry.mode, mode):
            entry.mode = mode
        if on_drop is not None:
            entry.on_drop = on_drop
        if entry.prepins > 0:
            entry.prepins -= 1  # adopt the install's courtesy pin
        else:
            entry.pin()
        return entry

    def install(self, key, mode):
        """RPC handler: the server pushes a freshly granted token.

        Runs while the server still holds the key lock, so the entry is in
        the cache — pinned on behalf of the in-flight requester — before any
        subsequent revocation can be issued.
        """
        cache = self._cache_for(key)
        entry = cache.peek(key)
        if entry is None or entry.revoking:
            entry = TokenEntry(key, mode)
            yield from self._install(cache, key, entry)
        elif not mode_covers(entry.mode, mode):
            entry.mode = mode
        entry.pin()
        entry.prepins += 1
        # Wake the waiting hold() now: the grant *message* transfers the
        # token.  Waiting for the RPC reply instead can deadlock when the
        # adopter's request is queued behind the very acquire whose
        # revocation waits on this courtesy pin.
        for done in self._inflight_acquires.get(key, ()):
            if not done.triggered:
                done.succeed()
                break
        return True

    def grant_local(self, key, mode, on_drop=None):
        """Coroutine: install a segment-delegated token without the server.

        Valid only for objects this node allocated from its own segment —
        the token server treats the segment owner as an implicit holder, so
        coherence is preserved when another node asks for the same key.
        """
        cache = self._cache_for(key)
        entry = TokenEntry(key, mode)
        if on_drop is not None:
            entry.on_drop = on_drop
        yield from self._install(cache, key, entry)
        entry.pin()
        return entry

    def _install(self, cache, key, entry):
        evicted = cache.put(key, entry)
        for _key, old in evicted:
            if old.dirty and old.flush_cb is not None:
                # Voluntary evictions flush in the background (the sync
                # daemon); only revocations flush synchronously.
                self.flushes += 1
                old.dirty = False
                self.sim.process(
                    old.flush_cb(), name=f"evict-flush:{self.machine.name}"
                )
            if old.on_drop is not None:
                old.on_drop(old)
            self._queue_relinquish(old.key)
        return
        yield  # pragma: no cover - keeps this a generator for uniform call sites

    def _acquire(self, key, mode):
        done = self.sim.event()
        self._acq_queue.append((key, mode, done))
        wake = self._acq_wake
        if wake is not None:
            self._acq_wake = None
            wake.succeed()
        elif not self._acq_started:
            self._acq_started = True
            self.sim.process(self._acq_pump(), name=f"tok-pump:{self.machine.name}")
        yield done
        if not done.ok:  # pragma: no cover - server failures are fatal here
            raise done.value

    def _acq_pump(self):
        cfg = self.config
        while True:
            yield from self._acq_pump_burst(cfg)
            gate = self.sim.event()
            self._acq_wake = gate
            yield gate

    def _acq_pump_burst(self, cfg):
        while self._acq_queue:
            batch = self._acq_queue[:8]
            del self._acq_queue[: len(batch)]
            for key, _mode, done in batch:
                self._inflight_acquires.setdefault(key, []).append(done)
            try:
                if len(batch) == 1:
                    key, mode, done = batch[0]
                    yield from self.machine.call(
                        self.server_machine, "tokmgr", "acquire",
                        args=(self.machine.name, key, mode),
                        req_size=cfg.token_msg_bytes,
                        resp_size=cfg.token_msg_bytes,
                    )
                else:
                    yield from self.machine.call(
                        self.server_machine, "tokmgr", "acquire_batch",
                        args=(
                            self.machine.name,
                            [(key, mode) for key, mode, _done in batch],
                        ),
                        req_size=cfg.token_msg_bytes * len(batch),
                        resp_size=cfg.token_msg_bytes,
                    )
            except Exception as exc:  # pragma: no cover - propagate to waiters
                for key, _mode, done in batch:
                    self._forget_inflight(key, done)
                    if not done.triggered:
                        done.fail(exc)
                continue
            for key, _mode, done in batch:
                self._forget_inflight(key, done)
                if not done.triggered:
                    done.succeed()

    def _forget_inflight(self, key, done):
        waiting = self._inflight_acquires.get(key)
        if waiting and done in waiting:
            waiting.remove(done)
            if not waiting:
                del self._inflight_acquires[key]

    # -- voluntary release --------------------------------------------------------

    def _queue_relinquish(self, key):
        self._relinquish.append(key)
        if len(self._relinquish) >= self.config.relinquish_batch:
            batch, self._relinquish = self._relinquish, []
            self.sim.process(
                self._send_relinquish(batch),
                name=f"tok-relinquish:{self.machine.name}",
            )

    def _send_relinquish(self, keys):
        yield from self.machine.call(
            self.server_machine, "tokmgr", "release",
            args=(self.machine.name, keys),
            req_size=self.config.token_msg_bytes * len(keys) // 4,
            resp_size=self.config.token_msg_bytes,
        )

    def drop_local(self, key):
        """Forget a token without server interaction (object destroyed)."""
        entry = self._cache_for(key).pop(key)
        if entry is not None and entry.on_drop is not None:
            entry.on_drop(entry)

    # -- revocation service (called by the token server) -----------------------------

    def revoke(self, key, downgrade_to):
        """RPC handler: give up (or downgrade) the token for ``key``.

        Revocations at one node are served one at a time (the daemon's
        revocation thread): under parallel access this queue is a large part
        of the per-operation times in the paper's Figs. 2 and 5.
        """
        self.revokes_served += 1
        cache = self._cache_for(key)
        entry = cache.peek(key)
        if entry is None or entry.revoking:
            # Already evicted/relinquished/being handled; stale server map.
            yield from self.machine.compute(self.config.revoke_cpu_ms / 2)
            return "not-held"
        entry.revoking = True
        with self._revoke_service.claim() as claim:
            if not claim.processed:
                yield claim
            while entry.pins > 0:
                gate = self.sim.event()
                entry._waiters.append(gate)
                yield gate
            yield from self.machine.compute(self.config.revoke_cpu_ms)
            if entry.dirty and entry.flush_cb is not None:
                self.flushes += 1
                yield from entry.flush_cb()
                entry.dirty = False
            if downgrade_to is None:
                if cache.peek(key) is entry:
                    cache.pop(key)
                if entry.on_drop is not None:
                    entry.on_drop(entry)
                return "dropped"
            entry.mode = downgrade_to
            entry.revoking = False
            return "downgraded"
