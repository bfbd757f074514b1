"""The distributed token (lock) manager.

GPFS-style tokens: a central token server grants per-object tokens in
read-only (``RO``) or exclusive (``XW``) mode to client nodes, which cache
them.  A conflicting request triggers *revocation*: the server calls back
each conflicting holder, which waits for local users to unpin the token,
flushes any dirty state attached to it (a log force and/or attribute
write-back), and acknowledges.  All queueing behaviour — FIFO per token key,
revocations executing serially at each holder, log forces contending on the
NSD log disks — emerges from the simulation and produces the node-count
scaling of the paper's Figs. 2, 4, 5 and 6.

Token keys are tuples: ``("attr", ino)`` for inode attributes, ``("dir",
ino)`` for a directory's content + attributes (the per-directory serializer
for creates/unlinks), and byte ranges are handled by
:class:`RangeTokenServer` with range-splitting grants.
"""

from repro.sim.resources import Resource

RO = "ro"
XW = "xw"


def compatible(held, wanted):
    """Can ``wanted`` be granted alongside an existing ``held`` mode?"""
    return held == RO and wanted == RO


def mode_covers(held, wanted):
    """Does holding ``held`` already satisfy a request for ``wanted``?"""
    return held == XW or wanted == RO


class _KeyState:
    __slots__ = ("holders", "lock")

    def __init__(self, sim):
        self.holders = {}  # node name -> mode
        self.lock = Resource(sim, capacity=1)


class TokenServer:
    """Central token manager (a service on one of the server machines).

    Inode-attribute tokens honour *segment delegation*: a node that
    allocated an inode from its own allocation segment holds that inode's
    token implicitly (no server interaction at create time); the first
    conflicting request materializes the delegation as an ordinary holder
    entry and revokes it like any other.
    """

    def __init__(self, machine, config, state=None):
        self.machine = machine
        self.sim = machine.sim
        self.config = config
        self.state = state
        self._keys = {}
        self._clients = {}  # node name -> machine
        self.acquires = 0
        self.revocations = 0

    def attach_client(self, name, machine):
        """Register a client node so revocations can reach it."""
        self._clients[name] = machine

    def _state(self, key):
        state = self._keys.get(key)
        if state is None:
            state = _KeyState(self.sim)
            self._keys[key] = state
            self._materialize_delegation(key, state)
        return state

    def _materialize_delegation(self, key, state):
        """Record the implicit segment-delegated holder of a fresh key."""
        if self.state is None or key[0] != "attr":
            return
        inodes = self.state.inodes
        owner = inodes.segment_owner(inodes.segment_of(key[1]))
        if owner is not None and owner in self._clients:
            state.holders[owner] = XW

    def holders_of(self, key):
        """Snapshot of holder modes (diagnostics / tests)."""
        return dict(self._keys[key].holders) if key in self._keys else {}

    # -- RPC handlers -----------------------------------------------------------

    def acquire(self, node, key, mode):
        """Grant ``mode`` on ``key`` to ``node``, revoking conflicts.

        Requests for the same key are served FIFO; each may have to revoke
        the current conflicting holders (in parallel) before the grant.  The
        grant is *pushed* to the requester (an ``install`` message) while the
        key is still locked, so a revocation triggered by the next queued
        request can never overtake the grant — the race would otherwise
        leave two nodes believing they hold conflicting tokens.  A free key
        lock is claimed synchronously (no grant event).
        """
        yield from self.machine.compute(self.config.token_server_cpu_ms)
        state = self._state(key)
        with state.lock.claim() as claim:
            if not claim.processed:
                yield claim
            yield from self._revoke_conflicts(state, key, node, mode)
            held = state.holders.get(node)
            if held is None or not mode_covers(held, mode):
                state.holders[node] = mode
            self.acquires += 1
            yield from self.machine.call(
                self._clients[node], "tokens", "install",
                args=(key, state.holders[node]),
                req_size=self.config.token_msg_bytes,
                resp_size=self.config.token_msg_bytes,
            )
        return mode

    def acquire_batch(self, node, requests):
        """Grant a batch of (key, mode) requests in one message."""
        extra = self.config.token_batch_item_cpu_ms * max(0, len(requests) - 1)
        yield from self.machine.compute(extra)
        for key, mode in requests:
            yield from self.acquire(node, key, mode)
        return len(requests)

    def release(self, node, keys):
        """Voluntary relinquish of a batch of keys by ``node``."""
        yield from self.machine.compute(
            self.config.token_server_cpu_ms
            + self.config.token_batch_item_cpu_ms * max(0, len(keys) - 1)
        )
        for key in keys:
            state = self._keys.get(key)
            if state is not None:
                state.holders.pop(node, None)
        return len(keys)

    def revoke_all(self, node, key):
        """Strip every holder of ``key`` (used when an object is destroyed).

        ``node`` (the requester) keeps nothing either; its own cached state
        is cleaned up locally by the caller.
        """
        yield from self.machine.compute(self.config.token_server_cpu_ms)
        state = self._keys.get(key)
        if state is None:
            return 0
        with state.lock.claim() as claim:
            if not claim.processed:
                yield claim
            victims = [n for n in state.holders if n != node]
            yield from self._revoke_nodes(victims, key, None)
            for victim in victims:
                state.holders.pop(victim, None)
            state.holders.pop(node, None)
        return len(victims)

    # -- revocation ------------------------------------------------------------------

    def _revoke_conflicts(self, state, key, node, mode):
        victims = [
            holder
            for holder, held in state.holders.items()
            if holder != node and not compatible(held, mode)
        ]
        if not victims:
            return
        downgrade_to = RO if mode == RO else None
        yield from self._revoke_nodes(victims, key, downgrade_to)
        for victim in victims:
            if downgrade_to is None:
                state.holders.pop(victim, None)
            else:
                state.holders[victim] = downgrade_to

    def _revoke_nodes(self, victims, key, downgrade_to):
        if not victims:
            return
        self.revocations += len(victims)
        if len(victims) == 1:
            # One holder: revoke it inline, without a child process and a
            # join event.
            yield from self._revoke_call(victims[0], key, downgrade_to)
            return
        calls = [
            self.sim.process(self._revoke_call(victim, key, downgrade_to),
                             name=f"revoke:{victim}")
            for victim in victims
        ]
        yield self.sim.all_of(calls)

    def _revoke_call(self, victim, key, downgrade_to):
        return self.machine.call(
            self._clients[victim], "tokens", "revoke",
            args=(key, downgrade_to),
            req_size=self.config.token_msg_bytes,
            resp_size=self.config.token_msg_bytes,
        )
