"""The token acquire/revoke hot path: timing and exact kernel cost.

A free key lock and a free revocation service are claimed synchronously,
and a single conflicting holder is revoked inline; two or more holders
are still revoked in parallel.  These tests pin both the simulated
timing (the analytic sum of message and CPU charges) and the number of
heap entries each acquire schedules.
"""

import pytest

from repro.pfs.tokens import RO, XW
from tests.pfs.conftest import MountedPfs

KEY = ("attr", 424242)
WARM_KEY = ("attr", 777777)


def _one_way(fsx, src, dst, size, when):
    """Arrival time at machine ``dst`` of a ``size``-byte message sent from
    machine ``src`` at ``when`` on an idle route, accumulated hop by hop
    like the network's collapsed path."""
    for link in fsx.testbed.topology.route(src.host, dst.host):
        when += size / link.bandwidth + link.latency
    return when


def _hold(client, key, mode, log=None):
    """Coroutine: pin ``key`` in ``mode``, note the grant time, unpin."""
    sim = client.sim
    asked = sim.now
    entry = yield from client.tokens.hold(key, mode)
    if log is not None:
        log.append(sim.now - asked)
    entry.unpin()


def _warm(fsx, *clients):
    """Start every client's acquire pump (on an unrelated key), then
    drain the simulation so the next acquire starts on an idle testbed."""
    for client in clients:
        fsx.run(_hold(client, WARM_KEY, RO))


def _run_counted(fsx, coro):
    """Run ``coro`` to quiescence; the heap entries it scheduled."""
    before = fsx.sim.sequence
    fsx.run(coro)
    return fsx.sim.sequence - before


def test_uncontended_acquire_grants_at_analytic_cost():
    fsx = MountedPfs(2)
    c0 = fsx.clients[0]
    server = fsx.pfs.token_server
    cfg = fsx.pfs.config
    _warm(fsx, c0)
    acquires = server.acquires
    grants = []
    start = fsx.sim.now

    events = _run_counted(fsx, _hold(c0, KEY, XW, grants))

    server_machine = fsx.pfs.token_machine
    at_server = _one_way(fsx, c0.machine, server_machine,
                         cfg.token_msg_bytes, start)
    served = at_server + cfg.token_server_cpu_ms
    installed = _one_way(fsx, server_machine, c0.machine,
                         cfg.token_msg_bytes, served)
    assert start + grants[0] == installed
    assert server.holders_of(KEY) == {c0.name: XW}
    assert server.acquires == acquires + 1
    assert server.revocations == 0
    # Test process start, pump wake, request transfer, server CPU,
    # install transfer, grant wake, install reply, acquire reply, test
    # process exit: nine entries — the free key lock costs none.
    assert events == 9


def test_single_holder_steal_revokes_inline():
    fsx = MountedPfs(2)
    c0, c1 = fsx.clients
    server = fsx.pfs.token_server
    _warm(fsx, c0, c1)
    fsx.run(_hold(c0, KEY, XW))
    assert server.holders_of(KEY) == {c0.name: XW}
    revocations = server.revocations

    events = _run_counted(fsx, _hold(c1, KEY, XW))

    assert server.holders_of(KEY) == {c1.name: XW}
    assert server.revocations == revocations + 1
    assert c0.tokens.cached(KEY) is None
    assert c1.tokens.cached(KEY).mode == XW
    # The nine entries of an uncontended acquire plus the revoke's
    # request transfer, holder CPU and reply transfer: no child process,
    # no join event, no lock or revocation-service grant event.
    assert events == 12


def _upgrade(n_readers):
    """Grant delay of an XW request that must revoke ``n_readers`` RO
    holders, and the heap entries it scheduled."""
    fsx = MountedPfs(n_readers + 1)
    *readers, writer = fsx.clients
    server = fsx.pfs.token_server
    _warm(fsx, *fsx.clients)
    for reader in readers:
        fsx.run(_hold(reader, KEY, RO))
    assert server.holders_of(KEY) == {r.name: RO for r in readers}
    revocations = server.revocations
    grants = []
    events = _run_counted(fsx, _hold(writer, KEY, XW, grants))
    assert server.holders_of(KEY) == {writer.name: XW}
    assert server.revocations == revocations + n_readers
    assert all(r.tokens.cached(KEY) is None for r in readers)
    return grants[0], events


def test_two_holder_upgrade_revokes_in_parallel():
    one_delay, one_events = _upgrade(1)
    two_delay, two_events = _upgrade(2)
    # Parallel revokes of two idle holders finish when one would (up to
    # float rounding: the runs start at different clocks); serial revokes
    # would add a whole revoke round trip.
    assert two_delay == pytest.approx(one_delay, rel=1e-12)
    assert one_events == 12
    # Each holder's revoke runs in its own process (start + exit) with
    # its three entries, and the join fires once: 9 + 2 * 5 + 1.
    assert two_events == 20
