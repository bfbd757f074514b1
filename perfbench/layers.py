"""Per-layer accounting, wrapped around the program from outside.

:class:`LayerTrace` replaces, for the length of one traced round, the public
functions of each layer (``fuse``, ``core.cofs``, ``core.shard``, ``db``,
``pfs``, ``net``, ``cluster``) with thin wrappers.  A wrapper calls the
original exactly as the caller would have (eagerly, with the same
arguments), then — only inside a timed phase — delegates to the result
with ``yield from`` while reading ``sim.now`` before and after.  That
schedules no event and consumes no sequence number, so a traced round must
end with the same simulated clock and kernel sequence number as an
untraced one; :func:`perfbench.run.trace_round` checks exactly that.

Each traced call that blocks is a *frame* on its process's frame stack
(one op runs in one process: RPC handlers run inline in their caller).  A
frame's self time is its elapsed time minus the elapsed time of the frames
it called.  Self time on a client op's process adds up, layer by layer, to
the op's latency; what no layer claims is ``unattributed_ms``.  CPU and
disk time are not frames: they count as self time of the layer that asked
for them, and feed busy/wait counters of their own.

:func:`host_fractions` splits the host time of a profiled round across the
program's packages.
"""

import inspect
import pstats
from collections import defaultdict
from contextlib import contextmanager

from repro.cluster.disk import Disk, GroupCommitLog
from repro.cluster.machine import Machine
from repro.core.cofs import CofsFileSystem
from repro.core.metadriver import MetadataDriver
from repro.core.sharding import ReplicatedShard, ShardRouter
from repro.db.service import DbService
from repro.fuse.mount import FuseMount
from repro.net.transport import Network
from repro.pfs.client import PfsClient
from repro.pfs.errors import FsError
from repro.pfs.nsd import NsdServer
from repro.pfs.tokenclient import TokenClient
from repro.pfs.tokens import TokenServer

#: the VFS operations wrapped on every mount-level class that defines them.
VFS_OPS = ("mkdir", "rmdir", "create", "mknod", "open", "close", "unlink",
           "stat", "utime", "readdir", "rename", "link", "symlink",
           "readlink", "chmod", "chown", "statfs", "fsync", "truncate",
           "read", "write")

#: layers whose self time is reported as ``<layer>.self_ms``.
SELF_LAYERS = ("fuse", "cofs", "router", "net", "mds", "repl", "db", "log",
               "pfs", "tokens", "nsd")


class LayerTrace:
    """Counters and frame stacks for one traced round."""

    def __init__(self):
        self.sim = None
        self.active = False
        #: name -> calls, and name -> summed elapsed ms.
        self.calls = defaultdict(int)
        self.elapsed = defaultdict(float)
        #: free-form sums (bytes, waits, busy time per machine/disk).
        self.sums = defaultdict(float)
        #: layer -> self ms summed over client op processes.
        self.self_ms = defaultdict(float)
        self._stacks = {}
        self._roles = {}
        self._mds_machines = set()
        self._dbs = ()
        self._db_logs = ()
        self._db_base = None
        self._hops_index = {}

    # -- binding to a round ---------------------------------------------------

    def attach(self, rnd, stack):
        """Bind to a freshly set-up round (its ``on_setup`` callback)."""
        testbed = stack.testbed
        self.sim = testbed.sim
        for role, disk_role, machines in (
                ("client", "client", testbed.clients),
                ("server", "nsd", testbed.servers),
                ("mds", "mds", testbed.mds_shards)):
            for machine in machines:
                self._roles[machine] = f"cpu.{role}"
                for disk in machine.disks.values():
                    self._roles[disk] = f"disk.{disk_role}"
        self._mds_machines = set(testbed.mds_shards)
        self._dbs = tuple(member.dbsvc for member in _mds_members(stack))
        self._db_logs = tuple(db.log for db in self._dbs)
        rnd.meter.hooks.append(self._edge)
        rnd.meter.wrap_op = self.op

    def _edge(self, sim, starting):
        self.active = starting
        totals = (sum(db.log.forces for db in self._dbs),
                  sum(db.update_txns for db in self._dbs))
        if starting:
            self._db_base = totals
        else:
            self.sums["db.forces"] += totals[0] - self._db_base[0]
            self.sums["db.commits"] += totals[1] - self._db_base[1]

    # -- frames ---------------------------------------------------------------

    def span(self, layer, names, inner, on_close=None):
        """Coroutine: ``yield from inner`` as one frame of ``layer``."""
        sim = self.sim
        proc = sim.current
        stack = self._stacks.get(proc)
        if stack is None:
            stack = self._stacks[proc] = []
        parent = stack[-1] if stack else None
        frame = [layer, sim.now, 0.0]
        stack.append(frame)
        error = None
        try:
            return (yield from inner)
        except FsError as exc:
            error = exc
            raise
        finally:
            stack.pop()
            elapsed = sim.now - frame[1]
            if parent is not None:
                parent[2] += elapsed
            root = stack[0] if stack else frame
            if root[0] == "op":
                self.self_ms[layer] += elapsed - frame[2]
            if not stack:
                del self._stacks[proc]
            for name in names:
                self.calls[name] += 1
                self.elapsed[name] += elapsed
            if on_close is not None:
                on_close(elapsed, error)

    def op(self, kind, inner):
        """Wrap one timed workload op (the root frame of its process)."""
        return self.span("op", ("op",), inner)

    def parent_layer(self):
        stack = self._stacks.get(self.sim.current)
        return stack[-1][0] if stack else None

    def _timing(self, inner, on_close):
        """Coroutine: ``yield from inner`` and report its elapsed ms."""
        start = self.sim.now
        result = yield from inner
        on_close(self.sim.now - start)
        return result

    # -- wrappers -------------------------------------------------------------

    def _frame(self, layer, name):
        trace = self

        def make(orig):
            def wrapper(obj, *args, **kwargs):
                inner = orig(obj, *args, **kwargs)
                if not trace.active:
                    return inner
                return trace.span(layer, (name,), inner)
            return wrapper
        return make

    def _pfs_op(self, orig):
        trace = self

        def wrapper(obj, *args, **kwargs):
            inner = orig(obj, *args, **kwargs)
            if not trace.active:
                return inner
            nested = trace.parent_layer() == "pfs"
            return trace.span("pfs", ("pfs.nested" if nested else "pfs.op",),
                              inner)
        return wrapper

    def _compute(self, orig):
        trace = self

        def wrapper(machine, duration):
            inner = orig(machine, duration)
            if not trace.active or duration <= 0:
                return inner
            trace.calls["cpu.compute"] += 1
            trace.sums[("busy", machine)] += duration

            def close(elapsed):
                trace.sums["cpu.wait"] += elapsed - duration
            return trace._timing(inner, close)
        return wrapper

    def _disk_io(self, orig):
        trace = self

        def wrapper(disk, size, sequential=False):
            inner = orig(disk, size, sequential)
            if not trace.active:
                return inner
            service = disk.service_time(size, sequential)
            return trace._device(disk, service, inner)
        return wrapper

    def _device_force(self, orig):
        trace = self

        def wrapper(log, cost, size):
            inner = orig(log, cost, size)
            if not trace.active:
                return inner
            return trace._device(log.disk, cost, inner)
        return wrapper

    def _device(self, disk, service, inner):
        self.calls["disk.io"] += 1
        self.sums[("busy", disk)] += service

        def close(elapsed):
            self.sums["disk.wait"] += elapsed - service
        return self._timing(inner, close)

    def _log_force(self, orig):
        trace = self

        def wrapper(log):
            inner = orig(log)
            if not trace.active:
                return inner
            name = "db.force" if log in trace._db_logs else "nsd.log"
            return trace.span("log", (name,), inner)
        return wrapper

    def _transfer(self, orig):
        trace = self

        def wrapper(network, src_host, dst_host, size):
            inner = orig(network, src_host, dst_host, size)
            if not trace.active:
                return inner
            unloaded = sum(
                size / bandwidth + latency for _w, bandwidth, latency, _l
                in network._fast_routes[(src_host, dst_host)])
            trace.sums["net.bytes"] += size

            def close(elapsed, _error):
                trace.sums["net.transfer_wait"] += elapsed - unloaded
            return trace.span("net", ("net.transfer",), inner, close)
        return wrapper

    def _rpc(self, orig):
        trace = self

        def wrapper(network, src, dst, service, method, *args, **kwargs):
            inner = orig(network, src, dst, service, method, *args, **kwargs)
            if not trace.active:
                return inner
            names = ("net.rpc",)
            if service == "cofsmds":
                if method == "repl_apply":
                    names = ("net.rpc", "repl.ship")
                elif src in trace._mds_machines:
                    names = ("net.rpc", "mds.peer_rpc")
            return trace.span("net", names, inner)
        return wrapper

    def _handler(self, orig):
        trace = self

        def wrapper(machine, service, method):
            handler = orig(machine, service, method)
            if service != "cofsmds" or not trace.active:
                return handler
            if method == "repl_apply":
                return lambda *a, **kw: trace.span(
                    "repl", ("repl.apply",), handler(*a, **kw))
            hops_at = trace._hops_position(handler)

            def traced(*args, **kwargs):
                inner = handler(*args, **kwargs)
                hops = kwargs.get("_hops", 0)
                if hops_at is not None and len(args) > hops_at:
                    hops = args[hops_at]
                if hops:
                    trace.calls["mds.forwarded"] += 1
                return trace.span("mds", ("mds.handler",), inner)
            return traced
        return wrapper

    def _hops_position(self, handler):
        func = getattr(handler, "__func__", handler)
        if func not in self._hops_index:
            params = list(inspect.signature(handler).parameters)
            self._hops_index[func] = (params.index("_hops")
                                      if "_hops" in params else None)
        return self._hops_index[func]

    def _driver_call(self, orig):
        trace = self

        def wrapper(driver, method, *args):
            inner = orig(driver, method, *args)
            if not trace.active:
                return inner

            def close(_elapsed, error):
                if error is not None and error.code == "EAGAIN":
                    trace.calls["router.retry"] += 1
            return trace.span("router", ("cofs.mds_call",), inner, close)
        return wrapper

    def _hold(self, orig):
        trace = self

        def wrapper(client, key, mode, on_drop=None):
            inner = orig(client, key, mode, on_drop)
            if not trace.active:
                return inner

            def close(elapsed, _error):
                # A hit returns without yielding; a miss asks the server.
                outcome = "tokens.hit" if elapsed == 0 else "tokens.miss"
                trace.calls[outcome] += 1
            return trace.span("tokens", ("tokens.hold",), inner, close)
        return wrapper

    def _hold_cached(self, orig):
        trace = self

        def wrapper(client, key, mode):
            entry = orig(client, key, mode)
            if trace.active and entry is not None:
                trace.calls["tokens.hit"] += 1
            return entry
        return wrapper

    def patches(self):
        """(class, attribute, wrapper factory) for every traced function."""
        frame = self._frame
        out = [
            (Machine, "compute", self._compute),
            (Machine, "handler", self._handler),
            (Disk, "read", self._disk_io),
            (Disk, "write", self._disk_io),
            (GroupCommitLog, "_device_force", self._device_force),
            (GroupCommitLog, "force", self._log_force),
            (Network, "transfer", self._transfer),
            (Network, "rpc", self._rpc),
            (TokenClient, "hold", self._hold),
            (TokenClient, "hold_cached", self._hold_cached),
            (TokenClient, "revoke", frame("tokens", "tokens.revoke")),
            (TokenServer, "acquire", frame("tokens", "tokens.acquire")),
            (TokenServer, "revoke_all", frame("tokens", "tokens.revoke_all")),
            (NsdServer, "fetch_attr_block", frame("nsd", "nsd.fetch")),
            (NsdServer, "fetch_dir_block", frame("nsd", "nsd.fetch")),
            (NsdServer, "put_attr", frame("nsd", "nsd.put")),
            (NsdServer, "put_dir_block", frame("nsd", "nsd.put")),
            (NsdServer, "log_force", frame("nsd", "nsd.log_force")),
            (DbService, "execute", frame("db", "db.txn")),
            (ShardRouter, "call", frame("router", "router.call")),
            (MetadataDriver, "call", self._driver_call),
            (ReplicatedShard, "failover", frame("repl", "repl.failover")),
        ]
        for cls, layer in ((FuseMount, "fuse"), (CofsFileSystem, "cofs")):
            out += [(cls, op, frame(layer, f"{layer}.op"))
                    for op in VFS_OPS if op in vars(cls)]
        out += [(PfsClient, op, self._pfs_op)
                for op in VFS_OPS if op in vars(PfsClient)]
        return out

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for cls, attr, make in self.patches():
                orig = vars(cls)[attr]
                saved.append((cls, attr, orig))
                setattr(cls, attr, make(orig))
            yield self
        finally:
            for cls, attr, orig in reversed(saved):
                setattr(cls, attr, orig)

    # -- results --------------------------------------------------------------

    def busy_frac(self, role, window_ms):
        """Busy fraction of the busiest machine or disk of ``role``
        (``cpu.client``, ``disk.nsd``, ...): the one that saturates first."""
        best = 0.0
        for key, busy in self.sums.items():
            if type(key) is tuple and self._roles.get(key[1]) == role:
                thing = key[1]
                slots = thing.cpu.capacity if isinstance(thing, Machine) else 1
                best = max(best, busy / (slots * window_ms))
        return best


def _mds_members(stack):
    """Every metadata service of a stack (group members included)."""
    if getattr(stack, "groups", None):
        return [m for group in stack.groups for m in group.members]
    return list(getattr(stack, "shards", ()))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, rnd):
    """The per-layer metrics of one traced round (see README.md)."""
    ops = rnd.timed_ops
    window = rnd.meter.sim_ms
    calls, elapsed, sums = trace.calls, trace.elapsed, trace.sums

    def per_op(count):
        return _ratio(count, ops)

    def mean_ms(name):
        return _ratio(elapsed[name], calls[name])

    hits, misses = calls["tokens.hit"], calls["tokens.miss"]
    handlers = calls["mds.handler"]
    out = {
        "net.rpcs_per_op": (per_op(calls["net.rpc"]), "count"),
        "net.bytes_per_op": (per_op(sums["net.bytes"]), "B"),
        "net.rpc_ms": (mean_ms("net.rpc"), "ms"),
        "net.transfer_wait_ms": (_ratio(sums["net.transfer_wait"],
                                        calls["net.transfer"]), "ms"),
        "cpu.busy_frac.client": (trace.busy_frac("cpu.client", window),
                                 "ratio"),
        "cpu.busy_frac.server": (trace.busy_frac("cpu.server", window),
                                 "ratio"),
        "cpu.busy_frac.mds": (trace.busy_frac("cpu.mds", window), "ratio"),
        "cpu.wait_ms": (_ratio(sums["cpu.wait"], calls["cpu.compute"]), "ms"),
        "disk.busy_frac.nsd": (trace.busy_frac("disk.nsd", window), "ratio"),
        "disk.busy_frac.mds": (trace.busy_frac("disk.mds", window), "ratio"),
        "disk.wait_ms": (_ratio(sums["disk.wait"], calls["disk.io"]), "ms"),
        "disk.ios_per_op": (per_op(calls["disk.io"]), "count"),
        "pfs.op_ms": (mean_ms("pfs.op"), "ms"),
        "tokens.acquires_per_op": (per_op(calls["tokens.acquire"]), "count"),
        "tokens.acquire_ms": (mean_ms("tokens.acquire"), "ms"),
        "tokens.revocations_per_op": (per_op(calls["tokens.revoke"]),
                                      "count"),
        "tokens.client_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "nsd.fetches_per_op": (per_op(calls["nsd.fetch"]), "count"),
        "nsd.fetch_ms": (mean_ms("nsd.fetch"), "ms"),
        "nsd.log_force_ms": (mean_ms("nsd.log_force"), "ms"),
        "cofs.mds_calls_per_op": (per_op(calls["cofs.mds_call"]), "count"),
        "router.call_ms": (mean_ms("router.call"), "ms"),
        "router.calls_per_op": (per_op(calls["router.call"]), "count"),
        "router.retries_per_op": (per_op(calls["router.retry"]), "count"),
        "mds.handler_ms": (mean_ms("mds.handler"), "ms"),
        "mds.peer_rpcs_per_op": (per_op(calls["mds.peer_rpc"]), "count"),
        "mds.forward_ratio": (_ratio(calls["mds.forwarded"], handlers),
                              "ratio"),
        "repl.ships_per_op": (per_op(calls["repl.ship"]), "count"),
        "repl.ship_ms": (mean_ms("repl.ship"), "ms"),
        "db.txns_per_op": (per_op(calls["db.txn"]), "count"),
        "db.txn_ms": (mean_ms("db.txn"), "ms"),
        "db.forces_per_op": (per_op(sums["db.forces"]), "count"),
        "db.commits_per_force": (_ratio(sums["db.commits"],
                                        sums["db.forces"]), "count"),
        "db.force_ms": (mean_ms("db.force"), "ms"),
    }
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = (per_op(trace.self_ms[layer]), "ms")
    out["unattributed_ms"] = (per_op(trace.self_ms["op"]), "ms")
    return out


# ---------------------------------------------------------------------------
# Host-time split by package
# ---------------------------------------------------------------------------

#: reported packages, most specific first.
PACKAGES = ("core.shard", "core", "sim", "net", "cluster", "pfs", "fuse",
            "db")


def _package_of(filename):
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker):].split("/")
    if parts[0] == "core" and len(parts) > 2 and parts[1] == "shard":
        return "core.shard"
    return parts[0] if len(parts) > 1 else None


def host_fractions(profile):
    """Package -> share of the host time a finished ``cProfile`` recorded.

    Built-in functions (``heappush``, ``len``, ...) have no package: their
    time goes to their callers' packages, in proportion to the calls.
    """
    stats = pstats.Stats(profile).stats
    total = 0.0
    per_package = defaultdict(float)
    for (filename, _line, _name), entry in stats.items():
        tt, callers = entry[2], entry[4]
        total += tt
        if filename != "~":
            per_package[_package_of(filename)] += tt
            continue
        caller_tt = sum(c[2] for c in callers.values())
        for (cfile, _cl, _cn), caller in callers.items():
            share = caller[2] / caller_tt if caller_tt else 1 / len(callers)
            per_package[_package_of(cfile)] += tt * share
    return {f"host.frac.{package}": _ratio(per_package[package], total)
            for package in PACKAGES}
