"""The benchmark's three workloads: seeded inputs, drivers and oracles.

Every workload is split the same way:

- a *plan* — a pure function of ``(seed, shape)`` that picks every file
  name and every client's op sequence; the simulated system only ever
  sees the ops the plan lists;
- a *round* — builds a fresh testbed and stack (set-up), drives the plan
  through the public VFS mounts of :class:`~repro.bench.stack.PfsStack` /
  :class:`~repro.bench.stack.CofsStack`, and reads the namespace back to
  check it against the plan (the oracle).

Simulated clients are closed-loop coroutines: each issues its next op only
after the previous one returned, as metarates processes do.

A :class:`Meter` brackets the *timed* phases.  It records their simulated
duration, the kernel events they scheduled and the host CPU seconds they
took (at the reference machine's speed, see :mod:`perfbench.hostclock`),
and calls the hooks a tracer registers (see :mod:`perfbench.layers`).
A round's ``setup_s`` is its host CPU time outside the timed phases and
outside the oracle: building the stack and pre-populating the namespace,
which for metarates includes the first process's seeding and draining.
"""

import random
from dataclasses import dataclass, field

from repro.bench.stack import CofsStack, PfsStack
from repro.bench.testbed import build_flat_testbed
from repro.core.config import CofsConfig
from repro.core.faults import (
    check_group_invariants, check_tier_invariants, kill_primary,
)
from repro.pfs.errors import FsError

from perfbench.hostclock import CLOCK


# ---------------------------------------------------------------------------
# Shapes (sizes) and plans (seeded inputs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedDirShape:
    """metarates in one shared directory: ``nodes`` x 1 process."""

    nodes: int = 8
    #: 8 x 256 = 2048 entries: twice the 1024-entry client attr-token
    #: cache and the 1024-inode NSD cache (the converged Fig. 2/5 regime).
    files_per_proc: int = 256


@dataclass(frozen=True)
class MixedShape:
    """Private-directory read/write mix on the replicated sharded tier."""

    nodes: int = 8
    procs_per_node: int = 2
    #: files each private directory holds before the timed phase.
    files_per_dir: int = 16
    ops_per_client: int = 400
    shards: int = 4
    replicas: int = 2


#: op mix of ``sharded-mixed`` (weights sum to 100).
MIX = (("stat", 45), ("mknod", 17), ("utime", 15), ("rename", 10),
       ("unlink", 8), ("readdir", 5))

SHARED_PHASES = ("create", "stat", "utime", "open")


#: upper bound (ms) of the seeded start skew of each client after a phase
#: barrier: parallel processes never leave an MPI barrier in lockstep.
MAX_SKEW_MS = 1.0


def _token(rng):
    return f"{rng.getrandbits(40):010x}"


def _skew(rng):
    return rng.uniform(0.0, MAX_SKEW_MS)


@dataclass
class SharedDirPlan:
    directory: str
    #: per rank, its file paths in creation (seeding) order.
    paths: list
    #: phase -> per rank, the order that rank visits its files.
    orders: dict
    #: phase -> per rank, its start skew (ms) after the phase barrier.
    skews: dict


def plan_shared_dir(seed, shape):
    """File names and per-phase visiting orders, all drawn from ``seed``."""
    rng = random.Random(f"shared-dir:{seed}")
    directory = f"/bench/d{_token(rng)}"
    seen = set()
    paths = []
    for rank in range(shape.nodes):
        mine = []
        while len(mine) < shape.files_per_proc:
            name = f"f{rank}.{_token(rng)}"
            if name not in seen:
                seen.add(name)
                mine.append(f"{directory}/{name}")
        paths.append(mine)
    orders, skews = {}, {}
    for phase in SHARED_PHASES:
        per_rank = []
        for mine in paths:
            order = list(mine)
            rng.shuffle(order)
            per_rank.append(order)
        orders[phase] = per_rank
        skews[phase] = [_skew(rng) for _ in paths]
    return SharedDirPlan(directory=directory, paths=paths, orders=orders,
                         skews=skews)


@dataclass
class MixedPlan:
    #: per client, its two private directories.
    dirs: list
    #: per client, the files each directory holds before the timed phase.
    initial: list
    #: per client, the op list: (kind, path) or ("rename", old, new).
    ops: list
    #: per client, the files each directory must hold at the end.
    expected: list
    #: per client, its start skew (ms) into the timed phase.
    skews: list


def plan_mixed(seed, shape):
    """Private dirs, their initial files and every client's op sequence.

    The plan replays each client's ops against a model of its own two
    directories, so every listed op is valid when issued (no op fails on a
    correct system) and the final namespace is known in advance.
    """
    rng = random.Random(f"sharded-mixed:{seed}")
    kinds = [kind for kind, weight in MIX for _ in range(weight)]
    n_clients = shape.nodes * shape.procs_per_node
    dirs, initial, ops, expected, skews = [], [], [], [], []
    serial = 0

    def fresh(rank):
        nonlocal serial
        serial += 1
        return f"f{rank}.{serial}.{_token(rng)}"

    for rank in range(n_clients):
        pair = (f"/mix/c{rank}a{_token(rng)}", f"/mix/c{rank}b{_token(rng)}")
        state = [[fresh(rank) for _ in range(shape.files_per_dir)]
                 for _ in pair]
        dirs.append(pair)
        initial.append([list(names) for names in state])
        mine = []
        for _ in range(shape.ops_per_client):
            kind = rng.choice(kinds)
            side = rng.randrange(2)
            names = state[side]
            if kind in ("stat", "utime", "rename", "unlink") and not names:
                kind = "mknod"
            if kind == "mknod":
                name = fresh(rank)
                names.append(name)
                mine.append(("mknod", f"{pair[side]}/{name}"))
            elif kind == "readdir":
                mine.append(("readdir", pair[side]))
            elif kind == "rename":
                name = names.pop(rng.randrange(len(names)))
                state[1 - side].append(name)
                mine.append(("rename", f"{pair[side]}/{name}",
                             f"{pair[1 - side]}/{name}"))
            elif kind == "unlink":
                name = names.pop(rng.randrange(len(names)))
                mine.append(("unlink", f"{pair[side]}/{name}"))
            else:
                name = names[rng.randrange(len(names))]
                mine.append((kind, f"{pair[side]}/{name}"))
        ops.append(mine)
        expected.append([sorted(names) for names in state])
        skews.append(_skew(rng))
    return MixedPlan(dirs=dirs, initial=initial, ops=ops, expected=expected,
                     skews=skews)


# ---------------------------------------------------------------------------
# Measurement plumbing
# ---------------------------------------------------------------------------

class Meter:
    """Brackets timed phases: simulated ms, kernel events, host seconds."""

    def __init__(self):
        self.sim_ms = 0.0
        self.events = 0
        #: host seconds at the reference speed (see perfbench.hostclock).
        self.host_s = 0.0
        #: the same in plain CPU seconds.
        self.raw_host_s = 0.0
        #: host seconds spent in the oracle's read-back.
        self.check_s = 0.0
        #: callables ``hook(sim, starting)`` run at each timed-phase edge.
        self.hooks = []
        #: optional ``wrap(kind, op) -> op`` applied to every timed op.
        self.wrap_op = None
        self._start = None

    def begin(self, sim):
        for hook in self.hooks:
            hook(sim, True)
        self._start = (sim.now, sim._sequence, CLOCK.now(), CLOCK.raw())

    def end(self, sim):
        host, raw = CLOCK.now(), CLOCK.raw()
        now0, seq0, host0, raw0 = self._start
        self.sim_ms += sim.now - now0
        self.events += sim._sequence - seq0
        self.host_s += host - host0
        self.raw_host_s += raw - raw0
        for hook in self.hooks:
            hook(sim, False)

    def setup_s(self, host0):
        """Host seconds since ``host0`` outside the timed phases and the
        oracle."""
        return CLOCK.now() - host0 - self.host_s - self.check_s

    def check(self, sim, generator, name):
        """Coroutine: run an oracle read-back, off the set-up clock."""
        host0 = CLOCK.now()
        yield sim.process(generator, name=name)
        self.check_s += CLOCK.now() - host0


@dataclass
class Round:
    """Everything one round of a workload measured."""

    meter: Meter
    setup_s: float = 0.0
    #: op kind -> simulated latencies (ms) of the timed ops.
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: oracle violations (empty on a correct run).
    errors: list = field(default_factory=list)
    #: (final simulated clock, final kernel sequence number).
    fingerprint: tuple = ()
    failover_gap_ms: float = None

    @property
    def timed_ops(self):
        return sum(len(v) for v in self.latencies.values())


def _timed_op(sim, rnd, kind, op):
    """Coroutine: run one timed op, recording its latency or its failure."""
    if rnd.meter.wrap_op is not None:
        op = rnd.meter.wrap_op(kind, op)
    rnd.attempted += 1
    start = sim.now
    try:
        yield from op
    except FsError as exc:
        rnd.failed += 1
        rnd.errors.append(f"{kind} failed: {exc}")
        return
    rnd.latencies.setdefault(kind, []).append(sim.now - start)


def _check_listing(rnd, fs_listing, path, want):
    got = sorted(fs_listing)
    if got != sorted(want):
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        rnd.errors.append(
            f"{path}: listing has {len(got)} entries, plan expects "
            f"{len(want)} (missing {missing}, unexpected {extra})")


# ---------------------------------------------------------------------------
# Workload rounds
# ---------------------------------------------------------------------------

def _mkdir_p(fs, path):
    prefix = ""
    for part in path.strip("/").split("/"):
        prefix = f"{prefix}/{part}"
        try:
            yield from fs.mkdir(prefix)
        except FsError as exc:
            if exc.code != "EEXIST":
                raise


def run_shared_dir(system, plan, shape, on_setup=None):
    """One metarates round in one shared directory (bare PFS or COFS).

    Phase order is metarates' (paper §II-A): parallel create, parallel
    remove; then, per access op, the first process seeds every file, all
    processes access their own files in parallel, and the first process
    deletes everything.  Only the parallel create/access phases are timed.
    After each timed phase the directory is listed through node 0's mount
    and compared with the plan.
    """
    meter = Meter()
    host0 = CLOCK.now()
    if system == "pfs":
        testbed = build_flat_testbed(shape.nodes)
        stack = PfsStack(testbed)
    else:
        testbed = build_flat_testbed(shape.nodes, with_mds=True)
        stack = CofsStack(testbed)
    sim = testbed.sim
    first = stack.mount(0, 0)
    sim.run_process(_mkdir_p(first, plan.directory), name="pb-setup")
    rnd = Round(meter=meter)
    if on_setup is not None:
        on_setup(rnd, stack)
    everything = [path for mine in plan.paths for path in mine]
    names = [path.rpartition("/")[2] for path in everything]

    def access(kind, fs, path):
        if kind == "create":
            fh = yield from fs.create(path)
            yield from fs.close(fh)
        elif kind == "stat":
            attr = yield from fs.stat(path)
            if attr.is_dir:
                rnd.errors.append(f"stat {path}: a directory")
        elif kind == "utime":
            yield from fs.utime(path)
        else:
            fh = yield from fs.open(path)
            yield from fs.close(fh)

    def worker(kind, rank):
        fs = stack.mount(rank, 0)
        yield sim.timeout(plan.skews[kind][rank])
        for path in plan.orders[kind][rank]:
            yield from _timed_op(sim, rnd, kind, access(kind, fs, path))

    def remover(rank):
        fs = stack.mount(rank, 0)
        for path in plan.paths[rank]:
            yield from fs.unlink(path)

    def seed_all():
        for path in everything:
            fh = yield from first.create(path)
            yield from first.close(fh)

    def drain_all():
        for path in everything:
            yield from first.unlink(path)

    def listing(want):
        got = yield from first.readdir(plan.directory)
        _check_listing(rnd, got, plan.directory, want)

    def orchestrate():
        for kind in SHARED_PHASES:
            if kind != "create":
                yield sim.process(seed_all(), name="pb-seed")
            meter.begin(sim)
            yield sim.all_of([
                sim.process(worker(kind, rank), name=f"pb-{kind}-{rank}")
                for rank in range(shape.nodes)
            ])
            meter.end(sim)
            yield from meter.check(sim, listing(names), "pb-list")
            if kind == "create":
                yield sim.all_of([
                    sim.process(remover(rank), name=f"pb-rm-{rank}")
                    for rank in range(shape.nodes)
                ])
            else:
                yield sim.process(drain_all(), name="pb-drain")
        yield from meter.check(sim, listing([]), "pb-list")

    sim.run_process(orchestrate(), name="pb-metarates")
    rnd.setup_s = meter.setup_s(host0)
    rnd.fingerprint = (sim.now, sim._sequence)
    return rnd


def run_mixed(plan, shape, on_setup=None):
    """One round of the private-directory mix on the sharded tier.

    Set-up builds a ``shards x replicas`` tier with asynchronous group
    commit and pre-populates every client's two directories.  The timed
    phase runs all clients' op lists in parallel, in two halves separated
    by a barrier.  At the barrier, with no op in flight, the primary of the
    *victim* group dies: the one serving client 0's first directory, so
    timed ops reach it.  The first op that reaches the dead primary makes
    its router drive the failover, which must happen inside the second
    timed half.  The oracle lists every directory through its client's
    mount, then checks the tier-wide and replica-group invariants.
    """
    meter = Meter()
    host0 = CLOCK.now()
    testbed = build_flat_testbed(
        shape.nodes, with_mds=shape.shards * shape.replicas)
    stack = CofsStack(testbed, shards=shape.shards, replicas=shape.replicas,
                      cofs_config=CofsConfig(async_commit=True))
    sim = testbed.sim
    n_clients = shape.nodes * shape.procs_per_node
    victim = stack.groups[stack.sharding.shard_of_dir(plan.dirs[0][0],
                                                      shape.shards)]

    def mount_of(rank):
        return stack.mount(rank // shape.procs_per_node,
                           rank % shape.procs_per_node)

    def populate(rank):
        fs = mount_of(rank)
        for path, names in zip(plan.dirs[rank], plan.initial[rank]):
            yield from fs.mkdir(path)
            for name in names:
                yield from fs.mknod(f"{path}/{name}")

    def setup():
        yield from _mkdir_p(mount_of(0), "/mix")
        yield sim.all_of([sim.process(populate(rank), name=f"pb-pop-{rank}")
                          for rank in range(n_clients)])

    sim.run_process(setup(), name="pb-setup")
    rnd = Round(meter=meter)
    if on_setup is not None:
        on_setup(rnd, stack)
    #: the victim's failover count when the timed window closed.
    timed_failovers = []

    def issue(fs, op):
        kind = op[0]
        if kind == "stat":
            yield from fs.stat(op[1])
        elif kind == "mknod":
            yield from fs.mknod(op[1])
        elif kind == "utime":
            yield from fs.utime(op[1])
        elif kind == "rename":
            yield from fs.rename(op[1], op[2])
        elif kind == "unlink":
            yield from fs.unlink(op[1])
        else:
            yield from fs.readdir(op[1])

    def client(rank, ops):
        fs = mount_of(rank)
        yield sim.timeout(plan.skews[rank])
        for op in ops:
            kind = "create" if op[0] == "mknod" else op[0]
            yield from _timed_op(sim, rnd, kind, issue(fs, op))

    def half(index):
        """Every client runs its ``index``-th half of its op list."""
        yield sim.all_of([
            sim.process(client(rank, ops[:len(ops) // 2] if index == 0
                               else ops[len(ops) // 2:]),
                        name=f"pb-mix-{rank}")
            for rank, ops in enumerate(plan.ops)])

    def check(rank):
        fs = mount_of(rank)
        for path, want in zip(plan.dirs[rank], plan.expected[rank]):
            got = yield from fs.readdir(path)
            _check_listing(rnd, got, path, want)

    def orchestrate():
        meter.begin(sim)
        yield from half(0)
        meter.end(sim)
        kill_primary(victim)
        meter.begin(sim)
        yield from half(1)
        meter.end(sim)
        # Before the oracle, whose read-backs could drive a failover too.
        timed_failovers.append(victim.failovers)
        for rank in range(n_clients):
            yield from meter.check(sim, check(rank), f"pb-check-{rank}")
        yield from meter.check(sim, check_top(), "pb-check-top")

    def check_top():
        top = yield from mount_of(0).readdir("/mix")
        _check_listing(rnd, top, "/mix",
                       [d.rpartition("/")[2] for pair in plan.dirs
                        for d in pair])

    sim.run_process(orchestrate(), name="pb-mixed")
    rnd.setup_s = meter.setup_s(host0)
    rnd.fingerprint = (sim.now, sim._sequence)
    if timed_failovers != [1] or victim.failovers != 1:
        rnd.errors.append(
            f"expected one failover of the victim group inside the timed "
            f"window, saw {timed_failovers[:1]} there and "
            f"{victim.failovers} in all")
    else:
        started, served = victim.last_failover
        rnd.failover_gap_ms = served - started
    try:
        check_tier_invariants(stack.primaries, stack.sharding)
        check_group_invariants(stack.groups)
    except AssertionError as exc:
        rnd.errors.append(f"tier invariant: {exc}")
    return rnd


WORKLOADS = ("pfs-shared-dir", "cofs-shared-dir", "sharded-mixed")


def run_round(workload, seed, scale=1.0, on_setup=None):
    """Plan and run one round of ``workload`` at ``seed``.

    ``scale`` shrinks the per-client work (the self-test uses a tiny one);
    the measured benchmark always runs at 1.0.  ``on_setup(round, stack)``
    is called once the stack is built and the namespace pre-populated.
    """
    if workload == "sharded-mixed":
        shape = MixedShape()
        if scale != 1.0:
            shape = MixedShape(
                nodes=2, files_per_dir=max(2, int(16 * scale)),
                ops_per_client=max(40, int(400 * scale)))
        return run_mixed(plan_mixed(seed, shape), shape, on_setup)
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SharedDirShape()
    if scale != 1.0:
        shape = SharedDirShape(nodes=2,
                               files_per_proc=max(4, int(256 * scale)))
    system = workload.split("-", 1)[0]
    return run_shared_dir(system, plan_shared_dir(seed, shape), shape,
                          on_setup)
