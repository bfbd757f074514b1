"""The metarates benchmark (UCAR / NCAR Scientific Computing Division).

Measures the rate of parallel metadata transactions on a file system.  The
paper (§II-A) uses four operations — create, stat, utime and open/close —
measured consecutively, all files in one shared directory:

- **create**: all processes create their files in parallel (timed), then the
  files are deleted;
- **stat / utime / open-close**: the *first* process creates every file
  sequentially, all processes then access their partitions in parallel
  (timed), and the first process deletes everything.

The create-by-first-node setup is load-bearing: it leaves the creator
holding exclusive dirty attribute tokens, so the parallel access phase pays
revocations — until directory size exceeds the creator's token cache, the
effect the paper's Fig. 5 shows as an expensive phase that converges.

Beyond the paper's four ops, the sharded-tier experiments add:

- **mdcreate** — metadata-only create (``mknod``: one MDS transaction, no
  underlying object), exposing the metadata tier's own create ceiling
  that the underlying-FS-bound full create hides (COFS stacks only);
- **mkdir / rmdir** — replicated-mutation latency probes (each pays one
  overlapped round of mirror RPCs to the other shards);
- ``rank_dir_names`` — explicit per-rank directories for *skewed*
  layouts (e.g. names that all hash onto one shard), paired with
  ``assume_seeded`` so a before/after-rebalance pair of runs can reuse
  one migrated file population.
"""

from dataclasses import dataclass, field

from repro.sim.stats import OpRecorder

OPS = ("create", "stat", "utime", "open")


@dataclass
class MetaratesConfig:
    """One metarates run."""

    nodes: int = 1
    procs_per_node: int = 1
    files_per_proc: int = 64
    directory: str = "/bench/shared"
    ops: tuple = OPS
    #: delete the files between phases (the benchmark always does; exposed
    #: for tests that inspect the tree afterwards).
    cleanup: bool = True
    #: give every rank its own subdirectory under ``directory`` instead of
    #: the shared one — the many-directories regime where a sharded
    #: metadata tier (partitioned by parent directory) spreads its load.
    private_dirs: bool = False
    #: explicit per-rank directory names under ``directory`` (implies the
    #: private-dirs regime).  Lets an experiment construct a *skewed*
    #: layout — e.g. names that all hash to one metadata shard — to model
    #: organic hot spots the online re-balancer must dissolve.
    rank_dir_names: tuple = ()
    #: skip the sequential seeding of access phases (stat/utime/open):
    #: the files already exist from an earlier run on the same stack.
    #: Lets before/after-rebalance runs reuse one (migrated) population.
    assume_seeded: bool = False

    @property
    def n_procs(self):
        return self.nodes * self.procs_per_node

    @property
    def total_files(self):
        return self.n_procs * self.files_per_proc

    @property
    def uses_private_dirs(self):
        return self.private_dirs or bool(self.rank_dir_names)


@dataclass
class MetaratesResult:
    """Per-operation latency summaries plus phase wall times."""

    config: MetaratesConfig
    recorder: OpRecorder
    phase_wall_ms: dict = field(default_factory=dict)

    def mean_ms(self, op):
        """Average time per operation, as the paper's figures report."""
        return self.recorder.mean(op)

    def rate_per_s(self, op):
        """Aggregate operations/second for the timed phase."""
        wall = self.phase_wall_ms.get(op)
        if not wall:
            return 0.0
        return self.recorder.count(op) / (wall / 1e3)


def _file_name(directory, rank, index):
    return f"{directory}/f.{rank:04d}.{index:06d}"


def _mkdir_p(fs, path):
    """Coroutine: create all missing components of ``path``."""
    from repro.pfs.errors import FsError

    parts = [p for p in path.split("/") if p]
    prefix = ""
    for part in parts:
        prefix = f"{prefix}/{part}"
        try:
            yield from fs.mkdir(prefix)
        except FsError as exc:
            if exc.code != "EEXIST":
                raise


def run_metarates(stack, config):
    """Run metarates against a mounted stack; returns the result.

    Drives the stack's simulator to completion (the stack must be idle).
    """
    sim = stack.testbed.sim
    recorder = OpRecorder(keep_samples=True)
    result = MetaratesResult(config=config, recorder=recorder)

    def rank_of(node, proc):
        return node * config.procs_per_node + proc

    # Per-rank path lists, built once: the same strings are walked millions
    # of times, and reusing the objects keeps downstream memo lookups cheap.
    _rank_paths = {}

    def dir_of(rank):
        if config.rank_dir_names:
            return f"{config.directory}/{config.rank_dir_names[rank]}"
        if config.private_dirs:
            return f"{config.directory}/r{rank:04d}"
        return config.directory

    def paths_of(rank):
        got = _rank_paths.get(rank)
        if got is None:
            got = _rank_paths[rank] = [
                _file_name(dir_of(rank), rank, index)
                for index in range(config.files_per_proc)
            ]
        return got

    def worker(op, node, proc):
        fs = stack.mount(node, proc)
        rank = rank_of(node, proc)
        for path in paths_of(rank):
            start = sim.now
            if op == "create":
                fh = yield from fs.create(path)
                yield from fs.close(fh)
            elif op == "stat":
                yield from fs.stat(path)
            elif op == "utime":
                yield from fs.utime(path)
            elif op == "open":
                fh = yield from fs.open(path)
                yield from fs.close(fh)
            elif op == "mdcreate":
                # Metadata-only create: one MDS transaction, no underlying
                # object — the MDS-ceiling probe (COFS stacks only).
                yield from fs.mknod(path)
            elif op == "mkdir":
                yield from fs.mkdir(path)
            elif op == "rmdir":
                yield from fs.rmdir(path)
            else:
                raise ValueError(f"unknown metarates op: {op}")
            recorder.record(op, sim.now - start)

    def all_ranks():
        for node in range(config.nodes):
            for proc in range(config.procs_per_node):
                yield node, proc

    def seq_create_all(fs):
        for node, proc in all_ranks():
            for path in paths_of(rank_of(node, proc)):
                fh = yield from fs.create(path)
                yield from fs.close(fh)

    def seq_delete_all(fs):
        for node, proc in all_ranks():
            for path in paths_of(rank_of(node, proc)):
                yield from fs.unlink(path)

    def seq_mkdir_all(fs):
        for node, proc in all_ranks():
            for path in paths_of(rank_of(node, proc)):
                yield from fs.mkdir(path)

    def parallel_phase(op):
        procs = [
            sim.process(worker(op, node, proc), name=f"mr-{op}-{node}.{proc}")
            for node, proc in all_ranks()
        ]
        start = sim.now
        yield sim.all_of(procs)
        result.phase_wall_ms[op] = sim.now - start

    def parallel_remove(op):
        def remover(node, proc):
            fs = stack.mount(node, proc)
            for path in paths_of(rank_of(node, proc)):
                if op == "rmdir":
                    yield from fs.rmdir(path)
                else:
                    yield from fs.unlink(path)

        procs = [
            sim.process(remover(node, proc), name=f"mr-del-{node}.{proc}")
            for node, proc in all_ranks()
        ]
        yield sim.all_of(procs)

    def orchestrate():
        # Sequential phases run as child processes rather than `yield from`
        # delegation: every resume of a nested op would otherwise traverse
        # the orchestrator's frame too (pure harness overhead).  Each spawn
        # adds one zero-delay turn at a quiescent phase boundary, so
        # virtual timings are unaffected.
        first = stack.mount(0, 0)

        def setup():
            from repro.pfs.errors import FsError

            yield from _mkdir_p(first, config.directory)
            if config.uses_private_dirs:
                for node, proc in all_ranks():
                    try:
                        yield from first.mkdir(dir_of(rank_of(node, proc)))
                    except FsError as exc:
                        # A re-run on the same stack (before/after-
                        # rebalance comparisons) finds them already there.
                        if exc.code != "EEXIST":
                            raise

        yield sim.process(setup(), name="mr-setup")
        for op in config.ops:
            if op in ("create", "mdcreate", "mkdir"):
                # Create-like phases: make the namespace entries in
                # parallel (timed), then drop them again.
                yield from parallel_phase(op)
                if config.cleanup:
                    yield from parallel_remove(
                        "rmdir" if op == "mkdir" else "unlink")
            elif op == "rmdir":
                yield sim.process(seq_mkdir_all(first), name="mr-seed")
                yield from parallel_phase("rmdir")
            else:
                if not config.assume_seeded:
                    yield sim.process(seq_create_all(first), name="mr-seed")
                yield from parallel_phase(op)
                if config.cleanup:
                    yield sim.process(seq_delete_all(first), name="mr-drain")

    sim.run_process(orchestrate(), name="metarates")
    return result
