"""Scaled-down benchmark smoke runs: the harness-performance trajectory.

Each entry here drives a miniature version of one paper experiment and
records *wall-clock* cost alongside the simulated work done, so successive
PRs can track how fast the harness itself is (the simulated results are
checked elsewhere; this module is about seconds and ops/sec of real time).
Each record also carries ``events``: the sum of every stack's final kernel
sequence number (heap entries scheduled), summed like ``virtual_ms``.  It is
deterministic, so it tracks the harness cost of an experiment without timing
noise; only ``virtual_ms`` is gated.

``python -m repro.bench --quick --json BENCH_PR1.json`` runs the whole
suite and appends one labelled run to the JSON file, keeping earlier runs
(e.g. the pre-optimisation baseline) in place for before/after comparison.
"""

import json
import os
import re
import time

from repro.bench.report import format_table
from repro.bench.stack import CofsStack, PfsStack
from repro.bench.testbed import build_flat_testbed, build_hier_testbed
from repro.units import MB
from repro.workloads.ior import IorConfig, run_ior
from repro.workloads.metarates import MetaratesConfig, run_metarates

OPS = ("create", "stat", "utime", "open")


def _stack(system, n_clients, topology="flat"):
    if topology == "flat":
        testbed = build_flat_testbed(n_clients, with_mds=(system == "cofs"))
    else:
        testbed = build_hier_testbed(n_clients, with_mds=(system == "cofs"))
    if system == "cofs":
        return CofsStack(testbed)
    return PfsStack(testbed)


def _metarates_runs(runs):
    """Drive a list of (system, nodes, procs, files_per_proc, ops, topology)
    metarates configurations; returns (simulated_ops, final_virtual_ms,
    kernel events)."""
    ops_done = 0
    virtual_ms = 0.0
    events = 0
    for system, nodes, procs, fpp, ops, topology in runs:
        stack = _stack(system, nodes, topology=topology)
        config = MetaratesConfig(
            nodes=nodes, procs_per_node=procs, files_per_proc=fpp, ops=ops,
        )
        res = run_metarates(stack, config)
        ops_done += sum(res.recorder.count(op) for op in ops)
        virtual_ms += stack.testbed.sim.now
        events += stack.testbed.sim.sequence
    return ops_done, virtual_ms, events


def _quick_fig1():
    return _metarates_runs([
        ("pfs", 1, procs, total // procs, OPS, "flat")
        for procs in (1, 2) for total in (128, 512)
    ])


def _quick_fig2():
    return _metarates_runs([
        ("pfs", nodes, 1, 1024 // nodes, OPS, "flat") for nodes in (4, 8)
    ])


def _quick_sweep(op):
    return _metarates_runs([
        (system, 4, 1, fpn, (op,), "flat")
        for system in ("pfs", "cofs") for fpn in (32, 128)
    ])


def _quick_fig6():
    return _metarates_runs([
        (system, 8, 1, 64, OPS, "hier") for system in ("pfs", "cofs")
    ])


def _quick_scaling():
    """Sharded metadata tier at 1 and 2 shards (private-dir metarates)."""
    ops_done = 0
    virtual_ms = 0.0
    events = 0
    for n_shards in (1, 2):
        testbed = build_flat_testbed(4, with_mds=n_shards)
        stack = CofsStack(testbed)
        config = MetaratesConfig(
            nodes=4, procs_per_node=1, files_per_proc=32,
            ops=("create", "stat", "utime"), private_dirs=True,
        )
        res = run_metarates(stack, config)
        ops_done += sum(res.recorder.count(op) for op in config.ops)
        virtual_ms += stack.testbed.sim.now
        events += stack.testbed.sim.sequence
    return ops_done, virtual_ms, events


def _quick_scaling_async():
    """Sync vs async group commit at 1 and 2 shards.

    Runs the ``scaling-async`` experiment's grid at quick scale — both
    commit modes per shard count, TraceChecker over the async legs (the
    qualitative ≥2x speedup is asserted in
    ``benchmarks/test_scaling_async.py``).  The sync legs and the async
    legs are both deterministic, so the summed virtual clock is a real
    fingerprint.
    """
    from repro.bench.experiments import run_scaling_async

    out = run_scaling_async(shard_counts=(1, 2))
    return out["ops_done"], out["virtual_ms"], out["events"]


def _quick_rebalance():
    """Mirror broadcasts + online re-partitioning at small scale.

    mkdir/rmdir runs at 1 and 3 shards (two overlapped mirrors) and the
    skewed-stat / rebalance / re-run cycle at 3 shards — the wall-clock
    smoke for the re-partitioning machinery (simulated numbers are
    asserted in ``benchmarks/test_scaling_rebalance.py``).  The
    fingerprint is the experiment's summed final clocks.
    """
    from repro.bench.experiments import run_scaling_rebalance

    out = run_scaling_rebalance(shard_counts=(1, 3))
    return out["ops_done"], out["virtual_ms"], out["events"]


def _quick_split():
    """Giant-shared-directory storm, whole vs split, at 1 and 4 shards.

    The wall-clock smoke for the intra-directory partitioning machinery
    (simulated speedups are asserted in ``benchmarks/test_scaling_split.py``).
    The fingerprint is the experiment's summed final clocks.
    """
    from repro.bench.experiments import run_scaling_split

    out = run_scaling_split(shard_counts=(1, 4))
    return out["ops_done"], out["virtual_ms"], out["events"]


def _quick_failover():
    """Kill-the-primary drill on a small replicated tier.

    Runs the full failover experiment at quick scale — baseline and
    kill runs, invariant oracles included; the wall-clock smoke for the
    replication machinery (simulated numbers are asserted in
    ``benchmarks/test_scaling_failover.py``).  The fingerprint is the
    baseline and kill stacks' summed final clocks.
    """
    from repro.bench.experiments import run_scaling_failover

    out = run_scaling_failover()
    return (out["results"][("failover", "post_failover_ops")],
            out["virtual_ms"], out["events"])


def _quick_table1():
    ops_done = 0
    virtual_ms = 0.0
    events = 0
    for system in ("pfs", "cofs"):
        stack = _stack(system, 2)
        config = IorConfig(nodes=2, aggregate_bytes=64 * MB)
        run_ior(stack, config)
        # One simulated "op" per transferred chunk, write then read phase.
        ops_done += 2 * (config.aggregate_bytes // config.xfer_bytes)
        virtual_ms += stack.testbed.sim.now
        events += stack.testbed.sim.sequence
    return ops_done, virtual_ms, events


QUICK_EXPERIMENTS = {
    "fig1": _quick_fig1,
    "fig2": _quick_fig2,
    "fig4": lambda: _quick_sweep("create"),
    "fig5": lambda: _quick_sweep("stat"),
    "fig5b": lambda: _quick_sweep("utime"),
    "fig6": _quick_fig6,
    "table1": _quick_table1,
    "scaling-mds": _quick_scaling,
    "scaling-async": _quick_scaling_async,
    "scaling-rebalance": _quick_rebalance,
    "scaling-split": _quick_split,
    "scaling-failover": _quick_failover,
}


def run_quick(names=None, label=None, print_report=True, obs_dir=None):
    """Run the scaled-down suite; returns the run record (JSON-ready).

    With ``obs_dir`` set, tracing and metrics are enabled around each
    experiment and the run's spans/metrics are exported there as
    ``<name>.trace.jsonl`` / ``<name>.metrics.jsonl`` plus a per-kind
    latency aggregate (``<name>.aggregate.json``).  The instrumentation
    is charge-preserving, so the ``virtual_ms`` fingerprints must be
    byte-identical with and without it — the obs-smoke CI job asserts
    exactly that.
    """
    names = list(names) if names else sorted(QUICK_EXPERIMENTS)
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
    experiments = {}
    for name in names:
        if obs_dir is not None:
            from repro import obs
            obs.enable()
        start = time.perf_counter()
        ops_done, virtual_ms, events = QUICK_EXPERIMENTS[name]()
        wall_s = time.perf_counter() - start
        if obs_dir is not None:
            _export_obs(obs_dir, name, print_report)
            obs.disable()
        experiments[name] = {
            "wall_s": round(wall_s, 4),
            "sim_ops": ops_done,
            "ops_per_s": round(ops_done / wall_s, 1) if wall_s > 0 else 0.0,
            "virtual_ms": round(virtual_ms, 3),
            "events": events,
        }
    run = {
        "label": label or "unlabelled",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "experiments": experiments,
    }
    if print_report:
        rows = [
            [name, rec["wall_s"], rec["sim_ops"], rec["ops_per_s"],
             rec["events"]]
            for name, rec in experiments.items()
        ]
        print(format_table(
            ["experiment", "wall s", "sim ops", "ops/s", "events"], rows,
            title=f"Quick bench — {run['label']}",
        ))
    return run


def _export_obs(obs_dir, name, print_report):
    """Export the current obs run's artifacts for experiment ``name``."""
    from repro import obs

    trace_path = os.path.join(obs_dir, f"{name}.trace.jsonl")
    metrics_path = os.path.join(obs_dir, f"{name}.metrics.jsonl")
    obs.write_trace_jsonl(trace_path, obs.TRACER)
    obs.write_metrics_jsonl(metrics_path, obs.METRICS)
    aggregate = obs.aggregate_spans(obs.TRACER.spans)
    with open(os.path.join(obs_dir, f"{name}.aggregate.json"), "w") as handle:
        json.dump(aggregate, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if print_report:
        print(obs.format_aggregate(aggregate, title=f"{name} — span latency"))


def latest_reference(directory="."):
    """Path of the highest-numbered committed ``BENCH_PR<n>.json``, or None."""
    best, best_n = None, -1
    for entry in os.listdir(directory):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", entry)
        if match and int(match.group(1)) > best_n:
            best_n = int(match.group(1))
            best = os.path.join(directory, entry)
    return best


def check_fingerprints(run, ref_path):
    """Regression gate: this run's ``virtual_ms`` must match ``ref_path``.

    The simulated clock is a pure function of the modelled system, so the
    final virtual time of each quick experiment is a *fingerprint* of its
    behaviour: any drift — however small — means a change altered what the
    simulation does, not just how fast it runs.  Compares every experiment
    present in both this run and the reference file's most recent run and
    exits loudly on the first sign of drift.  Intentional behaviour changes
    re-baseline by committing a new ``BENCH_PR<n>.json`` (``--no-gate`` to
    bypass while iterating).
    """
    with open(ref_path) as handle:
        reference = json.load(handle)["runs"][-1]["experiments"]
    mismatches = []
    checked = 0
    for name, record in sorted(run["experiments"].items()):
        if name not in reference:
            continue
        checked += 1
        expected = reference[name]["virtual_ms"]
        if record["virtual_ms"] != expected:
            mismatches.append((name, expected, record["virtual_ms"]))
    if not checked:
        raise SystemExit(
            f"fingerprint gate: no experiment of this run appears in "
            f"{ref_path}; nothing was checked"
        )
    if mismatches:
        lines = "\n".join(
            f"  {name}: expected virtual_ms={expected}, got {got}"
            for name, expected, got in mismatches
        )
        raise SystemExit(
            f"fingerprint gate FAILED against {ref_path}:\n{lines}\n"
            "Simulated time drifted — the change alters modelled behaviour. "
            "If intentional, commit a new BENCH_PR<n>.json baseline; "
            "otherwise find the stray charge (--no-gate only while iterating)."
        )
    print(f"(fingerprint gate: {checked} experiments match {ref_path})")


def append_run(path, run):
    """Append ``run`` to the JSON file at ``path`` (kept as {"runs": [...]})."""
    data = {"runs": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except ValueError as exc:
            raise SystemExit(
                f"{path} exists but is not valid JSON ({exc}); refusing to "
                "overwrite it — move it aside or pass a different --json path"
            ) from None
        if "runs" not in data:
            data = {"runs": []}
    data["runs"].append(run)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data
