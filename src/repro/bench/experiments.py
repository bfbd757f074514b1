"""Experiment runners — one per figure/table of the paper.

Every function builds fresh testbeds, drives the matching workload and
returns a structured result dict; ``print_report=True`` also prints the
series/table in the paper's layout.  See DESIGN.md §5 for the experiment
index and EXPERIMENTS.md for measured-vs-paper numbers.

Scope control: the full paper sweeps (up to 8192 files per node, 4 GB IOR
aggregates) take several minutes of wall time; by default the runners use a
log-spaced subset that exhibits every effect, and ``full=True`` (or the
REPRO_FULL=1 environment variable) restores the complete grids.
"""

import dataclasses
import os

from repro import obs
from repro.bench.report import format_series, format_table
from repro.bench.stack import CofsStack, PfsStack
from repro.bench.testbed import build_flat_testbed, build_hier_testbed
from repro.core.config import CofsConfig
from repro.core.placement import HashPlacementPolicy, IdentityPlacementPolicy
from repro.core.sharding import SubtreeSharding
from repro.db.service import DbConfig
from repro.units import GB, MB
from repro.workloads.ior import IorConfig, run_ior
from repro.workloads.metarates import MetaratesConfig, run_metarates
from repro.workloads.traces import TraceConfig, run_trace

OPS = ("create", "stat", "utime", "open")


def _full(full):
    return full or os.environ.get("REPRO_FULL") == "1"


def _stack(system, n_clients, topology="flat", **kwargs):
    if topology == "flat":
        testbed = build_flat_testbed(n_clients, with_mds=(system == "cofs"))
    else:
        testbed = build_hier_testbed(n_clients, with_mds=(system == "cofs"))
    if system == "cofs":
        return CofsStack(testbed, **kwargs)
    return PfsStack(testbed)


def _metarates(system, nodes, files_per_proc, ops, procs_per_node=1,
               topology="flat", **stack_kwargs):
    stack = _stack(system, nodes, topology=topology, **stack_kwargs)
    config = MetaratesConfig(
        nodes=nodes, procs_per_node=procs_per_node,
        files_per_proc=files_per_proc, ops=ops,
    )
    return run_metarates(stack, config)


# ---------------------------------------------------------------------------
# EXP-F1 — Fig. 1: effect of directory size, single node, 1 and 2 processes
# ---------------------------------------------------------------------------

def run_fig1(full=False, print_report=False):
    """GPFS metadata times vs entries per directory on one node."""
    sizes = (128, 256, 512, 1024, 1536, 2048, 2560) if _full(full) \
        else (128, 512, 1024, 2048)
    results = {}
    for procs in (1, 2):
        for total in sizes:
            res = _metarates(
                "pfs", 1, total // procs, OPS, procs_per_node=procs
            )
            for op in OPS:
                results[(op, procs, total)] = res.mean_ms(op)
    out = {"sizes": sizes, "results": results}
    if print_report:
        for op in OPS:
            series = {
                f"{procs} process(es)": [
                    (total, results[(op, procs, total)]) for total in sizes
                ]
                for procs in (1, 2)
            }
            print(format_series(
                f"Fig 1 — avg time per {op} (single node)",
                "files/dir", "ms/op", series,
            ))
            print()
    return out


# ---------------------------------------------------------------------------
# EXP-F2 — Fig. 2: parallel metadata behaviour of GPFS
# ---------------------------------------------------------------------------

def run_fig2(full=False, print_report=False):
    """GPFS metadata times for 4/8 nodes and 1024/4096/16384 files."""
    totals = (1024, 4096, 16384) if _full(full) else (1024, 4096)
    node_counts = (4, 8)
    results = {}
    for nodes in node_counts:
        for total in totals:
            res = _metarates("pfs", nodes, total // nodes, OPS)
            for op in OPS:
                results[(op, nodes, total)] = res.mean_ms(op)
    out = {"totals": totals, "nodes": node_counts, "results": results}
    if print_report:
        rows = [
            [op, nodes, total, results[(op, nodes, total)]]
            for op in OPS for nodes in node_counts for total in totals
        ]
        print(format_table(
            ["operation", "nodes", "files", "ms/op"], rows,
            title="Fig 2 — parallel metadata behaviour of GPFS",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-F4 / EXP-F5 / EXP-F5b — Figs. 4-5: GPFS vs COFS sweeps
# ---------------------------------------------------------------------------

def _sweep(op, full):
    files_per_node = (32, 128, 512, 2048, 8192) if _full(full) \
        else (32, 128, 512, 2048)
    node_counts = (4, 8)
    results = {}
    for system in ("pfs", "cofs"):
        for nodes in node_counts:
            for fpn in files_per_node:
                res = _metarates(system, nodes, fpn, (op,))
                results[(system, nodes, fpn)] = res.mean_ms(op)
    return {"files_per_node": files_per_node, "nodes": node_counts,
            "results": results, "op": op}


def _print_sweep(out, figure):
    op = out["op"]
    for system in ("pfs", "cofs"):
        label = "pure GPFS" if system == "pfs" else "COFS over GPFS"
        series = {
            f"{nodes} nodes": [
                (fpn, out["results"][(system, nodes, fpn)])
                for fpn in out["files_per_node"]
            ]
            for nodes in out["nodes"]
        }
        print(format_series(
            f"{figure} — avg {op} time ({label})",
            "files/node", "ms/op", series,
        ))
        print()


def run_fig4(full=False, print_report=False):
    """Create time, pure GPFS vs COFS over GPFS (paper Fig. 4)."""
    out = _sweep("create", full)
    if print_report:
        _print_sweep(out, "Fig 4")
    return out


def run_fig5(full=False, print_report=False):
    """Stat time, pure GPFS vs COFS over GPFS (paper Fig. 5)."""
    out = _sweep("stat", full)
    if print_report:
        _print_sweep(out, "Fig 5")
    return out


def run_fig5b(full=False, print_report=False):
    """utime and open/close sweeps (reported in prose in §IV-A)."""
    utime = _sweep("utime", full)
    open_close = _sweep("open", full)
    if print_report:
        _print_sweep(utime, "Fig 5b (utime)")
        _print_sweep(open_close, "Fig 5b (open/close)")
    return {"utime": utime, "open": open_close}


# ---------------------------------------------------------------------------
# EXP-F6 — Fig. 6: 64 nodes, 256 files per node, hierarchical network
# ---------------------------------------------------------------------------

def run_fig6(full=False, print_report=False, nodes=None, files_per_node=256):
    """Operation times on the large hierarchical cluster, GPFS vs COFS."""
    nodes = nodes or (64 if _full(full) else 32)
    results = {}
    for system in ("pfs", "cofs"):
        res = _metarates(system, nodes, files_per_node, OPS,
                         topology="hier")
        for op in OPS:
            results[(system, op)] = res.mean_ms(op)
    out = {"nodes": nodes, "files_per_node": files_per_node,
           "results": results}
    if print_report:
        rows = [
            [op, results[("pfs", op)], results[("cofs", op)]]
            for op in OPS
        ]
        print(format_table(
            ["operation", "gpfs ms/op", "cofs ms/op"], rows,
            title=(f"Fig 6 — {nodes} nodes, {files_per_node} files/node "
                   "(shared dir)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-T1 — Table I: impact of COFS on data transfers (IOR)
# ---------------------------------------------------------------------------

def run_table1(full=False, print_report=False):
    """IOR read/write bandwidth, GPFS vs COFS, per Table I's matrix."""
    sizes = (256 * MB, 1 * GB, 4 * GB) if _full(full) else (256 * MB, 1 * GB)
    node_counts = (1, 4, 8)
    cells = {}
    for target in ("separate", "shared"):
        for pattern in ("seq", "random"):
            for nodes in node_counts:
                for agg in sizes:
                    for system in ("pfs", "cofs"):
                        stack = _stack(system, nodes)
                        result = run_ior(stack, IorConfig(
                            nodes=nodes, aggregate_bytes=agg,
                            pattern=pattern, target=target,
                        ))
                        key = (target, pattern, nodes, agg, system)
                        cells[key] = (result.write_mbps, result.read_mbps)
    out = {"sizes": sizes, "nodes": node_counts, "cells": cells}
    if print_report:
        rows = []
        for target in ("separate", "shared"):
            for pattern in ("seq", "random"):
                for nodes in node_counts:
                    for agg in sizes:
                        g = cells[(target, pattern, nodes, agg, "pfs")]
                        c = cells[(target, pattern, nodes, agg, "cofs")]
                        rows.append([
                            target, pattern, nodes, agg // MB,
                            g[0], c[0], g[1], c[1],
                        ])
        print(format_table(
            ["target", "pattern", "nodes", "MB total",
             "gpfs w MB/s", "cofs w MB/s", "gpfs r MB/s", "cofs r MB/s"],
            rows, title="Table I — IOR aggregate bandwidth",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-A1 — ablation: placement policy variants
# ---------------------------------------------------------------------------

def run_ablation_placement(full=False, print_report=False):
    """Isolate what the placement policy contributes.

    - identity: pure interposition, no reorganization (the virtualization
      overhead with none of its benefit);
    - hash: per-(node, parent, pid) directories, no randomization level;
    - hash+rand: the paper's policy.
    """
    nodes = 4
    fpn = 512 if _full(full) else 256
    variants = {}
    cfg = CofsConfig()
    variants["identity"] = IdentityPlacementPolicy(cfg)
    variants["hash"] = HashPlacementPolicy(cfg, randomize=False)
    variants["hash+rand"] = HashPlacementPolicy(cfg, randomize=True)
    results = {}
    baseline = _metarates("pfs", nodes, fpn, ("create", "stat"))
    results[("gpfs", "create")] = baseline.mean_ms("create")
    results[("gpfs", "stat")] = baseline.mean_ms("stat")
    for name, policy in variants.items():
        res = _metarates("cofs", nodes, fpn, ("create", "stat"),
                         policy=policy)
        results[(name, "create")] = res.mean_ms("create")
        results[(name, "stat")] = res.mean_ms("stat")
    out = {"results": results, "nodes": nodes, "files_per_node": fpn}
    if print_report:
        rows = [
            [name, results[(name, "create")], results[(name, "stat")]]
            for name in ("gpfs", "identity", "hash", "hash+rand")
        ]
        print(format_table(
            ["layout policy", "create ms/op", "stat ms/op"], rows,
            title=f"Ablation — placement policy ({nodes} nodes)",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-A2 — ablation: metadata-service durability
# ---------------------------------------------------------------------------

def run_ablation_mds(full=False, print_report=False):
    """Sync vs async metadata-service logging (Mnesia dump policy)."""
    nodes = 4
    fpn = 512 if _full(full) else 256
    results = {}
    for mode, sync in (("sync-log", True), ("async-log", False)):
        cofs_cfg = CofsConfig(db=DbConfig(sync_updates=sync))
        res = _metarates("cofs", nodes, fpn, ("create", "utime"),
                         cofs_config=cofs_cfg)
        results[(mode, "create")] = res.mean_ms("create")
        results[(mode, "utime")] = res.mean_ms("utime")
    out = {"results": results, "nodes": nodes, "files_per_node": fpn}
    if print_report:
        rows = [
            [mode, results[(mode, "create")], results[(mode, "utime")]]
            for mode in ("sync-log", "async-log")
        ]
        print(format_table(
            ["MDS durability", "create ms/op", "utime ms/op"], rows,
            title=f"Ablation — metadata service logging ({nodes} nodes)",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S1 — beyond the paper: metadata throughput vs number of MDS shards
# ---------------------------------------------------------------------------

def run_scaling_mds(full=False, print_report=False, shard_counts=None):
    """Aggregate metadata throughput as the metadata tier gains shards.

    Two workloads per shard count:

    - **metarates** in the many-directories regime (``private_dirs``: one
      directory per rank, so hash-by-parent-directory spreads ranks over
      shards).  Reported per-op rates and their sum over the original
      create/stat/utime trio (the ``mix`` row) are the
      throughput-vs-shards curve.  ``stat`` scales near-linearly
      (pure MDS CPU); ``utime`` sub-linearly (group-committed log forces
      batch *better* on fewer shards); ``create`` is bounded by the
      underlying file system, not the MDS — the floor virtualization
      cannot remove.  ``mdcreate`` (metadata-only create, no underlying
      object) runs as a fourth phase to expose the MDS's own create
      ceiling that the full create hides behind that floor; it is
      reported separately and deliberately kept out of ``mix`` so the
      historical curve stays comparable.
    - **traces**, the production mix, split across shards with the static
      :class:`SubtreeSharding` policy.  It is data-bound, so the check
      here is stability: per-class latencies must not regress when the
      namespace is partitioned.

    ``shard_counts`` (or the ``REPRO_SCALING_SHARDS`` environment
    variable, e.g. ``1,2``) overrides the default grid.
    """
    if shard_counts is None:
        env = os.environ.get("REPRO_SCALING_SHARDS")
        if env:
            shard_counts = tuple(int(tok) for tok in env.split(",") if tok)
        else:
            shard_counts = (1, 2, 4, 8) if _full(full) else (1, 2, 4)
    nodes = 16 if _full(full) else 8
    procs_per_node = 2
    fpp = 64 if _full(full) else 32
    # mdcreate runs last: the earlier phases' timings are untouched, so
    # the create/stat/utime/mix columns stay digit-identical to PR 2/3.
    ops = ("create", "stat", "utime", "mdcreate")
    trace_split = SubtreeSharding(
        {"/project/checkpoints": 0, "/project/results": 1}
    )
    results = {}
    for n_shards in shard_counts:
        testbed = build_flat_testbed(nodes, with_mds=n_shards)
        stack = CofsStack(testbed)
        res = run_metarates(stack, MetaratesConfig(
            nodes=nodes, procs_per_node=procs_per_node, files_per_proc=fpp,
            ops=ops, private_dirs=True,
        ))
        for op in ops:
            results[("metarates", op, n_shards)] = res.rate_per_s(op)
        results[("metarates", "mix", n_shards)] = sum(
            res.rate_per_s(op) for op in ("create", "stat", "utime")
        )
        trace_bed = build_flat_testbed(9, with_mds=n_shards)
        trace_stack = CofsStack(trace_bed, sharding=trace_split)
        trace = run_trace(trace_stack, TraceConfig(
            duration_ms=4000.0 if _full(full) else 2000.0,
        )).summary()
        results[("traces", "job_ms", n_shards)] = trace["job_ms"]
        results[("traces", "checkpoint_ms", n_shards)] = \
            trace["checkpoint_ms"]
        results[("traces", "jobs", n_shards)] = trace["jobs_completed"]
    out = {"shards": tuple(shard_counts), "nodes": nodes,
           "procs_per_node": procs_per_node, "files_per_proc": fpp,
           "ops": ops, "results": results}
    if print_report:
        rows = [
            [n_shards] +
            [round(results[("metarates", op, n_shards)], 1)
             for op in ops + ("mix",)] +
            [round(results[("traces", "job_ms", n_shards)], 2),
             results[("traces", "jobs", n_shards)]]
            for n_shards in shard_counts
        ]
        print(format_table(
            ["shards", "create/s", "stat/s", "utime/s", "mdcreate/s",
             "mix/s", "trace job ms", "trace jobs"], rows,
            title=(f"Scaling — metadata shards ({nodes} nodes x "
                   f"{procs_per_node} procs, private dirs)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S2 — beyond the paper: mirror broadcasts and online re-partitioning
# ---------------------------------------------------------------------------

def _colliding_dir_names(sharding, parent, count, n_shards, shard=0):
    """``count`` directory names under ``parent`` all owned by ``shard``.

    Models organic hot-spotting: with hash partitioning, independent
    directory names collide on one shard with probability 1/N each — an
    experiment just fast-forwards the search for a colliding set.
    """
    names = []
    index = 0
    while len(names) < count:
        name = f"s{index:04d}"
        if sharding.shard_of_dir(f"{parent}/{name}", n_shards) == shard:
            names.append(name)
        index += 1
    return tuple(names)


def run_scaling_rebalance(full=False, print_report=False, shard_counts=None):
    """Mirror-broadcast latency and online load-aware re-partitioning.

    Two sub-experiments beyond ``scaling-mds``:

    - **mkdir/rmdir latency vs shard count**: every mkdir/rmdir is a
      replicated mutation — local transaction plus one mirror RPC per
      peer — so a sharded tier pays a peer round trip a single shard
      does not.  The mirrors overlap, so adding peers costs the *max*
      of their round trips, not the sum: latency stays roughly flat
      from 2 shards up.
    - **skewed-workload throughput before/after migration**: every rank
      directory is chosen to hash onto shard 0 (see
      :func:`_colliding_dir_names`), so a stat-heavy workload bottlenecks
      there no matter how many shards exist.  The
      :class:`~repro.core.shard.rebalance.Rebalancer` then samples the
      routers' load counters and re-homes the hot directories; the same
      workload re-runs against the *migrated* population
      (``assume_seeded``) and its throughput recovers toward the
      unskewed curve.

    ``shard_counts`` (or ``REPRO_REBALANCE_SHARDS``, e.g. ``1,2``)
    overrides the default grid of the latency sweep; the skew experiment
    uses the counts > 1.  ``virtual_ms`` sums every stack's final clock
    (a deterministic fingerprint of the whole run).
    """
    from repro.core.shard import Rebalancer

    if shard_counts is None:
        env = os.environ.get("REPRO_REBALANCE_SHARDS")
        if env:
            shard_counts = tuple(int(tok) for tok in env.split(",") if tok)
        else:
            shard_counts = (1, 2, 4, 8) if _full(full) else (1, 2, 4)
    nodes = 8 if _full(full) else 4
    dirs_per_proc = 32 if _full(full) else 16
    results = {}
    ops_done = 0  # measured ops actually driven (quick-bench volume)
    virtual_ms = 0.0
    events = 0

    # (a) mkdir/rmdir latency vs shard count.
    for n_shards in shard_counts:
        testbed = build_flat_testbed(nodes, with_mds=n_shards)
        res = run_metarates(CofsStack(testbed), MetaratesConfig(
            nodes=nodes, files_per_proc=dirs_per_proc,
            ops=("mkdir", "rmdir"),
        ))
        for op in ("mkdir", "rmdir"):
            results[(op, n_shards)] = res.mean_ms(op)
            ops_done += res.recorder.count(op)
        virtual_ms += testbed.sim.now
        events += testbed.sim.sequence

    # (b) skewed stat workload, before/after online re-partitioning.
    skew_counts = [n for n in shard_counts if n > 1]
    procs_per_node = 2
    fpp = 64 if _full(full) else 32
    for n_shards in skew_counts:
        testbed = build_flat_testbed(nodes, with_mds=n_shards)
        stack = CofsStack(testbed)
        names = _colliding_dir_names(
            stack.sharding, "/bench/shared",
            nodes * procs_per_node, n_shards)
        config = MetaratesConfig(
            nodes=nodes, procs_per_node=procs_per_node,
            files_per_proc=fpp, ops=("stat",),
            rank_dir_names=names, cleanup=False,
        )
        skewed = run_metarates(stack, config)
        results[("skew-stat", n_shards, "before")] = skewed.rate_per_s("stat")
        rebalancer = Rebalancer(stack.routers, stack.shards)
        moves = stack.testbed.sim.run_process(rebalancer.rebalance())
        results[("skew-moves", n_shards)] = len(moves)
        rerun = run_metarates(
            stack, dataclasses.replace(config, assume_seeded=True))
        results[("skew-stat", n_shards, "after")] = rerun.rate_per_s("stat")
        ops_done += skewed.recorder.count("stat") + rerun.recorder.count("stat")
        virtual_ms += testbed.sim.now
        events += testbed.sim.sequence

    out = {"shards": tuple(shard_counts), "nodes": nodes,
           "dirs_per_proc": dirs_per_proc, "ops_done": ops_done,
           "virtual_ms": virtual_ms, "events": events, "results": results}
    if print_report:
        rows = [
            [n_shards, op, round(results[(op, n_shards)], 4)]
            for n_shards in shard_counts for op in ("mkdir", "rmdir")
        ]
        print(format_table(
            ["shards", "op", "ms/op"], rows,
            title=f"Replicated mkdir/rmdir latency ({nodes} nodes)",
        ))
        rows = [
            [n_shards,
             round(results[("skew-stat", n_shards, "before")], 1),
             round(results[("skew-stat", n_shards, "after")], 1),
             results[("skew-moves", n_shards)]]
            for n_shards in skew_counts
        ]
        print(format_table(
            ["shards", "skewed stat/s", "rebalanced stat/s", "dirs moved"],
            rows,
            title=(f"Skewed workload vs online re-partitioning "
                   f"({nodes} nodes x {procs_per_node} procs)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S4 — beyond the paper: giant shared directories vs intra-dir splitting
# ---------------------------------------------------------------------------

def run_scaling_split(full=False, print_report=False, shard_counts=None):
    """Create-storm into ONE shared directory, whole vs split placement.

    The giant-directory regime the paper's Fig. 6 measures (every rank
    creating into the same directory) is the one workload whole-directory
    placement cannot help: the directory has exactly one owner shard, so
    the storm serializes there no matter how many shards the tier has —
    and re-homing only moves the ceiling.  Intra-directory partitioning
    hash-splits the directory's *entries* across shards; the same storm
    then spreads.

    Per shard count the storm runs twice, on fresh stacks:

    - **unsplit** — the directory left whole.  The mdcreate/stat rates
      stay flat as shards are added (the single-owner ceiling);
    - **split** — a short warmup storm first lets the
      :class:`~repro.core.shard.rebalance.Rebalancer` (armed with
      ``split_threshold``) sample the hotspot and hash-partition the
      directory across every shard, then the measured storm re-runs.
      ``mdcreate`` isolates the metadata tier (no underlying object), so
      its rate is the scaling headline; ``stat`` rides along as the
      read-side check.

    Every split run ends under the tier-wide invariant oracle.
    ``shard_counts`` (or ``REPRO_SPLIT_SHARDS``, e.g. ``1,4``) overrides
    the default grid.
    """
    from repro.core.faults import check_tier_invariants
    from repro.core.shard import Rebalancer

    if shard_counts is None:
        env = os.environ.get("REPRO_SPLIT_SHARDS")
        if env:
            shard_counts = tuple(int(tok) for tok in env.split(",") if tok)
        else:
            shard_counts = (1, 2, 4, 8) if _full(full) else (1, 2, 4)
    # The storm must *saturate* one shard for splitting to have anything
    # to spread: with few ranks every op is latency-bound and extra
    # shards buy nothing, so this experiment runs wider than the other
    # scaling sweeps.
    nodes = 16 if _full(full) else 8
    procs_per_node = 8
    fpp = 64 if _full(full) else 32
    ops = ("mdcreate", "stat")
    results = {}
    ops_done = 0
    virtual_ms = 0.0
    events = 0
    for n_shards in shard_counts:
        for mode in ("unsplit", "split"):
            if mode == "split" and n_shards == 1:
                # One shard has nothing to split across; the whole-dir
                # run doubles as the baseline both columns share.
                for op in ops:
                    results[(op, 1, "split")] = results[(op, 1, "unsplit")]
                results[("split-dirs", 1)] = 0
                continue
            testbed = build_flat_testbed(nodes, with_mds=n_shards)
            stack = CofsStack(testbed)
            config = MetaratesConfig(
                nodes=nodes, procs_per_node=procs_per_node,
                files_per_proc=fpp, ops=ops,
            )
            if mode == "split":
                # Warmup storm: enough traffic for the routers to sample
                # the hotspot, then one rebalancer round splits it.
                run_metarates(stack, dataclasses.replace(
                    config, files_per_proc=4, ops=("mdcreate",)))
                rebalancer = Rebalancer(
                    stack.routers, stack.shards, split_threshold=1.0)
                executed = stack.testbed.sim.run_process(
                    rebalancer.rebalance())
                splits = [rec for rec in executed if len(rec[2]) > 1]
                results[("split-dirs", n_shards)] = len(splits)
            res = run_metarates(stack, config)
            for op in ops:
                results[(op, n_shards, mode)] = res.rate_per_s(op)
                results[(op, n_shards, mode, "mean_ms")] = res.mean_ms(op)
            ops_done += sum(res.recorder.count(op) for op in ops)
            virtual_ms += stack.testbed.sim.now
            events += stack.testbed.sim.sequence
            if mode == "split":
                check_tier_invariants(stack.shards, stack.sharding)
    out = {"shards": tuple(shard_counts), "nodes": nodes,
           "procs_per_node": procs_per_node, "files_per_proc": fpp,
           "ops": ops, "ops_done": ops_done, "virtual_ms": virtual_ms,
           "events": events, "results": results}
    if print_report:
        rows = [
            [n_shards,
             round(results[("mdcreate", n_shards, "unsplit")], 1),
             round(results[("mdcreate", n_shards, "split")], 1),
             round(results[("stat", n_shards, "unsplit")], 1),
             round(results[("stat", n_shards, "split")], 1),
             results[("split-dirs", n_shards)]]
            for n_shards in shard_counts
        ]
        print(format_table(
            ["shards", "mdcreate/s whole", "mdcreate/s split",
             "stat/s whole", "stat/s split", "dirs split"], rows,
            title=(f"Giant shared directory — whole vs split placement "
                   f"({nodes} nodes x {procs_per_node} procs, one dir)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S3 — beyond the paper: primary failover under load
# ---------------------------------------------------------------------------

def run_scaling_failover(full=False, print_report=False):
    """Kill a shard's primary under metadata load; measure the outage.

    A replicated tier (2 shards x 2 replicas) runs the private-dirs
    metarates mix while a fault process fail-stops group 0's primary
    mid-phase.  The routers notice via EAGAIN, drive the fenced failover,
    and retry — so the *availability gap* is the promotion work itself
    (epoch bump + tier fences + allocator reseat, a few RPC round
    trips), not a journal replay: under synchronous quorum shipping the
    promoted backup's tables already hold every acknowledged record.
    Contrast ``recovery_base_ms`` (200 ms) — the *un*replicated tier's
    floor for restarting the shard in place — before counting any redo.

    Reported per run (baseline = identical load, no kill):

    - per-op mean / p50 / p99 / max latency — the tail absorbs the gap;
    - ``gap_ms`` — first dead-primary detection to serving-again,
      *derived from the failover trace span* (tracing is enabled around
      the kill run) and cross-checked against the group's own
      ``last_failover`` bookkeeping;
    - ``("failover", "step_ms", <step>)`` — the promotion sub-steps
      (epoch bump, tier fence, member fences, allocator reseat) read
      straight off the promote span's event marks;
    - ``post_failover_ops`` — ops completed after the kill (the full
      namespace keeps serving from the promoted primary; the cleanup
      phase deletes every file through it, which would fail loudly on
      any lost record).

    The run ends with the tier-wide and group invariant oracles plus the
    trace-invariant checker over the kill run's spans.  ``virtual_ms``
    sums both stacks' final clocks (a deterministic fingerprint).
    """
    from repro.core.faults import (
        check_group_invariants, check_tier_invariants, kill_primary,
    )

    nodes = 8 if _full(full) else 4
    procs_per_node = 2
    fpp = 64 if _full(full) else 32
    shards, replicas = 2, 2
    ops = ("mdcreate", "stat", "utime")
    kill_at = 150.0  # ms: inside the *measured* mdcreate phase window
    # (quick scale: ~103-226 ms; full scale starts at the same offset and
    # runs longer), so the outage lands on timed ops and the failover
    # run's tail latencies absorb the gap instead of an untimed seeding
    # phase hiding it.
    results = {}
    virtual_ms = 0.0
    events = 0
    owned_obs = obs.TRACER is None  # enable tracing just for the kill run
    for mode in ("baseline", "failover"):
        testbed = build_flat_testbed(nodes, with_mds=shards * replicas)
        stack = CofsStack(testbed, shards=shards, replicas=replicas)
        sim = testbed.sim
        killed = []
        mark = 0
        if mode == "failover":
            if owned_obs:
                obs.enable()
            mark = len(obs.TRACER.spans)
            group = stack.groups[0]

            def killer():
                yield sim.timeout(kill_at)
                killed.append(kill_primary(group))

            sim.process(killer(), name="kill-primary")
        res = run_metarates(stack, MetaratesConfig(
            nodes=nodes, procs_per_node=procs_per_node,
            files_per_proc=fpp, ops=ops, private_dirs=True,
        ))
        for op in ops:
            results[(mode, op, "mean_ms")] = res.mean_ms(op)
            results[(mode, op, "p50_ms")] = res.recorder.p50(op)
            results[(mode, op, "p99_ms")] = res.recorder.p99(op)
            results[(mode, op, "max_ms")] = res.recorder.summary(op).max
            results[(mode, op, "rate")] = res.rate_per_s(op)
        virtual_ms += sim.now
        events += sim.sequence
        if mode == "failover":
            assert killed, "the kill never fired (run too short?)"
            group = stack.groups[0]
            assert group.failovers == 1, "no failover was driven"
            results[("failover", "failovers")] = group.failovers
            spans = obs.TRACER.spans[mark:]
            obs.TraceChecker(obs.TRACER).check_all()
            # The availability gap is the failover span, not ad-hoc
            # timing; the group's own bookkeeping must agree exactly
            # (both read the same simulated clock at the same points).
            gaps = [s for s in spans
                    if s.kind == "failover" and s.outcome == "ok"]
            assert len(gaps) == 1, f"expected one failover span: {gaps}"
            t0, t1 = group.last_failover
            assert abs(gaps[0].duration - (t1 - t0)) < 1e-9, (
                gaps[0].duration, t1 - t0)
            results[("failover", "gap_ms")] = gaps[0].duration
            promotes = [s for s in spans
                        if s.kind == "promote" and s.outcome == "ok"]
            assert len(promotes) == 1, "expected one promotion"
            marks_ = promotes[0].events
            for (_, prev_t, _), (step, step_t, _) in zip(marks_, marks_[1:]):
                key = ("failover", "step_ms", step)
                results[key] = results.get(key, 0.0) + (step_t - prev_t)
            if owned_obs:
                obs.disable()
            results[("failover", "killed_at_ms")] = kill_at
            results[("failover", "post_failover_ops")] = sum(
                res.recorder.count(op) for op in ops)
        check_tier_invariants(stack.primaries, stack.sharding)
        if stack.groups:
            check_group_invariants(stack.groups)
    out = {"nodes": nodes, "procs_per_node": procs_per_node,
           "files_per_proc": fpp, "shards": shards, "replicas": replicas,
           "ops": ops, "virtual_ms": virtual_ms, "events": events,
           "results": results}
    if print_report:
        rows = [
            [mode, op,
             round(results[(mode, op, "mean_ms")], 3),
             round(results[(mode, op, "p50_ms")], 3),
             round(results[(mode, op, "p99_ms")], 3),
             round(results[(mode, op, "max_ms")], 2),
             round(results[(mode, op, "rate")], 1)]
            for mode in ("baseline", "failover") for op in ops
        ]
        print(format_table(
            ["run", "op", "mean ms", "p50 ms", "p99 ms", "max ms", "ops/s"],
            rows,
            title=(f"Primary failover under load ({nodes} nodes, "
                   f"{shards}x{replicas} tier; gap "
                   f"{results[('failover', 'gap_ms')]:.2f} ms)"),
        ))
        step_rows = [
            [key[2], round(value, 4)]
            for key, value in sorted(results.items())
            if key[:2] == ("failover", "step_ms")
        ]
        print(format_table(
            ["promotion step", "ms"], step_rows,
            title="Availability gap breakdown (from the promote span)",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S5 — beyond the paper: asynchronous group commit vs the force ceiling
# ---------------------------------------------------------------------------

def run_scaling_async(full=False, print_report=False, shard_counts=None):
    """Metadata mutation throughput, synchronous vs asynchronous commit.

    The private-dirs metarates mix runs twice per shard count, on fresh
    stacks: once with the default synchronous commits (every update pays
    its own journal force — the log-force ceiling ``scaling-mds``
    documents), once with ``CofsConfig(async_commit=True)`` (updates are
    acknowledged under dependency rules while a per-shard batcher
    coalesces forces; see ``docs/async-commit.md``).  ``mdcreate``
    isolates the metadata tier and is the scaling headline; ``utime``
    is the attr-write check and ``stat`` the read-side control (reads
    never force, so the two modes must agree there).

    The async runs execute under tracing with the full
    :class:`~repro.obs.TraceChecker` — including the
    durable-before-dependent-ack rule — over every emitted history, and
    end under the tier-wide invariant oracle.  ``shard_counts`` (or
    ``REPRO_ASYNC_SHARDS``, e.g. ``1,4``) overrides the default grid.
    """
    from repro.core.faults import check_tier_invariants

    if shard_counts is None:
        env = os.environ.get("REPRO_ASYNC_SHARDS")
        if env:
            shard_counts = tuple(int(tok) for tok in env.split(",") if tok)
        else:
            shard_counts = (1, 2, 4, 8) if _full(full) else (1, 2, 4)
    nodes = 16 if _full(full) else 8
    procs_per_node = 2
    fpp = 64 if _full(full) else 32
    ops = ("mdcreate", "utime", "stat")
    results = {}
    ops_done = 0
    virtual_ms = 0.0
    events = 0
    owned_obs = obs.TRACER is None  # trace just the async legs
    for n_shards in shard_counts:
        for mode in ("sync", "async"):
            cofs_cfg = CofsConfig(async_commit=(mode == "async"))
            testbed = build_flat_testbed(nodes, with_mds=n_shards)
            stack = CofsStack(testbed, cofs_config=cofs_cfg)
            if mode == "async" and owned_obs:
                obs.enable()
            res = run_metarates(stack, MetaratesConfig(
                nodes=nodes, procs_per_node=procs_per_node,
                files_per_proc=fpp, ops=ops, private_dirs=True,
            ))
            for op in ops:
                results[(op, n_shards, mode)] = res.rate_per_s(op)
                results[(op, n_shards, mode, "mean_ms")] = res.mean_ms(op)
            deferred = sum(s.dbsvc.deferred_acks for s in stack.shards)
            results[("deferred_acks", n_shards, mode)] = deferred
            if mode == "async":
                assert deferred > 0, "async run never deferred an ack"
                obs.TraceChecker(obs.TRACER).check_all()
                if owned_obs:
                    obs.disable()
            else:
                assert deferred == 0
            if stack.n_shards > 1:  # single-shard stacks have no tier
                check_tier_invariants(stack.shards, stack.sharding)
            ops_done += sum(res.recorder.count(op) for op in ops)
            virtual_ms += stack.testbed.sim.now
            events += stack.testbed.sim.sequence
    out = {"shards": tuple(shard_counts), "nodes": nodes,
           "procs_per_node": procs_per_node, "files_per_proc": fpp,
           "ops": ops, "ops_done": ops_done, "virtual_ms": virtual_ms,
           "events": events, "results": results}
    if print_report:
        rows = [
            [n_shards,
             round(results[("mdcreate", n_shards, "sync")], 1),
             round(results[("mdcreate", n_shards, "async")], 1),
             round(results[("utime", n_shards, "sync")], 1),
             round(results[("utime", n_shards, "async")], 1),
             round(results[("stat", n_shards, "async")], 1),
             results[("deferred_acks", n_shards, "async")]]
            for n_shards in shard_counts
        ]
        print(format_table(
            ["shards", "mdcreate/s sync", "mdcreate/s async",
             "utime/s sync", "utime/s async", "stat/s", "deferred acks"],
            rows,
            title=(f"Async group commit vs the log-force ceiling "
                   f"({nodes} nodes x {procs_per_node} procs, "
                   f"private dirs)"),
        ))
    return out


EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig5b": run_fig5b,
    "fig6": run_fig6,
    "table1": run_table1,
    "ablation-placement": run_ablation_placement,
    "ablation-mds": run_ablation_mds,
    "scaling-mds": run_scaling_mds,
    "scaling-rebalance": run_scaling_rebalance,
    "scaling-split": run_scaling_split,
    "scaling-failover": run_scaling_failover,
    "scaling-async": run_scaling_async,
}
