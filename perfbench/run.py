"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pfs-shared-dir --seed 1 \\
        --seconds 30 --trace 0

A run draws a few plans from ``--seed`` and runs one round of each; the
simulated metrics are pooled over those rounds, so they are exact for a
given seed.  It then repeats the same rounds, cycling through the plans at
least once and until ``--seconds`` wall-clock seconds have passed; every
repeat must reproduce its plan's first round exactly, and the host metrics
take the median over all rounds, timed with :mod:`perfbench.hostclock`.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then runs one
traced and one profiled round of the first plan, with the host clock off,
and prints the per-layer metrics; the traced round must end at the
untraced round's simulated clock and kernel event count, or its numbers
are rejected.

Every round must also pass its workload's oracle.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value
and unit).  See ``perfbench/README.md``.
"""

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: plans (sub-seeds) drawn from one ``--seed``, one round each: enough
#: that the pooled simulated figures barely depend on the seed.  A mixed
#: round is short, and its rate depends on which shards its directories
#: hash to.
PLANS = {"pfs-shared-dir": 3, "cofs-shared-dir": 3, "sharded-mixed": 12}

#: the end-to-end metrics, in the order ``BENCHMARK.json`` lists them.
E2E = ("sim_ops_per_s", "sim_mean_ms", "host_ops_per_s", "setup_s",
       "peak_rss_mb")

#: op kinds whose median latency is reported beside its sample count.
KINDS = ("create", "stat", "utime", "rename")


def _import_program():
    """Put the program's sources on the path; fail if they are missing."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no program sources at {ROOT}/src/repro")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def sim_results(rounds):
    """Simulated figures pooled over ``rounds``: name -> (value, unit).

    Each percentile is followed by its sample count.  A kind the workload
    does not run reads 0 with 0 samples.
    """
    from repro.sim.stats import percentile

    every = [x for rnd in rounds for samples in rnd.latencies.values()
             for x in samples]
    sim_s = sum(rnd.meter.sim_ms for rnd in rounds) / 1e3
    out = {
        "sim_ops_per_s": (len(every) / sim_s, "ops/s"),
        "sim_mean_ms": (statistics.fmean(every), "ms"),
        "sim_p50_ms": (percentile(every, 0.5), "ms"),
        "sim_p99_ms": (percentile(every, 0.99), "ms"),
        "sim_samples": (len(every), "count"),
    }
    for kind in KINDS:
        samples = [x for rnd in rounds for x in rnd.latencies.get(kind, ())]
        out[f"{kind}_sim_p50_ms"] = (
            percentile(samples, 0.5) if samples else 0.0, "ms")
        out[f"{kind}_samples"] = (len(samples), "count")
    gaps = [rnd.failover_gap_ms for rnd in rounds
            if rnd.failover_gap_ms is not None]
    out["failover_gap_ms"] = (statistics.median(gaps) if gaps else 0.0, "ms")
    out["failover_samples"] = (len(gaps), "count")
    attempted = sum(rnd.attempted for rnd in rounds)
    out["failed_op_frac"] = (
        sum(rnd.failed for rnd in rounds) / attempted, "ratio")
    return out


def untraced_rounds(workload, seed, seconds, scale=1.0):
    """Rounds of every plan, cycling through the plans at least twice and
    until ``seconds`` have passed, with the host clock running.

    Returns ``(rounds, problems)``: the oracle errors of every round, and
    every repeat that did not reproduce its plan's first round.  A checked
    repeat keeps only its host figures (its latencies become None), so
    memory does not grow with the number of rounds a fast host runs.
    """
    from perfbench.hostclock import CLOCK
    from perfbench.workloads import run_round

    plans = PLANS[workload]
    rounds, problems = [], []
    deadline = time.perf_counter() + seconds
    with CLOCK:
        while len(rounds) < 2 * plans or time.perf_counter() < deadline:
            index = len(rounds)
            # The kernel runs with the garbage collector off: free the last
            # round's cycles now, so peak memory is one round's.
            gc.collect()
            rnd = run_round(workload, f"{seed}.{index % plans}", scale)
            problems += [f"round {index}: {error}" for error in rnd.errors]
            if index >= plans:
                first = rounds[index % plans]
                if rnd.fingerprint != first.fingerprint:
                    problems.append(
                        f"round {index}: ended at (clock, events) "
                        f"{rnd.fingerprint}, its plan's first round at "
                        f"{first.fingerprint}")
                elif sim_results([rnd]) != sim_results([first]):
                    problems.append(
                        f"round {index}: simulated results differ")
                rnd.latencies = None
            rounds.append(rnd)
    return rounds, problems


def host_results(rounds, plans):
    """Host figures: name -> (value, unit).

    Host seconds are CPU seconds at the reference machine's speed (see
    :mod:`perfbench.hostclock`).  Each figure is the median over all of
    the run's rounds, which cycle through the plans, so a round that a
    burst of load slowed more than the host clock saw does not move it.
    ``host_raw_ops_per_s`` (plain CPU seconds) and ``host_speed`` (the
    median speed of the calibration slices) are shown beside them, not
    reported.
    """
    from perfbench.hostclock import CLOCK

    def median(value):
        """Median over the rounds of ``value(round, ops of its plan)``."""
        return statistics.median(
            value(rnd, rounds[index % plans].timed_ops)
            for index, rnd in enumerate(rounds))

    return {
        "host_ops_per_s": (median(lambda rnd, ops: ops / rnd.meter.host_s),
                           "ops/s"),
        "host_raw_ops_per_s": (
            median(lambda rnd, ops: ops / rnd.meter.raw_host_s), "ops/s"),
        "host_speed": (statistics.median(CLOCK.speeds), "ratio"),
        "setup_s": (median(lambda rnd, _ops: rnd.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def end_to_end(rounds, plans):
    """The end-to-end metrics: name -> (value, unit)."""
    sim = sim_results(rounds[:plans])
    host = host_results(rounds, plans)
    return {name: (sim if name.startswith("sim_") else host)[name]
            for name in E2E}


def trace_round(workload, seed, reference, scale=1.0):
    """One traced and one profiled round of the first plan.

    Returns ``(metrics, problems)``: the per-layer metrics of the traced
    round and the host split of the profiled one, whose profiler runs only
    inside the timed phases (the window ``host_ops_per_s`` measures).  The
    traced round's numbers are rejected (a problem) unless it ended at
    ``reference``'s simulated clock and kernel event count.
    """
    from perfbench.layers import LayerTrace, host_fractions, layer_metrics
    from perfbench.workloads import run_round

    trace = LayerTrace()
    with trace.installed():
        traced = run_round(workload, f"{seed}.0", scale,
                           on_setup=trace.attach)
    profile = cProfile.Profile()

    def profile_edge(_sim, starting):
        if starting:
            profile.enable()
        else:
            profile.disable()

    try:
        run_round(workload, f"{seed}.0", scale,
                  on_setup=lambda rnd, _stack: rnd.meter.hooks.append(
                      profile_edge))
    finally:
        profile.disable()
    problems = [f"traced round: {error}" for error in traced.errors]
    if traced.fingerprint != reference.fingerprint:
        problems.append(
            f"tracing is not charge-preserving: traced round ended at "
            f"(clock, events) {traced.fingerprint}, untraced at "
            f"{reference.fingerprint}")
    metrics = layer_metrics(trace, traced)
    metrics.update({name: (value, "ratio")
                    for name, value in host_fractions(profile).items()})
    return metrics, problems


def per_layer(rounds, plans, layer):
    """Kernel metrics, the simulated figures that are not end-to-end
    metrics, and the ``layer`` metrics."""
    first = rounds[0]
    out = {
        "sim.events_per_op": (first.meter.events / first.timed_ops, "count"),
        "sim.host_us_per_event": (statistics.median(
            rnd.meter.host_s / rnd.meter.events * 1e6
            for rnd in rounds), "us"),
    }
    out.update((name, value)
               for name, value in sim_results(rounds[:plans]).items()
               if name not in E2E)
    out.update(layer)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    plans = PLANS[args.workload]
    rounds, problems = untraced_rounds(args.workload, args.seed,
                                       args.seconds)
    if args.trace:
        layer, trace_problems = trace_round(
            args.workload, args.seed, rounds[0])
        problems += trace_problems
        metrics = per_layer(rounds, plans, layer)
        shown = metrics
    else:
        metrics = end_to_end(rounds, plans)
        shown = dict(sim_results(rounds[:plans]),
                     **host_results(rounds, plans))
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{plans} plans, {rounds[0].timed_ops} timed ops per round")
    for name, (value, unit) in shown.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    for problem in problems:
        print(f"# INVALID: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
