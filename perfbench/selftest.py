"""Self-test of the benchmark: a tiny run of every workload.

Usage, from the repository root::

    python3 perfbench/selftest.py

For each workload it runs every plan of one seed twice at a tiny scale,
then one traced and one profiled round, and checks that

- every round passes the workload's oracle and no op fails, and every
  repeat of a plan reproduces its first round;
- the traced round ends at the untraced round's simulated clock and kernel
  event count (tracing is charge-preserving);
- the end-to-end and per-layer metrics are exactly the ones
  ``BENCHMARK.json`` declares, each with its declared unit.

Finally it installs a wrapper that *does* schedule an extra event and checks
that the charge-preservation check rejects it.  Exits 0 when all pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run  # noqa: E402

SEED = 3
SCALE = 0.05


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _units(metrics):
    return {name: unit for name, (_value, unit) in metrics.items()}


def check_workload(workload, declared_e2e, declared_layer):
    """Problems of a tiny run of ``workload`` (empty when it passes)."""
    plans = run.PLANS[workload]
    rounds, problems = run.untraced_rounds(workload, SEED, 0, SCALE)
    problems += [f"{rnd.failed} ops failed" for rnd in rounds if rnd.failed]
    layer, trace_problems = run.trace_round(workload, SEED, rounds[0], SCALE)
    problems += trace_problems
    for kind, got, want in (
            ("end-to-end", _units(run.end_to_end(rounds, plans)),
             declared_e2e),
            ("per-layer", _units(run.per_layer(rounds, plans, layer)),
             declared_layer)):
        if got != want:
            units = sorted(n for n in got if n in want and got[n] != want[n])
            problems.append(
                f"{kind} metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, undeclared "
                f"{sorted(set(got) - set(want))}, unit mismatches {units}")
    return problems


def check_perturbation_is_caught():
    """Problems unless an event-adding wrapper fails the charge check."""
    from repro.net.transport import Network

    workload = "cofs-shared-dir"
    rounds, _problems = run.untraced_rounds(workload, SEED, 0, SCALE)
    orig = Network.rpc

    def rpc(network, *args, **kwargs):
        yield network.sim.timeout(0)
        return (yield from orig(network, *args, **kwargs))

    Network.rpc = rpc
    try:
        _layer, problems = run.trace_round(workload, SEED, rounds[0], SCALE)
    finally:
        Network.rpc = orig
    if any("not charge-preserving" in p for p in problems):
        return []
    return ["a wrapper that adds events passed the charge-preservation check"]


def main():
    run._import_program()
    from perfbench.workloads import WORKLOADS

    declared_e2e, declared_layer = _declared()
    failures = 0
    for workload in WORKLOADS:
        problems = check_workload(workload, declared_e2e, declared_layer)
        failures += bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
    problems = check_perturbation_is_caught()
    failures += bool(problems)
    print(f"charge-preservation check: {'FAIL' if problems else 'ok'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
