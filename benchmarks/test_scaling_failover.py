"""EXP-S3 — kill a shard's primary under metadata load.

Asserts the shape of a fenced failover on a 2 x 2 replicated tier: one
promotion, an availability gap of a few RPC round trips (far below an
unreplicated shard's restart floor), a tail the outage visibly lifts,
and every op of the kill run completing through the promoted primary.
"""

from repro.bench.experiments import run_scaling_failover
from repro.db.service import DbConfig


def test_scaling_failover(benchmark):
    out = benchmark.pedantic(
        lambda: run_scaling_failover(print_report=True),
        rounds=1, iterations=1,
    )
    r = out["results"]

    assert r[("failover", "failovers")] == 1
    # Promotion is an epoch bump plus fences and a reseat, not a replay:
    # the gap (measured 6.55 ms) stays well under the restart floor.
    assert r[("failover", "gap_ms")] < DbConfig().recovery_base_ms / 10
    # The outage lands on timed creates: their tail rises above the
    # no-kill baseline's (measured 8.51 vs 5.98 ms p99).
    assert r[("failover", "mdcreate", "p99_ms")] > \
        r[("baseline", "mdcreate", "p99_ms")] * 1.2
    # Every op of the kill run completes (4 nodes x 2 procs x 32 files
    # x 3 ops).
    assert r[("failover", "post_failover_ops")] == 768
