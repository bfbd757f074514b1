"""EXP-S2 — mirror-broadcast latency + online re-partitioning.

Asserts the two effects of the sharded tier's replicated mutations and
re-balancer: a replicated mkdir/rmdir pays one overlapped round of peer
mirrors (the max of the round trips, not their sum), and a
hash-collision-skewed workload's throughput recovers once the
rebalancer re-homes the hot directories.
"""

from repro.bench.experiments import run_scaling_rebalance


def test_scaling_rebalance(benchmark):
    out = benchmark.pedantic(
        lambda: run_scaling_rebalance(
            print_report=True, shard_counts=(1, 2, 4)),
        rounds=1, iterations=1,
    )
    r = out["results"]

    # (a) Replicated-mutation latency: a sharded tier pays a peer round
    # trip one shard does not, and the mirrors overlap, so 4 shards pay
    # the max of three round trips rather than their sum.
    for op in ("mkdir", "rmdir"):
        assert r[(op, 2)] > r[(op, 1)] * 1.5, op
        assert r[(op, 4)] < r[(op, 2)] * 1.1, op

    # (b) The skewed workload is stuck at one shard's ceiling no matter
    # how many shards exist; after online re-partitioning it recovers.
    assert abs(r[("skew-stat", 4, "before")] /
               r[("skew-stat", 2, "before")] - 1.0) < 0.05
    for n_shards in (2, 4):
        assert r[("skew-moves", n_shards)] > 0, n_shards
        assert r[("skew-stat", n_shards, "after")] > \
            r[("skew-stat", n_shards, "before")] * 1.5, n_shards
