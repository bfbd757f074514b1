"""Placement-policy properties: determinism, spreading, the 512-entry cap."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CofsConfig
from repro.core.placement import HashPlacementPolicy, IdentityPlacementPolicy


def fixed_rng(value=0):
    rng = random.Random(1234)
    return rng


def test_hash_bucket_is_deterministic_in_inputs():
    cfg = CofsConfig()
    policy = HashPlacementPolicy(cfg, randomize=False)
    a = policy.bucket_for("node0", 7, 0, fixed_rng())
    b = policy.bucket_for("node0", 7, 0, fixed_rng())
    assert a == b


def test_different_nodes_usually_get_different_buckets():
    cfg = CofsConfig()
    policy = HashPlacementPolicy(cfg, randomize=False)
    buckets = {
        policy.bucket_for(f"node{i}", 7, 0, fixed_rng()) for i in range(32)
    }
    assert len(buckets) >= 30  # hash collisions are possible but rare


def test_different_parents_get_different_buckets():
    cfg = CofsConfig()
    policy = HashPlacementPolicy(cfg, randomize=False)
    buckets = {
        policy.bucket_for("node0", parent, 0, fixed_rng())
        for parent in range(32)
    }
    assert len(buckets) >= 30


def test_different_pids_get_different_buckets():
    cfg = CofsConfig()
    policy = HashPlacementPolicy(cfg, randomize=False)
    buckets = {
        policy.bucket_for("node0", 7, pid, fixed_rng()) for pid in range(16)
    }
    assert len(buckets) >= 14


def test_randomization_adds_a_sublevel():
    cfg = CofsConfig(rand_subdirs=16)
    policy = HashPlacementPolicy(cfg, randomize=True)
    rng = random.Random(0)
    buckets = {policy.bucket_for("node0", 7, 0, rng) for _ in range(200)}
    bases = {b.rsplit("/r", 1)[0] for b in buckets}
    assert len(bases) == 1          # same hash bucket
    assert len(buckets) > 4         # spread over randomization sublevels
    assert all("/r" in b for b in buckets)


def test_overflow_candidates_walk_sublevels():
    cfg = CofsConfig(rand_subdirs=4)
    policy = HashPlacementPolicy(cfg, randomize=True)
    candidates = policy.overflow_candidates("/.cofs/h0001/r02")
    assert candidates[0] == "/.cofs/h0001/r03"
    assert candidates[1] == "/.cofs/h0001/r00"
    assert candidates[2] == "/.cofs/h0001/r01"
    # further candidates open overflow generations
    assert any(".o1" in c for c in candidates[3:])


def test_identity_policy_mirrors_parent():
    cfg = CofsConfig()
    policy = IdentityPlacementPolicy(cfg)
    bucket = policy.bucket_for("node3", 42, 9, fixed_rng())
    assert bucket.endswith("/d42")
    assert policy.overflow_candidates(bucket) == []


@settings(max_examples=50)
@given(
    st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
    st.integers(min_value=1, max_value=1 << 30),
    st.integers(min_value=0, max_value=1 << 16),
)
def test_bucket_always_under_root(node, parent, pid):
    cfg = CofsConfig()
    policy = HashPlacementPolicy(cfg, randomize=True)
    bucket = policy.bucket_for(node, parent, pid, random.Random(0))
    assert bucket.startswith(cfg.underlying_root + "/")
    assert " " not in bucket


class CountingPolicy(HashPlacementPolicy):
    """The unrandomized hash policy, counting overflow-candidate calls."""

    def __init__(self, config):
        super().__init__(config, randomize=False)
        self.overflow_calls = 0

    def overflow_candidates(self, bucket):
        self.overflow_calls += 1
        return super().overflow_candidates(bucket)


def _create_files(host, count, start=0):
    cfs = host.mounts[0]

    def main():
        for i in range(start, start + count):
            fh = yield from cfs.create(f"/d/f{i}")
            yield from cfs.close(fh)

    host.run(main())


def test_overflow_candidates_are_built_only_for_a_full_bucket():
    from tests.core.conftest import MountedCofs

    cfg = CofsConfig(max_entries_per_dir=4)
    policy = CountingPolicy(cfg)
    host = MountedCofs(n_clients=1, cofs_config=cfg, policy=policy)
    host.run(host.mounts[0].mkdir("/d"))
    _create_files(host, 4)
    assert policy.overflow_calls == 0  # below the cap: no candidate list
    (bucket,) = host.mds.bucket_counts()
    _create_files(host, 6, start=4)
    # Every create past the cap walks the candidates from the first:
    # .o01 fills to the cap before .o02 is charged.
    assert policy.overflow_calls == 6
    counts = host.mds.bucket_counts()
    assert counts == {bucket: 4, f"{bucket}.o01": 4, f"{bucket}.o02": 2}


def test_policy_without_candidates_stays_uncapped():
    from tests.core.conftest import MountedCofs

    cfg = CofsConfig(max_entries_per_dir=4)
    host = MountedCofs(n_clients=1, cofs_config=cfg,
                       policy=IdentityPlacementPolicy(cfg))
    host.run(host.mounts[0].mkdir("/d"))
    _create_files(host, 10)
    assert list(host.mds.bucket_counts().values()) == [10]
