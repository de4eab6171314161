"""Unit tests for the consistent-hash shard ring."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.shard.ring import HashRing, RingConfig, RouteDecision
from repro.util.rng import stable_hash64


class TestStableHash:
    def test_matches_sha256_prefix(self):
        expected = int.from_bytes(
            hashlib.sha256(b"tenant-42").digest()[:8], "big"
        )
        assert stable_hash64("tenant-42") == expected

    def test_process_independent_known_value(self):
        # A pinned value: if this ever changes, every ring layout — and
        # every blessed fleet report — changes with it.
        assert stable_hash64("t0") == 0x512F26ADA3C3D634


class TestRingConfig:
    def test_defaults_valid(self):
        RingConfig()

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            RingConfig(n_shards=0)

    def test_rejects_spill_beyond_neighbors(self):
        with pytest.raises(ConfigurationError):
            RingConfig(n_shards=2, spill=2)

    def test_single_shard_requires_zero_spill(self):
        RingConfig(n_shards=1, spill=0)
        with pytest.raises(ConfigurationError):
            RingConfig(n_shards=1, spill=1)


class TestLookup:
    def test_deterministic_across_instances(self):
        a = HashRing(RingConfig(n_shards=8))
        b = HashRing(RingConfig(n_shards=8))
        tenants = [f"t{i}" for i in range(500)]
        assert [a.lookup(t) for t in tenants] == [b.lookup(t) for t in tenants]

    def test_all_shards_reachable(self):
        ring = HashRing(RingConfig(n_shards=8))
        homes = {ring.lookup(f"t{i}") for i in range(2000)}
        assert homes == set(range(8))

    def test_vnodes_smooth_the_key_share(self):
        ring = HashRing(RingConfig(n_shards=4, vnodes=64))
        counts = [0] * 4
        for i in range(8000):
            counts[ring.lookup(f"t{i}")] += 1
        # With 64 vnodes/shard no shard should own a wildly outsized share.
        assert max(counts) < 2.2 * min(counts)

    def test_minimal_disruption_when_growing(self):
        # The consistent-hashing property: adding a shard moves only the
        # keys the new shard takes; nobody else's tenants reshuffle.
        small = HashRing(RingConfig(n_shards=4))
        grown = HashRing(RingConfig(n_shards=5))
        tenants = [f"t{i}" for i in range(2000)]
        moved = [
            t for t in tenants
            if small.lookup(t) != grown.lookup(t) and grown.lookup(t) != 4
        ]
        assert moved == []


class TestPreference:
    def test_home_is_first_and_entries_distinct(self):
        ring = HashRing(RingConfig(n_shards=6))
        for i in range(50):
            tenant = f"t{i}"
            prefs = ring.preference(tenant, 4)
            assert prefs[0] == ring.lookup(tenant)
            assert len(prefs) == len(set(prefs)) == 4

    def test_k_clamped_to_shard_count(self):
        ring = HashRing(RingConfig(n_shards=3))
        assert sorted(ring.preference("t1", 10)) == [0, 1, 2]

    def test_rejects_nonpositive_k(self):
        ring = HashRing(RingConfig(n_shards=3))
        with pytest.raises(ConfigurationError):
            ring.preference("t1", 0)


class TestRoute:
    def _ring(self):
        return HashRing(RingConfig(n_shards=4, spill=2, hot_depth=10))

    def test_cold_home_keeps_the_job(self):
        ring = self._ring()
        decision = ring.route("t7", [9, 9, 9, 9])
        assert decision.target == decision.home
        assert not decision.spilled

    def test_hot_home_spills_to_least_loaded_neighbor(self):
        ring = self._ring()
        home = ring.lookup("t7")
        prefs = ring.preference("t7", 3)
        depths = [0, 0, 0, 0]
        depths[home] = 50
        depths[prefs[1]] = 5
        depths[prefs[2]] = 2
        decision = ring.route("t7", depths)
        assert decision.spilled
        assert decision.target == prefs[2]

    def test_full_tie_stays_home(self):
        # Least-loaded ties break by preference order; home is index 0.
        ring = self._ring()
        decision = ring.route("t7", [50, 50, 50, 50])
        assert decision.target == decision.home

    def test_spill_zero_never_moves(self):
        ring = HashRing(RingConfig(n_shards=4, spill=0, hot_depth=1))
        for i in range(50):
            assert not ring.route(f"t{i}", [99, 99, 99, 99]).spilled

    def test_rejects_mismatched_depths(self):
        with pytest.raises(ConfigurationError, match="entries"):
            self._ring().route("t1", [0, 0])

    def test_decision_is_a_value_object(self):
        d = RouteDecision(tenant="t1", home=2, target=3)
        assert d.spilled
        assert RouteDecision(tenant="t1", home=2, target=2).spilled is False
