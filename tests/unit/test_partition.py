"""Unit tests for the core-to-process partition (the implicit map)."""

import numpy as np
import pytest

from repro.core.partition import Partition
from repro.errors import ConfigurationError


class TestUniform:
    def test_ranges_cover_exactly(self):
        p = Partition(100, 7)
        covered = []
        for lo, hi in p:
            covered.extend(range(lo, hi))
        assert covered == list(range(100))

    def test_sizes_within_one(self):
        p = Partition(100, 7)
        sizes = [p.size_of_rank(r) for r in range(7)]
        assert max(sizes) - min(sizes) <= 1

    def test_rank_of_gid_matches_ranges(self):
        p = Partition(97, 5)
        for r in range(5):
            lo, hi = p.range_of_rank(r)
            for g in (lo, hi - 1):
                assert p.rank_of_gid(g) == r

    def test_rank_of_gid_vectorised(self):
        p = Partition(64, 4)
        gids = np.arange(64)
        ranks = p.rank_of_gid(gids)
        expected = np.repeat(np.arange(4), 16)
        assert np.array_equal(ranks, expected)

    def test_rejects_more_ranks_than_cores(self):
        with pytest.raises(ConfigurationError, match="cannot spread 3 cores over 5"):
            Partition(3, 5)

    def test_rejects_out_of_range_gid(self):
        p = Partition(10, 2)
        with pytest.raises(ValueError):
            p.rank_of_gid(10)
        with pytest.raises(ValueError):
            p.rank_of_gid(-1)

    def test_single_rank(self):
        p = Partition(10, 1)
        assert p.range_of_rank(0) == (0, 10)


class TestBoundaries:
    def test_from_boundaries(self):
        p = Partition.from_boundaries(np.array([0, 10, 15, 40]))
        assert p.n_ranks == 3
        assert p.n_cores == 40
        assert p.range_of_rank(1) == (10, 15)
        assert p.rank_of_gid(12) == 1
        assert p.rank_of_gid(39) == 2

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            Partition.from_boundaries(np.array([0, 10, 10, 20]))

    def test_rejects_not_starting_at_zero(self):
        with pytest.raises(ValueError):
            Partition.from_boundaries(np.array([1, 10]))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            Partition.from_boundaries(np.array([0]))
