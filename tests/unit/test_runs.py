"""Unit tests for run boundaries of sorted keys."""

import numpy as np

from repro.util import run_starts


class TestRunStarts:
    def test_empty(self):
        starts = run_starts(np.zeros(0, dtype=np.int64))
        assert starts.size == 0
        assert starts.dtype == np.intp  # usable as an index as it is

    def test_one_run(self):
        assert list(run_starts(np.full(7, 3))) == [0]

    def test_all_distinct(self):
        assert list(run_starts(np.arange(5))) == [0, 1, 2, 3, 4]

    def test_matches_unique_on_sorted_keys(self, rng):
        keys = np.sort(rng.integers(0, 20, 200))
        uniq, first = np.unique(keys, return_index=True)
        starts = run_starts(keys)
        assert np.array_equal(starts, first)
        assert np.array_equal(keys[starts], uniq)
