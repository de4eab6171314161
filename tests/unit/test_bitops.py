"""Unit tests for crossbar bit packing."""

import numpy as np
import pytest

from repro.util.bitops import (
    MAX_RUN_ROWS,
    get_bit,
    pack_bits,
    popcount_rows,
    set_bit,
    sum_packed_runs,
    unpack_bits,
)


class TestPackUnpack:
    def test_round_trip_1d(self, rng):
        dense = rng.random(256) < 0.3
        assert np.array_equal(unpack_bits(pack_bits(dense), 256), dense)

    def test_round_trip_2d(self, rng):
        dense = rng.random((64, 256)) < 0.5
        assert np.array_equal(unpack_bits(pack_bits(dense), 256), dense)

    def test_round_trip_non_multiple_of_8(self, rng):
        dense = rng.random(13) < 0.5
        assert np.array_equal(unpack_bits(pack_bits(dense), 13), dense)

    def test_packed_width(self):
        assert pack_bits(np.zeros(256, dtype=bool)).shape == (32,)
        assert pack_bits(np.zeros((4, 256), dtype=bool)).shape == (4, 32)

    def test_storage_reduction_is_8x(self):
        dense = np.ones((256, 256), dtype=np.uint8)
        assert dense.nbytes / pack_bits(dense).nbytes == 8.0

    def test_bit_order_msb_first(self):
        dense = np.zeros(8, dtype=bool)
        dense[0] = True
        assert pack_bits(dense)[0] == 0b10000000


class TestBitAccess:
    def test_get_bit_matches_dense(self, rng):
        dense = rng.random(64) < 0.5
        packed = pack_bits(dense)
        for i in range(64):
            assert get_bit(packed, i) == dense[i]

    def test_set_bit_then_get(self):
        packed = pack_bits(np.zeros(32, dtype=bool))
        set_bit(packed, 17, True)
        assert get_bit(packed, 17)
        set_bit(packed, 17, False)
        assert not get_bit(packed, 17)

    def test_set_bit_leaves_others(self, rng):
        dense = rng.random(40) < 0.5
        packed = pack_bits(dense)
        set_bit(packed, 5, not dense[5])
        for i in range(40):
            expected = (not dense[5]) if i == 5 else dense[i]
            assert get_bit(packed, i) == expected

    def test_set_bit_vectorised_rows(self):
        packed = pack_bits(np.zeros((3, 16), dtype=bool))
        set_bit(packed, 9, np.array([True, False, True]))
        assert list(get_bit(packed, 9)) == [True, False, True]


class TestPopcount:
    def test_popcount_matches_sum(self, rng):
        dense = rng.random((10, 256)) < 0.3
        packed = pack_bits(dense)
        assert np.array_equal(popcount_rows(packed), dense.sum(axis=1))

    def test_popcount_empty_and_full(self):
        assert popcount_rows(pack_bits(np.zeros(256, dtype=bool))) == 0
        assert popcount_rows(pack_bits(np.ones(256, dtype=bool))) == 256


class TestSumPackedRuns:
    def test_every_byte_spreads_to_its_unpackbits_lanes(self):
        """A run of one row is the row: all 256 bytes, in ``unpackbits`` order."""
        every_byte = np.arange(256, dtype=np.uint8)[:, None]
        sums = sum_packed_runs(every_byte, np.arange(256), np.arange(256), 8)
        assert sums.dtype == np.uint16
        assert np.array_equal(sums, np.unpackbits(every_byte, axis=1))

    def test_no_runs(self):
        packed = np.zeros((4, 2), dtype=np.uint8)
        none = np.zeros(0, dtype=np.intp)
        assert sum_packed_runs(packed, none, none, 13).shape == (0, 13)

    def test_a_lane_counts_past_a_byte(self):
        """Runs of all-ones rows around the 255-row pieces, up to the longest run."""
        lengths = np.array([255, 256, 511, MAX_RUN_ROWS])
        packed = np.full((1, 32), 0xFF, dtype=np.uint8)
        rows = np.zeros(lengths.sum(), dtype=np.intp)
        sums = sum_packed_runs(packed, rows, np.cumsum(lengths) - lengths, 256)
        assert np.array_equal(sums, np.repeat(lengths[:, None], 256, axis=1))


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
