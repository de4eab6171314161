"""Property-based tests for bit packing."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.util import bitops
from repro.util.bitops import get_bit, pack_bits, popcount_rows, set_bit, unpack_bits

bool_rows = arrays(np.bool_, st.tuples(st.integers(1, 8), st.integers(1, 300)))


@given(bool_rows)
@settings(max_examples=50)
def test_pack_unpack_round_trip(dense):
    n = dense.shape[-1]
    assert np.array_equal(unpack_bits(pack_bits(dense), n), dense)


@given(bool_rows)
@settings(max_examples=50)
def test_popcount_matches_sum(dense):
    assert np.array_equal(popcount_rows(pack_bits(dense)), dense.sum(axis=-1))


@given(arrays(np.bool_, st.integers(1, 256)), st.data())
@settings(max_examples=50)
def test_get_bit_agrees_with_dense(dense, data):
    idx = data.draw(st.integers(0, dense.shape[0] - 1))
    packed = pack_bits(dense)
    assert get_bit(packed, idx) == dense[idx]


@given(arrays(np.bool_, st.integers(1, 128)), st.data())
@settings(max_examples=50)
def test_set_bit_only_touches_target(dense, data):
    idx = data.draw(st.integers(0, dense.shape[0] - 1))
    value = data.draw(st.booleans())
    packed = pack_bits(dense)
    set_bit(packed, idx, value)
    out = unpack_bits(packed, dense.shape[0])
    expected = dense.copy()
    expected[idx] = value
    assert np.array_equal(out, expected)


# -- the bit-sliced grouped sum of the Synapse phase ---------------------------

RUN_LENGTHS = (1, 2, 255, 256, 300)  # a byte counts to 255; num_axons may be 300


@st.composite
def packed_runs(draw):
    """A table of packed rows (random bytes, padding bits included) and runs over it."""
    n = draw(st.sampled_from((5, 8, 13, 256)))
    r = draw(st.integers(1, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    packed = rng.integers(0, 256, (r, (n + 7) // 8), dtype=np.uint8)
    if draw(st.booleans()):
        packed[...] = 0xFF  # every lane of a run of k rows counts to k
    lengths = draw(
        st.lists(st.sampled_from(RUN_LENGTHS) | st.integers(1, 40), max_size=12)
    )
    rows = rng.integers(0, r, sum(lengths))
    starts = np.cumsum([0, *lengths])[:-1]
    return packed, rows, starts, n


@given(packed_runs(), st.sampled_from((1, 7, 64, 1024)))
@settings(max_examples=120, deadline=None)
def test_sum_packed_runs_equals_unpacked_loop(case, tile):
    packed, rows, starts, n = case
    with mock.patch.object(bitops, "TILE_ROWS", tile):
        sums = bitops.sum_packed_runs(packed, rows, starts, n)
    ends = [*starts[1:], rows.size]
    expected = [unpack_bits(packed[rows[s:e]], n).sum(axis=0) for s, e in zip(starts, ends)]
    assert sums.dtype == np.uint16
    assert sums.shape == (starts.size, n)
    assert np.array_equal(sums, np.array(expected, dtype=np.int64).reshape(-1, n))
