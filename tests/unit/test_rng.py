"""Unit tests for the deterministic LCG PRNG."""

import numpy as np

from repro.util.rng import LCG_A, LCG_C, Lcg32, LcgArray, derive_seed


class TestLcg32:
    def test_sequence_matches_recurrence(self):
        rng = Lcg32(12345)
        x = 12345
        for _ in range(100):
            x = (LCG_A * x + LCG_C) & 0xFFFFFFFF
            assert rng.next_u32() == x

    def test_same_seed_same_sequence(self):
        a, b = Lcg32(7), Lcg32(7)
        assert [a.next_u32() for _ in range(50)] == [b.next_u32() for _ in range(50)]

    def test_different_seeds_diverge(self):
        a, b = Lcg32(7), Lcg32(8)
        assert [a.next_u32() for _ in range(10)] != [b.next_u32() for _ in range(10)]

    def test_next_u8_is_top_byte(self):
        a, b = Lcg32(99), Lcg32(99)
        for _ in range(20):
            assert a.next_u8() == b.next_u32() >> 24

    def test_next_float_in_unit_interval(self):
        rng = Lcg32(3)
        for _ in range(1000):
            f = rng.next_float()
            assert 0.0 <= f < 1.0

    def test_bernoulli_zero_threshold_never_hits(self):
        rng = Lcg32(5)
        assert not any(rng.bernoulli(0) for _ in range(256))

    def test_bernoulli_full_threshold_always_hits(self):
        rng = Lcg32(5)
        assert all(rng.bernoulli(256) for _ in range(256))

    def test_bernoulli_rate_roughly_matches(self):
        rng = Lcg32(11)
        hits = sum(rng.bernoulli(64) for _ in range(20000))
        assert 0.2 < hits / 20000 < 0.3  # expect 0.25

    def test_clone_is_independent(self):
        a = Lcg32(42)
        a.next_u32()
        b = a.clone()
        assert a.next_u32() == b.next_u32()
        a.next_u32()
        assert a.state != b.state

    def test_seed_masked_to_32_bits(self):
        assert Lcg32(2**40 + 5).state == 5


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_index_order_matters(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_different_bases_differ(self):
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_output_is_32_bit(self):
        for i in range(100):
            s = derive_seed(123, i)
            assert 0 <= s < 2**32

    def test_no_collisions_in_small_range(self):
        seeds = {derive_seed(9, i) for i in range(10000)}
        assert len(seeds) == 10000


class TestLcgArray:
    def test_matches_scalar_streams(self):
        seeds = [derive_seed(3, i) for i in range(16)]
        arr = LcgArray(np.array(seeds, dtype=np.uint64))
        scalars = [Lcg32(s) for s in seeds]
        for _ in range(20):
            vec = arr.advance()
            ref = [s.next_u32() for s in scalars]
            assert list(vec) == ref

    def test_conditional_advance_freezes_masked_out(self):
        arr = LcgArray.from_base_seed(7, (8,))
        before = arr.state.copy()
        mask = np.zeros(8, dtype=bool)
        mask[::2] = True
        arr.advance(mask)
        assert np.array_equal(arr.state[1::2], before[1::2])
        assert not np.array_equal(arr.state[::2], before[::2])

    def test_conditional_advance_matches_scalar_consumption(self):
        seeds = [derive_seed(1, i) for i in range(4)]
        arr = LcgArray(np.array(seeds, dtype=np.uint64))
        scalars = [Lcg32(s) for s in seeds]
        # Lane 0 advances twice, lane 3 once, others never.
        arr.advance(np.array([True, False, False, False]))
        arr.advance(np.array([True, False, False, True]))
        scalars[0].next_u32()
        scalars[0].next_u32()
        scalars[3].next_u32()
        assert list(arr.state) == [s.state for s in scalars]

    def test_bernoulli_masked_lanes_report_false(self):
        arr = LcgArray.from_base_seed(2, (6,))
        mask = np.array([True, False, True, False, True, False])
        hits = arr.bernoulli(np.full(6, 256, dtype=np.uint32), mask)
        assert not hits[~mask].any()
        assert hits[mask].all()

    def test_from_base_seed_shape(self):
        arr = LcgArray.from_base_seed(0, (3, 5))
        assert arr.shape == (3, 5)

    def test_clone_and_state_equal(self):
        a = LcgArray.from_base_seed(1, (4,))
        b = a.clone()
        assert a.state_equal(b)
        a.advance()
        assert not a.state_equal(b)

    def test_draws_update_state_in_place(self):
        """A held ``rng.state`` stays the live array across every draw."""
        arr = LcgArray.from_base_seed(4, (6,))
        s0 = arr.state
        mask = np.array([True, False] * 3)
        arr.advance()
        arr.next_u8(mask)
        arr.bernoulli(np.full(6, 128, dtype=np.uint8), mask)
        assert arr.state is s0

    def test_out_receives_the_result_and_matches_a_fresh_one(self):
        a, b = LcgArray.from_base_seed(5, (7,)), LcgArray.from_base_seed(5, (7,))
        mask = np.arange(7) % 3 == 0
        thr = np.full(7, 100, dtype=np.uint8)
        for fresh, into in (
            (a.advance(mask), b.advance(mask, out=np.empty(7, dtype=np.uint64))),
            (a.next_u8(mask), b.next_u8(mask, out=np.empty(7, dtype=np.int64))),
            (a.bernoulli(thr, mask), b.bernoulli(thr, mask, out=np.empty(7, dtype=bool))),
        ):
            assert np.array_equal(fresh, into)
        assert a.state_equal(b)

    def test_returned_array_is_caller_owned_without_out(self):
        arr = LcgArray.from_base_seed(6, (4,))
        got = arr.advance()
        got[:] = 0
        assert arr.state.all()
