"""Property-based tests for the deterministic PRNG."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.neuron import NeuronArrayState
from repro.util.rng import Lcg32, LcgArray, derive_seed, derive_seeds

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_scalar_stream_values_32_bit(seed):
    rng = Lcg32(seed)
    for _ in range(16):
        v = rng.next_u32()
        assert 0 <= v < 2**32


@given(seeds, st.integers(0, 100))
def test_scalar_clone_preserves_future(seed, warmup):
    a = Lcg32(seed)
    for _ in range(warmup):
        a.next_u32()
    b = a.clone()
    assert [a.next_u32() for _ in range(8)] == [b.next_u32() for _ in range(8)]


@given(seeds, st.lists(st.integers(0, 2**20), min_size=1, max_size=4))
def test_derive_seed_stable_and_32bit(base, indices):
    s1 = derive_seed(base, *indices)
    s2 = derive_seed(base, *indices)
    assert s1 == s2
    assert 0 <= s1 < 2**32


@given(seeds, st.integers(1, 32))
@settings(max_examples=30)
def test_array_matches_scalars_under_full_advance(base, n):
    lane_seeds = [derive_seed(base, i) for i in range(n)]
    arr = LcgArray(np.array(lane_seeds, dtype=np.uint64))
    scalars = [Lcg32(s) for s in lane_seeds]
    for _ in range(8):
        vec = arr.advance()
        assert list(vec) == [s.next_u32() for s in scalars]


@given(
    seeds,
    st.lists(st.lists(st.booleans(), min_size=8, max_size=8), min_size=1, max_size=12),
)
@settings(max_examples=30)
def test_array_conditional_advance_matches_scalar_consumption(base, mask_rows):
    """Arbitrary advance patterns: each lane's stream is consumed exactly
    once per True in its mask column, independent of other lanes."""
    arr = LcgArray(np.array([derive_seed(base, i) for i in range(8)], dtype=np.uint64))
    scalars = [Lcg32(derive_seed(base, i)) for i in range(8)]
    for row in mask_rows:
        arr.advance(np.array(row))
        for lane, on in enumerate(row):
            if on:
                scalars[lane].next_u32()
    assert list(arr.state) == [s.state for s in scalars]


@given(seeds, st.integers(0, 256))
@settings(max_examples=20)
def test_bernoulli_rate_bounds(seed, threshold):
    rng = Lcg32(seed)
    hits = sum(rng.bernoulli(threshold) for _ in range(512))
    p = min(threshold, 256) / 256
    # loose 5-sigma-ish binomial bound
    margin = 5 * np.sqrt(512 * max(p * (1 - p), 1 / 512))
    assert abs(hits - 512 * p) <= margin


# -- derive_seeds: the vector form against the scalar spec ---------------------

EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1)
u64 = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))


def _scalar(bases, paths):
    """``derive_seed`` lane by lane over broadcast operands."""
    arrays = np.broadcast_arrays(bases, *paths)
    flat = [[int(v) for v in a.ravel()] for a in arrays]
    out = [derive_seed(*lane) for lane in zip(*flat)]
    return np.array(out, dtype=np.uint64).reshape(arrays[0].shape)


@given(st.data())
@settings(max_examples=150)
def test_derive_seeds_equals_scalar(data):
    """Whole uint64 range, index paths of length 0-3, broadcast shapes
    including (C, 1) x (1, N); an escaping numpy overflow warning fails."""
    c = data.draw(st.integers(1, 4), label="C")
    n = data.draw(st.integers(1, 5), label="N")
    shapes = st.sampled_from([(), (1,), (n,), (c, 1), (1, n), (c, n)])

    def operand():
        shape = data.draw(shapes)
        size = int(np.prod(shape, dtype=int))
        vals = data.draw(st.lists(u64, min_size=size, max_size=size))
        return np.array(vals, dtype=np.uint64).reshape(shape)

    bases = operand()
    paths = [operand() for _ in range(data.draw(st.integers(0, 3), label="path"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = derive_seeds(bases, *paths)
    assert got.dtype == np.uint64
    assert got.shape == np.broadcast_shapes(bases.shape, *(p.shape for p in paths))
    assert (got < 2**32).all()
    np.testing.assert_array_equal(got, _scalar(bases, paths))


@given(u64, st.lists(u64, max_size=3))
def test_derive_seeds_takes_python_ints(base, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = derive_seeds(base, *path)
    assert got.dtype == np.uint64 and got.shape == ()
    assert int(got) == derive_seed(base, *path)


def test_neuron_state_seeds_equal_the_per_lane_scalar_loop():
    core_seeds = np.array([0, 0xDEADBEEF, 2**32 - 1], dtype=np.uint64)
    state = NeuronArrayState.create(core_seeds, 7)
    want = [[derive_seed(int(s), j) for j in range(7)] for s in core_seeds]
    assert state.rng.state.dtype == np.uint64
    assert state.rng.state.tolist() == want
    assert state.potential.shape == (3, 7) and not state.potential.any()


def test_lcg_array_from_base_seed_equals_the_scalar_loop():
    arr = LcgArray.from_base_seed(2**63 + 5, (2, 3))
    want = [derive_seed(2**63 + 5, i) for i in range(6)]
    assert arr.state.reshape(-1).tolist() == want and arr.shape == (2, 3)


def test_block_build_never_calls_the_scalar(monkeypatch):
    """No clock: a 64-core network and its CoreBlock derive every stream
    seed through derive_seeds, so the scalar spec is not called once."""
    import repro.arch.coreblock as coreblock
    import repro.arch.network as network
    import repro.arch.neuron as neuron
    import repro.util.rng as rng

    calls = []

    def counted(base, *indices):
        calls.append(indices)
        return derive_seed(base, *indices)

    for mod in (rng, neuron, network, coreblock):
        if hasattr(mod, "derive_seed"):
            monkeypatch.setattr(mod, "derive_seed", counted)
    net = network.CoreNetwork(64, seed=11)
    block = coreblock.CoreBlock(net, 0, 64)
    assert calls == []
    assert int(block.state.rng.state[63, 255]) == derive_seed(derive_seed(11, 63), 255)
