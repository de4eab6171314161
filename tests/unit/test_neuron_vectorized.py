"""Scalar-vs-vectorised neuron equivalence — the core correctness contract.

The vectorised kernel must be bit-identical to the scalar reference for
any parameter combination, including stochastic synapses/leaks, because
both stand in for the same hardware.
"""

import numpy as np
import pytest

from repro.arch.neuron import NeuronArrayState, ReferenceNeuron, integrate_leak_fire
from repro.arch.params import NeuronArrayParameters, NeuronParameters, ResetMode
from repro.util.rng import derive_seed


def run_both(params: NeuronParameters, schedule: list[tuple[int, int, int, int]], core_seed: int = 5):
    """Run the scalar spec and the vectorised kernel on one neuron."""
    ref = ReferenceNeuron(params, derive_seed(core_seed, 0))
    ref_raster = [ref.tick(c) for c in schedule]

    state = NeuronArrayState.create(np.array([core_seed], dtype=np.uint64), 1)
    block = NeuronArrayParameters.empty(1, 1)
    block.set_neuron(0, 0, params)
    vec_raster = []
    for counts in schedule:
        tc = np.array(counts, dtype=np.int32).reshape(1, 1, 4)
        fired = integrate_leak_fire(state, block, tc)
        vec_raster.append(bool(fired[0, 0]))
    return ref_raster, vec_raster, ref.potential, int(state.potential[0, 0])


CASES = [
    NeuronParameters(weights=(1, -1, 2, -2), threshold=3, leak=0),
    NeuronParameters(weights=(2, 0, 0, 0), threshold=5, leak=-1, floor=-4),
    NeuronParameters(weights=(3, 1, 0, 0), threshold=4, reset_mode=ResetMode.LINEAR),
    NeuronParameters(
        weights=(128, -64, 32, 0),
        stochastic_weights=(True, True, True, False),
        threshold=5,
        floor=-20,
    ),
    NeuronParameters(weights=(1, 0, 0, 0), leak=100, stochastic_leak=True, threshold=2),
    NeuronParameters(
        weights=(200, -200, 0, 0),
        stochastic_weights=(True, True, False, False),
        leak=-50,
        stochastic_leak=True,
        threshold=3,
        reset_mode=ResetMode.LINEAR,
        floor=-10,
    ),
]


@pytest.mark.parametrize("params", CASES)
def test_equivalence_on_fixed_schedule(params):
    rng = np.random.default_rng(42)
    schedule = [tuple(rng.integers(0, 4, size=4)) for _ in range(200)]
    ref, vec, ref_v, vec_v = run_both(params, schedule)
    assert ref == vec
    assert ref_v == vec_v


def test_equivalence_many_neurons_per_core():
    """All neurons of a core share nothing: streams must not couple."""
    params = [
        NeuronParameters(
            weights=(100 + i, -50, 0, 0),
            stochastic_weights=(True, True, False, False),
            threshold=2 + i % 3,
        )
        for i in range(8)
    ]
    core_seed = 11
    rng = np.random.default_rng(0)
    schedule = [tuple(rng.integers(0, 3, size=4)) for _ in range(100)]

    refs = [
        ReferenceNeuron(p, derive_seed(core_seed, j)) for j, p in enumerate(params)
    ]
    ref_rasters = [[n.tick(c) for c in schedule] for n in refs]

    state = NeuronArrayState.create(np.array([core_seed], dtype=np.uint64), 8)
    block = NeuronArrayParameters.empty(1, 8)
    for j, p in enumerate(params):
        block.set_neuron(0, j, p)
    vec_rasters = [[] for _ in range(8)]
    for counts in schedule:
        tc = np.tile(np.array(counts, dtype=np.int32), (1, 8, 1))
        fired = integrate_leak_fire(state, block, tc)
        for j in range(8):
            vec_rasters[j].append(bool(fired[0, j]))
    assert ref_rasters == vec_rasters


def test_mixed_counts_per_neuron():
    """Different event counts per neuron exercise the round-loop path."""
    p = NeuronParameters(
        weights=(128, 0, 0, 0),
        stochastic_weights=(True, False, False, False),
        threshold=4,
    )
    core_seed = 3
    counts_per_neuron = [0, 1, 2, 5]
    refs = [
        ReferenceNeuron(p, derive_seed(core_seed, j)) for j in range(4)
    ]
    ref_out = [
        [n.tick((c, 0, 0, 0)) for _ in range(50)]
        for n, c in zip(refs, counts_per_neuron)
    ]

    state = NeuronArrayState.create(np.array([core_seed], dtype=np.uint64), 4)
    block = NeuronArrayParameters.homogeneous(p, 1, 4)
    vec_out = [[] for _ in range(4)]
    tc = np.zeros((1, 4, 4), dtype=np.int32)
    tc[0, :, 0] = counts_per_neuron
    for _ in range(50):
        fired = integrate_leak_fire(state, block, tc)
        for j in range(4):
            vec_out[j].append(bool(fired[0, j]))
    assert ref_out == vec_out


def test_shape_mismatch_rejected():
    state = NeuronArrayState.create(np.array([1], dtype=np.uint64), 4)
    block = NeuronArrayParameters.empty(1, 4)
    with pytest.raises(ValueError):
        integrate_leak_fire(state, block, np.zeros((1, 5, 4), dtype=np.int32))


def test_potential_stays_int32_safe():
    p = NeuronParameters(weights=(255, 0, 0, 0), threshold=10**9 // 2, floor=-(2**17))
    state = NeuronArrayState.create(np.array([1], dtype=np.uint64), 1)
    block = NeuronArrayParameters.empty(1, 1)
    block.set_neuron(0, 0, p)
    tc = np.full((1, 1, 4), 100, dtype=np.int32)
    for _ in range(10):
        integrate_leak_fire(state, block, tc)
    assert state.potential.dtype == np.int32


def test_kernel_updates_state_arrays_in_place():
    """Whoever holds ``state.potential`` / ``state.rng.state`` keeps live arrays."""
    p = NeuronParameters(
        weights=(100, -1, 0, 0),
        stochastic_weights=(True, False, False, False),
        leak=40,
        stochastic_leak=True,
        threshold=2,
        threshold_mask=3,
    )
    state = NeuronArrayState.create(np.array([9], dtype=np.uint64), 4)
    block = NeuronArrayParameters.homogeneous(p, 1, 4)
    p0, s0 = state.potential, state.rng.state
    before = s0.copy()
    integrate_leak_fire(state, block, np.ones((1, 4, 4), dtype=np.int32))
    assert state.potential is p0 and state.rng.state is s0
    assert not np.array_equal(s0, before)
