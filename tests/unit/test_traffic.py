"""Unit tests for the scale-out traffic model."""

import numpy as np
import pytest

from repro.cocomac.model import build_macaque_coreobject
from repro.perf.traffic import CocomacTraffic, SyntheticTraffic


@pytest.fixture(scope="module")
def model():
    return build_macaque_coreobject(total_cores=16384, seed=0)


class TestRateSplit:
    def test_mean_rate_preserved(self, model):
        tm = CocomacTraffic(model, mean_rate_hz=8.1, white_rate_hz=0.53)
        ts = tm.summary(64)
        total_neurons = model.total_cores * 256
        implied_rate = ts.total_spikes * 1000.0 / total_neurons
        # Connection counts ~ neuron count (every neuron one output).
        assert implied_rate == pytest.approx(8.1, rel=0.02)

    def test_white_rate_too_high_rejected(self, model):
        with pytest.raises(ValueError):
            CocomacTraffic(model, mean_rate_hz=1.0, white_rate_hz=50.0)


class TestScaling:
    def test_messages_grow_sublinearly_with_processes(self, model):
        """Fig 4(b): thinner links -> sub-linear message growth."""
        tm = CocomacTraffic(model)
        m64 = tm.summary(64).messages
        m512 = tm.summary(512).messages
        assert m512 > m64  # more process pairs
        assert m512 < 8 * m64  # but sub-linear in the process count

    def test_spikes_independent_of_partitioning(self, model):
        tm = CocomacTraffic(model)
        assert tm.summary(64).white_spikes == pytest.approx(
            tm.summary(512).white_spikes
        )

    def test_messages_bounded_by_spikes(self, model):
        ts = CocomacTraffic(model).summary(256)
        assert ts.messages <= ts.white_spikes

    def test_aggregation_ablation_one_message_per_spike(self, model):
        agg = CocomacTraffic(model, aggregate=True).summary(256)
        per_spike = CocomacTraffic(model, aggregate=False).summary(256)
        assert per_spike.messages == pytest.approx(per_spike.white_spikes)
        assert agg.messages < per_spike.messages

    def test_focused_targeting_fewer_messages(self, model):
        """§V-B ablation: focused connections concentrate traffic."""
        diffuse = CocomacTraffic(model, diffuse=True).summary(512)
        focused = CocomacTraffic(model, diffuse=False).summary(512)
        assert focused.messages < diffuse.messages

    def test_bytes_are_20_per_spike(self, model):
        ts = CocomacTraffic(model).summary(128)
        assert ts.bytes_sent == pytest.approx(20 * ts.white_spikes)

    def test_compute_load_uniform(self, model):
        ts = CocomacTraffic(model).summary(128)
        assert np.allclose(ts.neurons_pp, ts.neurons_pp[0])
        assert ts.neurons_pp[0] == pytest.approx(16384 * 256 / 128)


class TestSynthetic:
    def test_local_fraction_split(self):
        tm = SyntheticTraffic(n_cores=1024, rate_hz=10.0, node_local_fraction=0.75)
        ts = tm.summary(nodes=64, procs_per_node=1)
        assert ts.total_spikes == pytest.approx(1024 * 256 * 0.01)
        # With one process per node, process-local == node-local.
        local = float(ts.local_spikes_pp[0] * ts.n_processes)
        assert local == pytest.approx(0.75 * ts.total_spikes)

    def test_more_procs_per_node_less_local(self):
        tm = SyntheticTraffic(n_cores=1024)
        one = tm.summary(64, 1)
        four = tm.summary(64, 4)
        assert four.local_spikes_pp[0] * four.n_processes < (
            one.local_spikes_pp[0] * one.n_processes
        )

    def test_remote_spikes_complement_local(self):
        tm = SyntheticTraffic(n_cores=2048, rate_hz=10.0)
        ts = tm.summary(32, 2)
        local_total = float(ts.local_spikes_pp[0] * ts.n_processes)
        assert ts.white_spikes + local_total == pytest.approx(ts.total_spikes)
