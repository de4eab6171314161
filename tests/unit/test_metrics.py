"""Unit tests for run metrics."""

import pytest

from repro.core.metrics import PhaseTimes, RunMetrics, TickMetrics


class TestPhaseTimes:
    def test_total(self):
        t = PhaseTimes(1.0, 2.0, 3.0)
        assert t.total == 6.0

    def test_iadd(self):
        t = PhaseTimes(1, 1, 1)
        t += PhaseTimes(2, 3, 4)
        assert (t.synapse, t.neuron, t.network) == (3, 4, 5)

    def test_as_dict(self):
        d = PhaseTimes(1, 2, 3).as_dict()
        assert d["total"] == 6


class TestRunMetrics:
    def make(self) -> RunMetrics:
        m = RunMetrics(n_ranks=4)
        for t in range(10):
            m.record_tick(
                TickMetrics(
                    tick=t,
                    fired=100,
                    local_spikes=80,
                    remote_spikes=20,
                    messages=5,
                    bytes_sent=400,
                    active_axons=50,
                )
            )
        return m

    def test_accumulation(self):
        m = self.make()
        assert m.ticks == 10
        assert m.total_fired == 1000
        assert m.total_messages == 50

    def test_mean_rate(self):
        m = self.make()
        # 1000 spikes / 1000 neurons / 0.010 s = 100 Hz
        assert m.mean_rate_hz(1000) == pytest.approx(100.0)

    def test_per_tick_ratios(self):
        m = self.make()
        assert m.messages_per_tick() == 5
        assert m.spikes_per_tick() == 20
        assert m.bytes_per_tick() == 400

    def test_summary_keys(self):
        s = self.make().summary(1000)
        assert {"ticks", "mean_rate_hz", "messages_per_tick"} <= set(s)

