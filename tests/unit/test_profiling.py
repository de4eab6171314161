"""Unit tests for per-rank profiling."""

import pytest

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.core.pgas_simulator import PgasCompass
from repro.core.profiling import (
    RankProfile,
    imbalance,
    profile_ranks,
    profile_report,
)
from repro.core.simulator import Compass


def _profile(rank, fired=0, axons=0, remote=0, msgs=0):
    return RankProfile(
        rank=rank,
        cores=1,
        neurons=256,
        fired=fired,
        active_axons=axons,
        local_spikes=0,
        remote_spikes=remote,
        messages_sent=0,
        messages_received=msgs,
        bytes_sent=0,
    )


@pytest.fixture(scope="module")
def sim():
    net = build_quickstart_network(n_cores=8, seed=2)
    s = Compass(net, CompassConfig(n_processes=4))
    s.run(80)
    return s


class TestProfiles:
    def test_counters_consistent_with_metrics(self, sim):
        profiles = profile_ranks(sim)
        assert sum(p.fired for p in profiles) == sim.metrics.total_fired
        assert (
            sum(p.remote_spikes for p in profiles)
            == sim.metrics.total_remote_spikes
        )
        assert (
            sum(p.local_spikes for p in profiles)
            == sim.metrics.total_local_spikes
        )
        assert (
            sum(p.active_axons for p in profiles)
            == sim.metrics.total_active_axons
        )

    def test_per_rank_shapes(self, sim):
        profiles = profile_ranks(sim)
        assert [p.rank for p in profiles] == [0, 1, 2, 3]
        assert all(p.cores == 2 for p in profiles)
        assert all(p.neurons == 512 for p in profiles)

    def test_mpi_message_counters(self, sim):
        profiles = profile_ranks(sim)
        assert (
            sum(p.messages_received for p in profiles)
            == sum(p.messages_sent for p in profiles)
            == sim.metrics.total_messages
            > 0
        )

    def test_pgas_profiles(self, sim):
        """One ledger on either backend: the one-sided run of the same
        network reads the same per-rank table, ``msgs_in`` included."""
        s = PgasCompass(sim.network, CompassConfig(n_processes=4))
        s.run(80)
        profiles = profile_ranks(s)
        assert profiles == profile_ranks(sim)
        assert sum(p.messages_received for p in profiles) == s.metrics.total_messages
        # 1.00 is also what a column of zeros reads.
        assert imbalance(profiles).messages_received > 1.0


class TestImbalanceMath:
    def test_exact_max_over_mean(self):
        profiles = [
            _profile(0, fired=10, axons=4, remote=1, msgs=2),
            _profile(1, fired=30, axons=4, remote=3, msgs=6),
        ]
        imb = imbalance(profiles)
        assert imb.fired == pytest.approx(30 / 20)
        assert imb.active_axons == pytest.approx(1.0)
        assert imb.remote_spikes == pytest.approx(3 / 2)
        assert imb.messages_received == pytest.approx(6 / 4)
        assert imb.worst == pytest.approx(1.5)

    def test_single_rank_is_balanced(self):
        imb = imbalance([_profile(0, fired=100, axons=5, remote=9, msgs=3)])
        assert imb.fired == 1.0
        assert imb.worst == 1.0

    def test_zero_mean_defines_balanced(self):
        # A dimension nobody exercised (e.g. remote spikes on 1 rank)
        # must read 1.0, not raise or return nan.
        imb = imbalance([_profile(0), _profile(1)])
        assert imb.fired == 1.0
        assert imb.remote_spikes == 1.0
        assert imb.worst == 1.0


class TestImbalance:
    def test_imbalance_at_least_one(self, sim):
        imb = imbalance(profile_ranks(sim))
        assert imb.fired >= 1.0
        assert imb.worst >= 1.0

    def test_report_renders(self, sim):
        text = profile_report(sim, region_of_rank=lambda r: f"R{r}")
        assert "per-rank load profile" in text
        assert "imbalance" in text
        assert "R0" in text
