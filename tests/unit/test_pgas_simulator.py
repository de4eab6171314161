"""Unit tests for the PGAS-backend Compass simulator."""

import numpy as np

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.core.pgas_simulator import PgasCompass
from repro.core.simulator import Compass


class TestPgasBackend:
    def test_runs_and_spikes(self):
        net = build_quickstart_network()
        sim = PgasCompass(net, CompassConfig(n_processes=2))
        result = sim.run(32)
        assert result.total_spikes > 0

    def test_put_counters_track_messages(self):
        net = build_quickstart_network()
        sim = PgasCompass(net, CompassConfig(n_processes=4))
        sim.run(16)
        puts = sim.obs.registry.counter("compass_messages_total").total()
        assert puts == sim.metrics.total_messages
        assert puts > 0

    def test_barrier_once_per_tick(self):
        net = build_quickstart_network()
        sim = PgasCompass(net, CompassConfig(n_processes=2))
        sim.run(10)
        assert sim.cluster.epoch == 10

    def test_windows_drained_each_tick(self):
        net = build_quickstart_network()
        sim = PgasCompass(net, CompassConfig(n_processes=2))
        sim.run(10)
        assert all(len(w) == 0 for w in sim.cluster.windows)

    def test_identical_raster_to_mpi_backend(self):
        """§VII: PGAS is a communication change, not a semantic one."""
        net = build_quickstart_network()
        mpi = Compass(net, CompassConfig(n_processes=2, record_spikes=True))
        pgas = PgasCompass(net, CompassConfig(n_processes=2, record_spikes=True))
        mpi.run(48)
        pgas.run(48)
        for a, b in zip(mpi.recorder.to_arrays(), pgas.recorder.to_arrays()):
            assert np.array_equal(a, b)
