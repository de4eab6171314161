"""Unit tests for run configuration, run results, and the error taxonomy."""

import pytest

from repro import errors
from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.core.simulator import Compass
from repro.errors import (
    CheckpointError,
    CommunicationError,
    CompilationError,
    ConfigurationError,
    ReproError,
    WiringError,
)


class TestErrors:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            WiringError,
            CommunicationError,
            CompilationError,
            CheckpointError,
        ):
            assert issubclass(exc, ReproError)

    def test_catchable_at_package_level(self):
        with pytest.raises(ReproError):
            raise WiringError("x")

    def test_module_exports_match(self):
        public = {n for n in dir(errors) if n.endswith("Error")}
        assert {
            "ReproError",
            "ConfigurationError",
            "WiringError",
            "CommunicationError",
            "CompilationError",
            "CheckpointError",
        } <= public


class TestCompassConfig:
    def test_defaults(self):
        cfg = CompassConfig()
        assert cfg.n_processes == 1
        assert cfg.threads_per_process == 1
        assert not cfg.record_spikes

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CompassConfig(n_processes=0)
        with pytest.raises(ConfigurationError):
            CompassConfig(threads_per_process=0)

    def test_frozen(self):
        cfg = CompassConfig()
        with pytest.raises(AttributeError):
            cfg.n_processes = 5


class TestRunResult:
    @pytest.fixture(scope="class")
    def result(self):
        net = build_quickstart_network()
        sim = Compass(net, CompassConfig(n_processes=2, record_spikes=True))
        return sim.run(50), net

    def test_totals_consistent(self, result):
        r, net = result
        assert r.total_spikes == r.metrics.total_fired
        assert r.total_spikes == r.spikes.count

    def test_mean_rate_formula(self, result):
        r, net = result
        expected = r.total_spikes / net.n_neurons / 0.05
        assert r.mean_rate_hz == pytest.approx(expected)

    def test_summary_keys(self, result):
        r, _ = result
        s = r.summary()
        assert s["ticks"] == 50
        assert s["ranks"] == 2
        assert s["total_fired"] == r.total_spikes
