"""Unit tests for checkpoint save/restore."""

import numpy as np
import pytest

from repro.apps.quicknet import build_quickstart_network
from repro.core.checkpoint import (
    _network_fingerprint,
    capture_state,
    load_checkpoint,
    restore_state,
    save_checkpoint,
    state_nbytes,
)
from repro.core.config import CompassConfig
from repro.core.pgas_simulator import PgasCompass
from repro.core.simulator import Compass
from repro.errors import CheckpointError


class TestCheckpoint:
    def test_resume_is_bit_exact(self, tmp_path):
        net = build_quickstart_network()
        path = tmp_path / "ckpt.npz"

        ref = Compass(net, CompassConfig(n_processes=2, record_spikes=True))
        ref.run(60)

        first = Compass(net, CompassConfig(n_processes=2))
        first.run(30)
        save_checkpoint(first, path)

        resumed = Compass(net, CompassConfig(n_processes=2, record_spikes=True))
        load_checkpoint(resumed, path)
        assert resumed.tick == 30
        resumed.run(30)

        # Compare the last 30 ticks of the reference with the resumed run.
        t_ref, g_ref, n_ref = ref.recorder.to_arrays()
        sel = t_ref >= 30
        t_res, g_res, n_res = resumed.recorder.to_arrays()
        assert np.array_equal(t_ref[sel], t_res)
        assert np.array_equal(g_ref[sel], g_res)
        assert np.array_equal(n_ref[sel], n_res)

    def test_rejects_different_network(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = Compass(build_quickstart_network(seed=1), CompassConfig(n_processes=2))
        a.run(5)
        save_checkpoint(a, path)
        b = Compass(build_quickstart_network(seed=2), CompassConfig(n_processes=2))
        with pytest.raises(CheckpointError, match="different network"):
            load_checkpoint(b, path)

    @pytest.mark.parametrize("field", ["floor", "reset_mode"])
    def test_rejects_one_changed_neuron_parameter(self, tmp_path, field):
        path = tmp_path / "ckpt.npz"
        saved = Compass(build_quickstart_network(), CompassConfig(n_processes=2))
        saved.run(10)
        save_checkpoint(saved, path)
        changed = build_quickstart_network()
        getattr(changed.neuron_params, field)[1, 7] ^= 1
        sim = Compass(changed, CompassConfig(n_processes=2))
        sim.run(3)
        before = sim.span.snapshot()
        with pytest.raises(CheckpointError, match="different network"):
            load_checkpoint(sim, path)
        assert sim.tick == 3
        for old, now in zip(before, sim.span.snapshot()):
            for name in old:
                assert np.array_equal(old[name], now[name]), name

    def test_rejects_different_rank_count(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        net = build_quickstart_network()
        a = Compass(net, CompassConfig(n_processes=2))
        save_checkpoint(a, path)
        b = Compass(net, CompassConfig(n_processes=4))
        with pytest.raises(CheckpointError, match="ranks"):
            load_checkpoint(b, path)

    def test_missing_file(self, tmp_path):
        net = build_quickstart_network()
        sim = Compass(net, CompassConfig(n_processes=2))
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(sim, tmp_path / "nope.npz")

    def test_rejects_pending_injections(self, tmp_path):
        net = build_quickstart_network()
        sim = Compass(net, CompassConfig(n_processes=2))
        sim.inject(0, 0, tick=5)
        with pytest.raises(CheckpointError, match="injections"):
            save_checkpoint(sim, tmp_path / "x.npz")

    def test_pgas_resume_is_bit_exact(self, tmp_path):
        """The file round-trip works for the one-sided backend too."""
        net = build_quickstart_network()
        path = tmp_path / "pgas.npz"

        ref = PgasCompass(net, CompassConfig(n_processes=2, record_spikes=True))
        ref.run(60)

        first = PgasCompass(net, CompassConfig(n_processes=2))
        first.run(30)
        save_checkpoint(first, path)

        resumed = PgasCompass(net, CompassConfig(n_processes=2, record_spikes=True))
        load_checkpoint(resumed, path)
        assert resumed.tick == 30
        resumed.run(30)

        t_ref, g_ref, n_ref = ref.recorder.to_arrays()
        sel = t_ref >= 30
        t_res, g_res, n_res = resumed.recorder.to_arrays()
        assert np.array_equal(t_ref[sel], t_res)
        assert np.array_equal(g_ref[sel], g_res)
        assert np.array_equal(n_ref[sel], n_res)


class TestInMemoryState:
    """capture_state/restore_state — the recovery subsystem's snapshot."""

    @pytest.mark.parametrize("sim_cls", [Compass, PgasCompass])
    def test_round_trip_replay_is_bit_exact(self, sim_cls):
        net = build_quickstart_network()
        cfg = CompassConfig(n_processes=2, record_spikes=True)

        ref = sim_cls(net, cfg)
        ref.run(20)
        t_ref, g_ref, n_ref = ref.recorder.to_arrays()

        sim = sim_cls(net, cfg)
        sim.run(10)
        state = capture_state(sim)
        sim.run(5)  # advance past the snapshot, then roll back
        restore_state(sim, state)
        assert sim.tick == 10
        sim.recorder.truncate(10)
        sim.run(10)

        t, g, n = sim.recorder.to_arrays()
        assert np.array_equal(t, t_ref)
        assert np.array_equal(g, g_ref)
        assert np.array_equal(n, n_ref)

    def test_restore_rejects_rank_mismatch(self):
        net = build_quickstart_network()
        a = Compass(net, CompassConfig(n_processes=2))
        b = Compass(net, CompassConfig(n_processes=4))
        with pytest.raises(CheckpointError, match="ranks"):
            restore_state(b, capture_state(a))

    def test_state_nbytes_positive(self):
        net = build_quickstart_network()
        sim = Compass(net, CompassConfig(n_processes=2))
        assert state_nbytes(sim) > 0


def _cut_potential(path):
    arrays = dict(np.load(path))
    arrays["rank1_potential"] = arrays["rank1_potential"][:1]
    np.savez_compressed(path, **arrays)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _drop_rng(path):
    arrays = dict(np.load(path))
    del arrays["rank1_rng"]
    np.savez_compressed(path, **arrays)


class TestDamagedCheckpoint:
    """A damaged file is refused whole: nothing in the simulator moves."""

    @pytest.mark.parametrize(
        "damage, match",
        [(_cut_potential, "potential"), (_truncate, "unreadable"), (_drop_rng, "rng")],
        ids=["wrong-shape", "truncated", "missing-rng"],
    )
    def test_damaged_file_is_refused_before_any_write(self, tmp_path, damage, match):
        net = build_quickstart_network(n_cores=8)
        path = tmp_path / "ckpt.npz"
        saved = Compass(net, CompassConfig(n_processes=2))
        saved.run(25)
        save_checkpoint(saved, path)
        damage(path)

        sim = Compass(net, CompassConfig(n_processes=2))
        sim.run(3)
        before = sim.span.snapshot()
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(sim, path)
        assert sim.tick == 3
        for old, now in zip(before, sim.span.snapshot()):
            for name in old:
                assert np.array_equal(old[name], now[name]), name


def _as_format_1(path, sim):
    """Rewrite ``sim``'s checkpoint in format 1's layout: ``uint64`` PRNG state,
    the three-array fingerprint, version 1 (array for array what a format-1
    writer saved)."""
    arrays = dict(np.load(path))
    arrays["format_version"] = np.int64(1)
    arrays["fingerprint"] = np.frombuffer(
        _network_fingerprint(sim, version=1).encode(), dtype=np.uint8
    )
    for key in arrays:
        if key.endswith("_rng"):
            arrays[key] = arrays[key].astype(np.uint64)
    np.savez_compressed(path, **arrays)


class TestFormat1Checkpoint:
    """Format 2 narrowed the PRNG state to ``uint32``; a format-1 file still loads."""

    #: spike_digest of ticks 30-59 resumed from a format-1 file, as format 1's
    #: own loader gives it.
    DIGEST = "f009675c17940eb6808b6d8120195e0b71ff38734bb0ffbe7adfee094aa23a62"

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "v1.npz"
        first = Compass(build_quickstart_network(), CompassConfig(n_processes=2))
        first.run(30)
        save_checkpoint(first, path)
        _as_format_1(path, first)
        return path

    def test_format_1_file_loads_and_continues_to_its_digest(self, tmp_path):
        from repro.resilience import spike_digest

        resumed = Compass(
            build_quickstart_network(), CompassConfig(n_processes=2, record_spikes=True)
        )
        load_checkpoint(resumed, self.saved(tmp_path))
        assert resumed.span.block.state.rng.state.dtype == np.uint32
        resumed.run(30)
        assert spike_digest(resumed.recorder) == self.DIGEST

    def test_format_1_state_past_32_bits_is_refused_untouched(self, tmp_path):
        path = self.saved(tmp_path)
        arrays = dict(np.load(path))
        arrays["rank1_rng"][0, 3] += np.uint64(2**32)
        np.savez_compressed(path, **arrays)
        sim = Compass(build_quickstart_network(), CompassConfig(n_processes=2))
        sim.run(3)
        before = sim.span.snapshot()
        with pytest.raises(CheckpointError, match="rank1_rng.*2\\*\\*32"):
            load_checkpoint(sim, path)
        assert sim.tick == 3
        for old, now in zip(before, sim.span.snapshot()):
            for name in old:
                assert np.array_equal(old[name], now[name]), name
