"""Determinism guarantees of the observability layer.

Three contracts from docs/observability.md:

* repeated runs of one configuration produce byte-identical JSONL logs;
* the cluster-track ``tick`` summary subset is partition-invariant —
  identical across different rank counts for the same network and seed
  (alongside the spike digest, the existing cross-layout oracle);
* after a crash + recovery, the registry's ``compass_*`` instruments
  render identically to a fault-free run (checkpointed rollback).
"""

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.core.simulator import Compass
from repro.exec import make_adapter
from repro.obs import (
    Observability,
    first_divergence,
    read_event_log,
    render_textfile,
    write_event_log,
)
from repro.resilience import (
    FaultSchedule,
    RankCrash,
    RecoveryPolicy,
    ResilientRunner,
    spike_digest,
)

TICKS = 30
N_CORES = 16


def _traced_run(n_processes, seed=11, ticks=TICKS):
    net = build_quickstart_network(n_cores=N_CORES, seed=seed)
    obs = Observability.with_tracing()
    sim = Compass(
        net, CompassConfig(n_processes=n_processes, record_spikes=True), obs=obs
    )
    result = sim.run(ticks)
    return result, obs


class TestByteIdentity:
    def test_repeated_runs_identical_jsonl(self, tmp_path):
        _, obs_a = _traced_run(4)
        _, obs_b = _traced_run(4)
        a = write_event_log(obs_a.tracer, tmp_path / "a.jsonl")
        b = write_event_log(obs_b.tracer, tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_runs_identical_metrics(self):
        res_a, obs_a = _traced_run(4)
        res_b, obs_b = _traced_run(4)
        assert render_textfile(obs_a.registry) == render_textfile(obs_b.registry)
        assert spike_digest(res_a.spikes) == spike_digest(res_b.spikes)


class TestPartitionInvariance:
    def test_tick_subset_matches_across_rank_counts(self, tmp_path):
        res_1, obs_1 = _traced_run(1)
        res_4, obs_4 = _traced_run(4)
        # The full logs differ (more ranks, more per-rank spans) ...
        a = read_event_log(write_event_log(obs_1.tracer, tmp_path / "r1.jsonl"))
        b = read_event_log(write_event_log(obs_4.tracer, tmp_path / "r4.jsonl"))
        assert first_divergence(a, b) is not None
        # ... but the cluster-track tick summaries are identical, as is
        # the spike digest — the two partition-invariant oracles.
        assert first_divergence(a, b, name="tick") is None
        assert spike_digest(res_1.spikes) == spike_digest(res_4.spikes)
        ticks = [r for r in a if r["name"] == "tick"]
        assert len(ticks) == TICKS
        assert all(r["rank"] == -1 for r in ticks)


class TestRecoveryMetrics:
    def test_registry_matches_clean_run_after_recovery(self):
        def factory(obs):
            net = build_quickstart_network(n_cores=N_CORES, seed=11)
            cfg = CompassConfig(n_processes=4, record_spikes=True)
            return lambda: make_adapter("mpi", obs=obs).prepare(net, cfg)

        clean_obs = Observability.off()
        clean = factory(clean_obs)().run(TICKS)

        faulty_obs = Observability.off()
        runner = ResilientRunner(
            factory(faulty_obs)(),
            schedule=FaultSchedule([RankCrash(tick=17, rank=1)]),
            checkpoint_interval=5,
            policy=RecoveryPolicy(kind="restart"),
        )
        result = runner.run(TICKS)

        assert spike_digest(result.spikes) == spike_digest(clean.spikes)
        # compass_* instruments roll back with the checkpoint, so the
        # recovered run's simulator counters match the clean run's.
        clean_text = render_textfile(clean_obs.registry)
        faulty_lines = [
            line
            for line in render_textfile(faulty_obs.registry).splitlines()
            if line.startswith(("compass_", "# TYPE compass_", "# HELP compass_"))
        ]
        clean_lines = [
            line
            for line in clean_text.splitlines()
            if line.startswith(("compass_", "# TYPE compass_", "# HELP compass_"))
        ]
        assert faulty_lines == clean_lines
        # Resilience meta-counters survive the rollback monotonically.
        assert faulty_obs.registry.counter(
            "resilience_checkpoints_total"
        ).total() > 0
