"""Unit tests for repro.resilience: faults, detection, recovery, report.

The load-bearing property throughout: recovery preserves the bit-
determinism contract — a faulted-and-recovered run produces the same
spike raster as an uninterrupted run of the same seed (the integration
suite covers the macaque-scale version of this claim).
"""

import numpy as np
import pytest

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.core.pgas_simulator import PgasCompass
from repro.core.simulator import Compass
from repro.errors import (
    MessageCorruptionError,
    RankFailureError,
    RecoveryExhaustedError,
)
from repro.resilience import (
    CheckpointCostModel,
    FaultInjector,
    FaultSchedule,
    HeartbeatConfig,
    LinkDegrade,
    MessageCorruption,
    MessageDrop,
    MessageDuplicate,
    RankCrash,
    RecoveryPolicy,
    ResilientRunner,
    StragglerThread,
    spike_digest,
)

TICKS = 24


@pytest.fixture(scope="module")
def net():
    return build_quickstart_network(n_cores=4, seed=3)


@pytest.fixture(scope="module")
def factory(net):
    cfg = CompassConfig(n_processes=2, record_spikes=True)

    def make():
        return Compass(net, cfg)

    return make


@pytest.fixture(scope="module")
def clean_digest(factory):
    return spike_digest(factory().run(TICKS).spikes)


class TestFaultSchedule:
    def test_events_sorted_canonically(self):
        s = FaultSchedule(
            [RankCrash(tick=9, rank=0), MessageDrop(tick=2, source=1, dest=0)]
        )
        assert [e.tick for e in s] == [2, 9]

    def test_random_is_seed_deterministic(self):
        a = FaultSchedule.random(seed=11, ticks=50, n_ranks=4, crashes=2, drops=3)
        b = FaultSchedule.random(seed=11, ticks=50, n_ranks=4, crashes=2, drops=3)
        assert a.events == b.events
        c = FaultSchedule.random(seed=12, ticks=50, n_ranks=4, crashes=2, drops=3)
        assert a.events != c.events

    def test_rejects_negative_tick(self):
        with pytest.raises(ValueError, match="negative tick"):
            FaultSchedule([RankCrash(tick=-1, rank=0)])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSchedule([LinkDegrade(tick=0, duration=0, dim=0, factor=2.0)])
        with pytest.raises(ValueError, match="factor"):
            FaultSchedule([StragglerThread(tick=0, duration=2, rank=0, factor=0.5)])


class TestClusterPrimitives:
    def test_fail_and_revive_rank(self, net):
        sim = Compass(net, CompassConfig(n_processes=2))
        sim.cluster.fail_rank(1)
        assert sim.cluster.dead == {1}
        with pytest.raises(RankFailureError):
            sim.step()
        sim.cluster.revive_rank(1)
        sim.cluster.reset_communication()
        assert sim.cluster.dead == set()

    def test_mailbox_purge(self, net):
        sim = Compass(net, CompassConfig(n_processes=2))
        ep = sim.cluster.endpoints[0]
        ep.isend(1, b"keep", 4)
        ep.isend(1, b"drop", 4)
        removed = sim.cluster.mailboxes[1].purge(lambda m: m.payload == b"drop")
        assert removed == 1
        assert len(sim.cluster.mailboxes[1]) == 1

    def test_corruption_detected_by_checksum(self, net):
        sched = FaultSchedule([MessageCorruption(tick=0, source=0, dest=1)])
        sim = Compass(net, CompassConfig(n_processes=2))
        sim.cluster.injector = FaultInjector(sched)
        with pytest.raises(MessageCorruptionError, match="checksum"):
            for _ in range(TICKS):
                sim.cluster.injector.begin_tick(sim.cluster, sim.tick)
                sim.step()


class TestRecoveryDigests:
    @pytest.mark.parametrize("kind", ["restart", "spare"])
    def test_crash_recovery_is_bit_exact(self, factory, clean_digest, kind):
        runner = ResilientRunner(
            factory,
            schedule=FaultSchedule([RankCrash(tick=7, rank=1)]),
            checkpoint_interval=5,
            policy=RecoveryPolicy(kind=kind),
        )
        result = runner.run(TICKS)
        assert spike_digest(result.spikes) == clean_digest
        assert len(runner.report.failures) == 1
        assert runner.report.lost_ticks == 2  # crash at 7, checkpoint at 5
        assert result.metrics.ticks == TICKS

    @pytest.mark.parametrize(
        "event",
        [
            MessageDrop(tick=6, source=0, dest=1),
            MessageCorruption(tick=6, source=1, dest=0),
        ],
        ids=["drop", "corrupt"],
    )
    def test_message_fault_recovery_is_bit_exact(self, factory, clean_digest, event):
        runner = ResilientRunner(
            factory, schedule=FaultSchedule([event]), checkpoint_interval=5
        )
        result = runner.run(TICKS)
        assert spike_digest(result.spikes) == clean_digest
        assert len(runner.report.failures) == 1

    def test_duplicate_absorbed_without_rollback(self, factory, clean_digest):
        runner = ResilientRunner(
            factory,
            schedule=FaultSchedule([MessageDuplicate(tick=6, source=0, dest=1)]),
            checkpoint_interval=5,
        )
        result = runner.run(TICKS)
        assert spike_digest(result.spikes) == clean_digest
        # OR-idempotent delivery + transport dedup: no recovery needed.
        assert runner.report.failures == []
        assert runner.injector.duplicated == 1
        assert runner.report.duplicates_discarded == 1

    def test_metrics_match_uninterrupted_run(self, factory):
        clean = factory().run(TICKS)
        runner = ResilientRunner(
            factory,
            schedule=FaultSchedule([RankCrash(tick=7, rank=0)]),
            checkpoint_interval=5,
        )
        result = runner.run(TICKS)
        assert result.metrics.total_fired == clean.metrics.total_fired
        assert result.metrics.total_messages == clean.metrics.total_messages
        assert result.metrics.ticks == clean.metrics.ticks
        assert result.metrics.overhead_s > 0

    def test_same_schedule_same_digest(self, factory):
        sched = FaultSchedule.random(seed=5, ticks=TICKS, n_ranks=2, crashes=1, drops=1)
        a = ResilientRunner(factory, schedule=sched, checkpoint_interval=6).run(TICKS)
        b = ResilientRunner(factory, schedule=sched, checkpoint_interval=6).run(TICKS)
        assert spike_digest(a.spikes) == spike_digest(b.spikes)


class TestRecoveryPolicy:
    def test_exhaustion_raises(self, factory):
        runner = ResilientRunner(
            factory,
            schedule=FaultSchedule([RankCrash(tick=3, rank=0)]),
            checkpoint_interval=5,
            policy=RecoveryPolicy(max_retries=0),
        )
        with pytest.raises(RecoveryExhaustedError):
            runner.run(10)

    def test_backoff_doubles(self):
        p = RecoveryPolicy(kind="restart", backoff_base_s=0.5)
        assert p.wait_s(1) == 0.5
        assert p.wait_s(2) == 1.0
        assert p.wait_s(3) == 2.0

    def test_spare_wait_is_flat(self):
        p = RecoveryPolicy(kind="spare", spare_takeover_s=0.05)
        assert p.wait_s(1) == p.wait_s(3) == 0.05

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            RecoveryPolicy(kind="reboot")

    def test_refuses_sanitized_simulator(self, net):
        def make():
            return Compass(net, CompassConfig(n_processes=2), sanitize=True)

        with pytest.raises(ValueError, match="sanitizer"):
            ResilientRunner(make)

    def test_refuses_one_sided_cluster(self, net):
        def make():
            return PgasCompass(net, CompassConfig(n_processes=2))

        with pytest.raises(ValueError, match="requires the MPI backend"):
            ResilientRunner(make)


class TestHeartbeat:
    def test_detection_latency_scales_with_tick_time(self):
        cfg = HeartbeatConfig(miss_threshold=3)
        assert cfg.detection_latency_ticks == 3
        slow = cfg.detection_latency_s(4, mean_tick_s=0.1)
        fast = cfg.detection_latency_s(4, mean_tick_s=0.0)
        assert slow > fast > 0


class TestTimingFaults:
    def test_timing_faults_charge_overhead_not_spikes(self, net):
        cfg = CompassConfig.for_blue_gene_q(nodes=2, record_spikes=True)

        def make():
            return Compass(net, cfg)

        clean = make().run(TICKS)
        sched = FaultSchedule(
            [
                LinkDegrade(tick=4, duration=3, dim=0, factor=4.0),
                StragglerThread(tick=8, duration=2, rank=1, factor=3.0),
            ]
        )
        runner = ResilientRunner(make, schedule=sched, checkpoint_interval=10)
        result = runner.run(TICKS)
        assert spike_digest(result.spikes) == spike_digest(clean.spikes)
        assert runner.report.degraded_extra_s > 0
        assert runner.report.straggler_extra_s > 0
        assert result.metrics.simulated.total > clean.metrics.simulated.total

    def test_straggler_factor_is_team_bound(self):
        inj = FaultInjector(
            FaultSchedule([StragglerThread(tick=0, duration=5, rank=1, factor=3.0)])
        )
        # Static partition: one slow thread drags the whole team.
        assert inj.compute_factor(2, rank=1, n_threads=4) == 3.0
        assert inj.compute_factor(2, rank=0, n_threads=4) == 1.0
        assert inj.compute_factor(7, rank=1, n_threads=4) == 1.0  # window over
        assert inj.max_straggler_factor(2, n_ranks=2, n_threads=4) == 3.0

    def test_network_factor_uses_crossing_fraction(self):
        from repro.runtime.torus import TorusTopology

        inj = FaultInjector(
            FaultSchedule([LinkDegrade(tick=0, duration=5, dim=0, factor=3.0)])
        )
        topo = TorusTopology((4, 2))
        expected = 1.0 + (1.0 - 1.0 / 4) * 2.0
        assert inj.network_factor(2, topo) == pytest.approx(expected)
        assert inj.network_factor(9, topo) == 1.0  # window over
        # Without a topology the whole phase scales by the raw factor.
        assert inj.network_factor(2, None) == pytest.approx(3.0)


class TestReport:
    def test_summary_fields(self, factory):
        runner = ResilientRunner(
            factory,
            schedule=FaultSchedule([RankCrash(tick=7, rank=1)]),
            checkpoint_interval=5,
            costs=CheckpointCostModel(alpha_s=0.01),
        )
        runner.run(TICKS)
        s = runner.report.summary()
        assert s["failures"] == 1
        assert s["lost_ticks"] == 2
        assert s["checkpoints"] == runner.report.n_checkpoints > 0
        assert s["time_to_recover_s"] > 0
        assert s["total_overhead_s"] >= s["checkpoint_overhead_s"]

    def test_format_mentions_key_quantities(self, factory):
        runner = ResilientRunner(
            factory,
            schedule=FaultSchedule([RankCrash(tick=7, rank=1)]),
            checkpoint_interval=5,
        )
        runner.run(TICKS)
        text = runner.report.format()
        assert "checkpoint overhead" in text
        assert "lost ticks" in text
        assert "time to recover" in text
        assert "RankFailureError" in text

    def test_overhead_fraction(self):
        from repro.resilience.report import RecoveryReport

        r = RecoveryReport(checkpoint_interval=5, policy="restart")
        r.note_checkpoint(5, 0.5)
        assert r.overhead_fraction(10.0) == pytest.approx(0.05)
        assert r.overhead_fraction(0.0) == 0.0


class TestLintClean:
    def test_resilience_package_lints_clean(self):
        from pathlib import Path

        import repro.resilience
        from repro.check.lint import run_lint

        pkg = Path(repro.resilience.__file__).parent
        report = run_lint([pkg])
        assert report.passed, report.format()


class TestRecorderRollback:
    def test_truncate_removes_tail(self, net):
        sim = Compass(net, CompassConfig(n_processes=2, record_spikes=True))
        sim.run(10)
        t, _, _ = sim.recorder.to_arrays()
        before = t.size
        removed = sim.recorder.truncate(6)
        t2, _, _ = sim.recorder.to_arrays()
        assert removed == before - t2.size
        assert t2.size == (t < 6).sum()
        assert t2.max() < 6

    def test_metrics_rollback_recomputes_totals(self, net):
        sim = Compass(net, CompassConfig(n_processes=2))
        sim.run(10)
        full_fired = sim.metrics.total_fired
        sim.metrics.rollback_to(6)
        assert sim.metrics.ticks == 6
        assert sim.metrics.total_fired == sum(
            tm.fired for tm in sim.metrics.per_tick
        )
        assert sim.metrics.total_fired <= full_fired
        assert all(tm.tick < 6 for tm in sim.metrics.per_tick)
