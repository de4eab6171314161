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
from repro.core.simulator import Compass
from repro.errors import (
    ConfigurationError,
    MessageCorruptionError,
    RankFailureError,
    RecoveryExhaustedError,
)
from repro.exec import make_adapter
from repro.resilience import (
    CheckpointCostModel,
    FaultInjector,
    FaultSchedule,
    HeartbeatConfig,
    MessageCorruption,
    MessageDrop,
    MessageDuplicate,
    RankCrash,
    RecoveryPolicy,
    ResilientRunner,
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
        return make_adapter("mpi").prepare(net, cfg)

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

    @pytest.mark.parametrize(
        "event",
        [
            MessageDrop(tick=5, source=0, dest=9),
            MessageDuplicate(tick=5, source=2, dest=1),
            MessageCorruption(tick=5, source=1, dest=-1),
            RankCrash(tick=5, rank=7),
        ],
        ids=["drop", "duplicate", "corruption", "crash"],
    )
    def test_rank_outside_the_run_is_refused_before_any_tick(self, factory, event):
        sim = factory()
        with pytest.raises(ConfigurationError, match="outside the 2-rank run"):
            ResilientRunner(sim, schedule=FaultSchedule([event]))
        assert sim.tick == 0


class TestClusterPrimitives:
    def test_fail_and_revive_rank(self, net):
        sim = Compass(net, CompassConfig(n_processes=2))
        sim.cluster.fail_rank(1)
        assert sim.cluster.dead == {1}
        with pytest.raises(RankFailureError):
            sim.step()
        sim.cluster.reset()  # every rank alive, nothing in flight
        assert sim.cluster.dead == set()
        assert not sim.cluster.iprobe().any()

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
            factory(),
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
            factory(), schedule=FaultSchedule([event]), checkpoint_interval=5
        )
        result = runner.run(TICKS)
        assert spike_digest(result.spikes) == clean_digest
        assert len(runner.report.failures) == 1

    def test_duplicate_absorbed_without_rollback(self, factory, clean_digest):
        runner = ResilientRunner(
            factory(),
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
            factory(),
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
        a = ResilientRunner(factory(), schedule=sched, checkpoint_interval=6).run(TICKS)
        b = ResilientRunner(factory(), schedule=sched, checkpoint_interval=6).run(TICKS)
        assert spike_digest(a.spikes) == spike_digest(b.spikes)


class TestRecoveryPolicy:
    def test_exhaustion_raises(self, factory):
        runner = ResilientRunner(
            factory(),
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

    def test_refuses_one_sided_cluster(self, net):
        """A fault schedule needs the two-sided exchange's fault hooks."""
        adapter = make_adapter("pgas").prepare(net, CompassConfig(n_processes=2))
        with pytest.raises(ValueError, match="cannot inject simulated rank faults"):
            ResilientRunner(adapter, FaultSchedule([RankCrash(tick=2, rank=1)]))
        adapter.run_ticks(2)  # a refusal leaves the adapter as it was

    def test_checkpoints_an_adapter_without_fault_hooks(self, net):
        cfg = CompassConfig(n_processes=2, record_spikes=True)
        clean = make_adapter("pgas").prepare(net, cfg).run(TICKS)
        runner = ResilientRunner(
            make_adapter("pgas").prepare(net, cfg), checkpoint_interval=5
        )
        result = runner.run(TICKS)
        assert spike_digest(result.spikes) == spike_digest(clean.spikes)
        assert runner.report.n_checkpoints == 4
        assert runner.report.failures == []


class TestHeartbeat:
    def test_detection_latency_scales_with_tick_time(self):
        cfg = HeartbeatConfig(miss_threshold=3)
        assert cfg.detection_latency_ticks == 3
        slow = HeartbeatConfig(miss_threshold=3, nominal_tick_s=0.1).detection_latency_s(4)
        fast = cfg.detection_latency_s(4)
        assert slow > fast > 0


class TestReport:
    def test_summary_fields(self, factory):
        runner = ResilientRunner(
            factory(),
            schedule=FaultSchedule([RankCrash(tick=7, rank=1)]),
            checkpoint_interval=5,
            costs=CheckpointCostModel(alpha_s=0.01),
        )
        runner.run(TICKS)
        r = runner.report
        assert len(r.failures) == 1
        assert r.lost_ticks == 2
        assert r.n_checkpoints == len(r.checkpoints) > 0
        assert r.time_to_recover_s > 0
        assert r.total_overhead_s == r.checkpoint_overhead_s + r.time_to_recover_s

    def test_format_mentions_key_quantities(self, factory):
        runner = ResilientRunner(
            factory(),
            schedule=FaultSchedule([RankCrash(tick=7, rank=1)]),
            checkpoint_interval=5,
        )
        runner.run(TICKS)
        text = runner.report.format()
        assert "checkpoint overhead" in text
        assert "lost ticks" in text
        assert "time to recover" in text
        assert "RankFailureError" in text


class TestLintClean:
    def test_resilience_package_lints_clean(self):
        from pathlib import Path

        import repro.resilience
        from repro.check.lint import run_lint

        pkg = Path(repro.resilience.__file__).parent
        report = run_lint([pkg])
        assert report.passed, report.format()
