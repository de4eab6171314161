"""End-to-end determinism of the sharded fleet tier.

The acceptance properties for the shard subsystem:

1. **Fixed layout, repeated runs**: a seeded open-loop fleet load —
   with autoscaling enabled and a rank crash injected on one shard —
   produces a byte-identical ``FleetReport`` JSON, an identical routing
   digest, and an identical scale-decision log on every run.
2. **Cross-layout**: the report is byte-identical between 1-process and
   4-process per-shard backends, because run cost is charged only from
   partition-invariant quantities (ticks and per-tick fired counts) and
   ``state_nbytes`` counts rank-local arrays whose total is
   layout-invariant.
"""

from __future__ import annotations

import pytest

from repro.resilience.faults import FaultSchedule, RankCrash
from repro.serve.server import ServeConfig
from repro.shard.autoscale import AutoscalePolicy
from repro.shard.fleet import build_fleet_report
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter


def _run_fleet(processes: int = 2, crash: bool = False):
    schedule = FaultSchedule([RankCrash(tick=5, rank=1)]) if crash else None
    router = ShardRouter(
        FleetConfig(
            shards=3,
            spill=1,
            hot_depth=8,
            serve=ServeConfig(
                workers=1,
                processes=processes,
                max_batch_size=4,
                max_batch_delay_us=5_000.0,
                keep_records=False,
                fault_schedule=schedule,
            ),
            autoscale=AutoscalePolicy(max_workers=3),
            fault_shard=1 if crash else -1,
        )
    )
    fleet_open_loop(
        router,
        rate_per_s=400.0,
        jobs=120,
        tenants=40,
        cores=4,
        ticks_lo=10,
        ticks_hi=30,
        deadline_us=1_000_000.0,
        seed=13,
        hot_fraction=0.25,
        hot_tenants=3,
    )
    router.run()
    return router


class TestFixedLayoutRepeatedRuns:
    @pytest.fixture(scope="class")
    def first_run(self):
        return _run_fleet(crash=True)

    def test_crash_was_retried_on_the_fault_shard_only(self, first_run):
        report = build_fleet_report(first_run)
        assert report.retries == 1
        assert [s.shard for s in report.shards if s.retries] == [1]

    def test_autoscaler_acted(self, first_run):
        assert first_run.scale_log
        assert any(d.action == "grow" for d in first_run.scale_log)

    def test_report_and_digest_reproducible(self, first_run):
        again = _run_fleet(crash=True)
        assert again.routing_digest == first_run.routing_digest
        assert [d.digest_token() for d in again.scale_log] == [
            d.digest_token() for d in first_run.scale_log
        ]
        assert (
            build_fleet_report(again).to_json()
            == build_fleet_report(first_run).to_json()
        )


class TestCrossLayoutByteIdentity:
    def test_1_vs_4_rank_fleet_reports_identical(self):
        one = _run_fleet(processes=1)
        four = _run_fleet(processes=4)
        assert one.routing_digest == four.routing_digest
        assert (
            build_fleet_report(one).to_json()
            == build_fleet_report(four).to_json()
        )
