"""End-to-end determinism of the live-telemetry tier.

The acceptance properties for ``repro.obs.live``:

1. **Fixed layout, repeated runs**: a seeded open-loop fleet load with
   streaming telemetry enabled produces byte-identical rollup and alert
   record streams (canonical ``json.dumps(..., sort_keys=True)`` lines)
   on every run, and the alerts actually fire *and* resolve.
2. **Cross-layout**: the streams are byte-identical between 1-process
   and 4-process per-shard backends — every telemetry input is a
   partition-invariant simulated quantity.
3. **Causality**: with tracing on, any routed job's full causal chain
   (route → queue → batch → run → done) reconstructs from the event
   log alone, and the emitted Chrome trace passes flow validation.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import Observability
from repro.obs.jsonl import first_divergence
from repro.obs.live import SLO, BurnRateRule, TelemetryConfig
from repro.obs.live.journey import find_traces, reconstruct_journey
from repro.obs.perfetto import to_chrome_trace, validate_chrome_trace
from repro.serve.server import ServeConfig
from repro.shard.fleet import build_fleet_report
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter


def _canonical(records):
    return [json.dumps(r, sort_keys=True) for r in records]


def _run_fleet(processes: int = 2, tracing: bool = False):
    """One seeded fleet run with streaming telemetry; returns the router
    plus the captured rollup and alert record streams."""
    rollups: list[dict] = []
    alerts: list[dict] = []
    # A latency target well below this load's typical ~20ms end-to-end
    # latency, so the burn-rate rules genuinely fire; short lookback of
    # one window lets the tail of the run resolve them again.
    telemetry = TelemetryConfig(
        window_us=40_000.0,
        slos=(SLO("latency", latency_target_us=8_000.0, error_budget=0.05),),
        rules=(
            BurnRateRule("page", long_windows=2, short_windows=1, threshold=4.0),
        ),
    )
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
            ),
            telemetry=telemetry,
        ),
        obs=Observability.with_tracing() if tracing else None,
    )
    router.telemetry.rollup_sink = rollups.append
    router.telemetry.alert_sink = alerts.append
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
    return router, rollups, alerts


class TestStreamingDeterminism:
    @pytest.fixture(scope="class")
    def first_run(self):
        return _run_fleet()

    def test_telemetry_produced_signal(self, first_run):
        router, rollups, alerts = first_run
        assert router.telemetry.windows_closed >= 3
        assert len(rollups) == router.telemetry.records_emitted
        # The tight SLO target makes alerts fire — and the drain at the
        # end of the run lets at least one resolve again.
        assert router.telemetry.engine.fired >= 1
        assert router.telemetry.engine.resolved >= 1
        states = {a["state"] for a in alerts}
        assert states == {"fire", "resolve"}

    def test_report_surfaces_telemetry(self, first_run):
        router, rollups, alerts = first_run
        report = build_fleet_report(router)
        assert report.windows == router.telemetry.windows_closed
        assert report.rollup_records == len(rollups)
        assert report.alerts_fired == router.telemetry.engine.fired
        assert report.alerts_resolved == router.telemetry.engine.resolved
        assert "telemetry:" in report.format()

    def test_repeated_runs_byte_identical(self, first_run):
        _, rollups, alerts = first_run
        _, rollups2, alerts2 = _run_fleet()
        assert _canonical(rollups) == _canonical(rollups2)
        assert _canonical(alerts) == _canonical(alerts2)

    def test_rank_layout_invariance(self, first_run):
        _, rollups, alerts = first_run  # processes=2
        _, rollups1, alerts1 = _run_fleet(processes=1)
        _, rollups4, alerts4 = _run_fleet(processes=4)
        assert _canonical(rollups1) == _canonical(rollups)
        assert _canonical(rollups4) == _canonical(rollups)
        assert _canonical(alerts1) == _canonical(alerts)
        assert _canonical(alerts4) == _canonical(alerts)
        # first_divergence agrees (and exercises the kind filter on a
        # mixed stream, as `repro obs diff --kind` would see it).
        mixed = rollups + alerts
        mixed1 = rollups1 + alerts1
        assert first_divergence(mixed, mixed1, kind="rollup") is None
        assert first_divergence(mixed, mixed1, kind="alert") is None


class TestCausalJourneys:
    @pytest.fixture(scope="class")
    def traced_run(self):
        router, _, _ = _run_fleet(tracing=True)
        records = router.obs.tracer.events
        return router, records

    def test_every_completed_job_has_a_full_chain(self, traced_run):
        router, records = traced_run
        traces = find_traces(records)
        assert traces
        full_chains = 0
        for trace_id in traces:
            journey = reconstruct_journey(records, trace_id)
            assert journey.stages[0] == "route"
            assert journey.stages[-1] in ("done", "reject")
            if journey.stages[-1] == "done":
                assert journey.stages[:2] == ["route", "queue"]
                assert "run" in journey.stages
                full_chains += 1
        assert full_chains >= 10

    def test_route_and_terminal_share_trace_across_shards(self, traced_run):
        router, records = traced_run
        traces = find_traces(records)
        journey = reconstruct_journey(records, traces[0])
        route = journey.steps[0]
        # The routing decision and the shard-local stages carry the same
        # trace id even though they execute on different ranks.
        assert {s.rank for s in journey.steps} == {route.rank}
        assert journey.format().count("span=") == len(journey.steps)

    def test_chrome_trace_flows_validate(self, traced_run):
        router, _ = traced_run
        trace = to_chrome_trace(router.obs.tracer, label="fleet")
        assert validate_chrome_trace(trace) == []

    def test_alert_instants_traced(self, traced_run):
        router, records = traced_run
        alert_events = [r for r in records if r.get("cat") == "alert"]
        assert alert_events
        assert {r["name"] for r in alert_events} <= {"slo.fire", "slo.resolve"}
