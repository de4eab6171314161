"""Unit tests for the live-telemetry layer (``repro.obs.live``).

Covers the deterministic trace-context algebra, the streaming rollup's
window edge cases (empty windows, single-job windows, boundary-exact
completions), the multi-window burn-rate SLO engine (adjacent-window
fire/resolve), the kind-aware divergence finder, the flow-event
validator's malformed-trace detection, and journey reconstruction.
"""

import json

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import Observability
from repro.obs.jsonl import first_divergence, read_event_log, write_event_log
from repro.obs.live import (
    ALERT_SCHEMA,
    BurnRateRule,
    LiveTelemetry,
    ROLLUP_SCHEMA,
    SLO,
    SLOEngine,
    StreamingRollup,
    TelemetryConfig,
    TraceContext,
    find_traces,
    job_trace_id,
    reconstruct_journey,
    rollup_record,
)
from repro.obs.perfetto import validate_chrome_trace
from repro.obs.registry import MetricRegistry
from repro.obs.span import NULL_TRACER, SpanTracer
from repro.serve.jobs import DONE, REJECTED, Job, JobSpec, SloFold


def _job(
    tenant="t0",
    job_id=0,
    submit_us=0.0,
    finish_us=10_000.0,
    status=DONE,
    deadline_us=None,
    reject=False,
):
    spec = JobSpec(tenant=tenant, ticks=10, deadline_us=deadline_us)
    job = Job(spec=spec, job_id=job_id, submit_us=submit_us)
    if reject:
        job.status = REJECTED
    else:
        job.status = status
        job.finish_us = finish_us
    return job


class TestTraceContext:
    def test_ids_are_content_defined(self):
        a = TraceContext.root("t0", 3, 125.5)
        b = TraceContext.root("t0", 3, 125.5)
        assert a == b
        assert a.trace_id == job_trace_id("t0", 3, 125.5)
        assert a.span_id == a.trace_id and a.parent_id == ""

    def test_child_chains_parent_links(self):
        root = TraceContext.root("t0", 0, 0.0)
        route = root.child("route")
        queue = route.child("queue")
        assert route.parent_id == root.span_id
        assert queue.parent_id == route.span_id
        assert queue.trace_id == root.trace_id
        assert len(queue.span_id) == 16

    def test_submit_instant_disambiguates_job_ids(self):
        # Per-shard job ids collide across shards; the submit instant
        # (from the seeded arrival process) never does.
        assert job_trace_id("t0", 0, 1.0) != job_trace_id("t0", 0, 2.0)

    def test_stage_changes_span(self):
        root = TraceContext.root("t0", 0, 0.0)
        assert root.child("route").span_id != root.child("queue").span_id


class TestWindowAggregate:
    """One window's aggregate is an :class:`SloFold` plus ``rollup_record``."""

    def test_rejected_jobs_do_not_record_latency(self):
        agg = SloFold()
        agg.observe(_job(reject=True, deadline_us=5_000.0))
        assert agg.rejected == 1 and agg.completed == 0
        assert agg.missed == 1  # rejection misses the deadline by definition
        assert agg.latencies == []

    def test_single_job_window_record(self):
        agg = SloFold()
        agg.observe(_job(finish_us=10_000.0))
        rec = rollup_record(agg, 0, 0.0, 50_000.0, "fleet", -1, "", 3)
        assert rec["schema"] == ROLLUP_SCHEMA and rec["kind"] == "rollup"
        assert rec["completed"] == 1
        assert rec["p50_us"] == rec["p95_us"] == rec["p99_us"] == 10_000.0
        assert rec["throughput_per_s"] == pytest.approx(20.0)
        assert rec["queue_depth"] == 3

    def test_empty_window_record_is_all_zero(self):
        rec = rollup_record(SloFold(), 2, 100.0, 200.0, "shard", 1, "", 0)
        assert rec["completed"] == rec["rejected"] == rec["missed"] == 0
        assert rec["p50_us"] == 0.0 and rec["miss_rate"] == 0.0


class TestStreamingRollup:
    def test_emits_fleet_shard_tenant_in_fixed_order(self):
        out = []
        roll = StreamingRollup(50_000.0, n_shards=2, sink=out.append)
        roll.observe(0, _job(tenant="b"))
        roll.observe(1, _job(tenant="a", job_id=1))
        roll.close_window([0, 0])
        scopes = [(r["scope"], r["shard"], r["tenant"]) for r in out]
        assert scopes == [
            ("fleet", -1, ""),
            ("shard", 0, ""),
            ("shard", 1, ""),
            ("tenant", -1, "a"),
            ("tenant", -1, "b"),
        ]

    def test_empty_window_still_emits_per_shard_records(self):
        out = []
        roll = StreamingRollup(50_000.0, n_shards=3, sink=out.append)
        roll.close_window([0, 0, 0])
        assert len(out) == 4  # fleet + 3 shards, no tenants
        assert all(r["completed"] == 0 for r in out)

    def test_window_state_resets_after_close(self):
        roll = StreamingRollup(50_000.0, n_shards=1)
        roll.observe(0, _job())
        roll.close_window([0])
        (first, _, agg) = roll.close_window([0])[0]
        assert agg.terminal == 0
        assert roll.window == 2

    def test_boundary_exact_completion_counts_in_next_window(self):
        """[t0, t1) assignment, via the router's processing order.

        The router drains events strictly before the boundary, closes
        the window, then runs boundary-instant events — so a completion
        at exactly t1 must land in window t1's aggregates.
        """
        from repro.serve.server import ServeConfig, SimServer

        # Measure one job's actual finish time, then replay with a
        # window boundary placed exactly there.
        server = SimServer(ServeConfig(workers=1))
        server.submit(JobSpec(tenant="t0", ticks=10), at_us=0.0)
        server.run()
        (job,) = server.finished_jobs()
        boundary = job.finish_us  # a window boundary exactly at completion

        server2 = SimServer(ServeConfig(workers=1))
        roll = StreamingRollup(boundary, n_shards=1)
        server2.add_completion_hook(lambda j: roll.observe(0, j))
        server2.submit(JobSpec(tenant="t0", ticks=10), at_us=0.0)
        server2.run_before(boundary)  # strictly-before: job not done yet
        closed = roll.close_window([len(server2.queue)])
        assert closed[0][2].terminal == 0  # window [0, b) is empty
        server2.run_until(boundary)  # boundary instant: job completes
        closed = roll.close_window([0])
        assert closed[0][2].terminal == 1  # ... and lands in window [b, 2b)
        assert roll.windows_closed == 2

    def test_max_ts_tracks_rejections_by_submit_time(self):
        roll = StreamingRollup(1_000.0, n_shards=1)
        roll.observe(0, _job(reject=True, submit_us=2_500.0))
        assert roll.max_ts_us == 2_500.0

    def test_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            StreamingRollup(0.0, n_shards=1)
        with pytest.raises(ConfigurationError):
            StreamingRollup(100.0, n_shards=0)


class TestSLOEngine:
    SLOS = (SLO("latency", latency_target_us=5_000.0, error_budget=0.1),)
    RULE = BurnRateRule("page", long_windows=2, short_windows=1, threshold=2.0)

    def _window(self, engine, window, bad):
        """Feed one window: 4 jobs, `bad` of them over target."""
        agg = SloFold()
        for i in range(4):
            lat = 50_000.0 if i < bad else 1_000.0
            agg.observe(_job(job_id=i, finish_us=lat))
        return engine.evaluate(window, (window + 1) * 100.0, [("fleet", -1, agg)])

    def test_fire_and_resolve_in_adjacent_windows(self):
        engine = SLOEngine(self.SLOS, rules=(self.RULE,))
        # Window 0: all bad -> burn 10.0 over both lookbacks -> fire.
        fired = self._window(engine, 0, bad=4)
        assert [a["state"] for a in fired] == ["fire"]
        assert fired[0]["kind"] == "alert" and fired[0]["schema"] == ALERT_SCHEMA
        assert fired[0]["burn_short"] == pytest.approx(10.0)
        # Window 1: all good -> short burn (10+0)/... short=1 window = 0 -> resolve.
        resolved = self._window(engine, 1, bad=0)
        assert [a["state"] for a in resolved] == ["resolve"]
        assert engine.fired == 1 and engine.resolved == 1

    def test_no_transition_while_condition_holds(self):
        engine = SLOEngine(self.SLOS, rules=(self.RULE,))
        assert len(self._window(engine, 0, bad=4)) == 1
        assert self._window(engine, 1, bad=4) == []  # still firing: no record

    def test_long_window_guards_single_spike(self):
        # One bad window after a long good history: the long lookback
        # dilutes the spike below threshold, so nothing fires.
        rule = BurnRateRule("page", long_windows=4, short_windows=1, threshold=8.0)
        engine = SLOEngine(self.SLOS, rules=(rule,))
        for w in range(3):
            assert self._window(engine, w, bad=0) == []
        assert self._window(engine, 3, bad=4) == []
        # long burn = (4/16)/0.1 = 2.5 < 8 even though short burn is 10.

    def test_empty_windows_burn_nothing(self):
        engine = SLOEngine(self.SLOS, rules=(self.RULE,))
        empty = SloFold()
        assert engine.evaluate(0, 100.0, [("fleet", -1, empty)]) == []

    def test_unique_names_enforced(self):
        with pytest.raises(ConfigurationError):
            SLOEngine((self.SLOS[0], self.SLOS[0]))
        with pytest.raises(ConfigurationError):
            SLOEngine(self.SLOS, rules=(self.RULE, self.RULE))

    def test_rule_shape_validated(self):
        with pytest.raises(ConfigurationError):
            BurnRateRule("bad", long_windows=1, short_windows=2, threshold=1.0)


class TestLiveTelemetry:
    def _telemetry(self, tracer=NULL_TRACER):
        config = TelemetryConfig(
            window_us=1_000.0,
            slos=(SLO("latency", latency_target_us=1.0, error_budget=0.01),),
            rules=(BurnRateRule("page", 1, 1, 1.0),),
        )
        return LiveTelemetry(config, n_shards=1, tracer=tracer)

    def test_finalize_closes_through_last_observation(self):
        tel = self._telemetry()
        tel.observe(0, _job(finish_us=2_500.0))
        tel.finalize([0])
        assert tel.windows_closed == 3  # windows 0,1,2 cover ts 2500
        tel.finalize([0])  # idempotent
        assert tel.windows_closed == 3

    def test_alerts_recorded_and_traced(self):
        tracer = SpanTracer()
        tel = self._telemetry(tracer=tracer)
        tel.observe(0, _job(finish_us=500.0))  # over the 1us target
        tel.close_window([0])
        states = [a["state"] for a in tel.alerts]
        assert states == ["fire", "fire"]  # fleet scope + shard scope
        instants = [e for e in tracer.events if e["cat"] == "alert"]
        assert [e["name"] for e in instants] == ["slo.fire", "slo.fire"]
        assert all(e["ts"] == 1_000.0 for e in instants)

    def test_disabled_tracer_emits_no_events(self):
        tel = self._telemetry()
        tel.observe(0, _job(finish_us=500.0))
        tel.close_window([0])
        assert tel.alerts  # alerts still recorded
        assert len(NULL_TRACER) == 0


class TestKindDivergence:
    ROLLUP_A = [
        {"kind": "rollup", "window": 0, "scope": "fleet", "shard": -1,
         "t1_us": 100.0, "completed": 3},
        {"kind": "alert", "window": 0, "scope": "fleet", "shard": -1,
         "t_us": 100.0, "state": "fire"},
        {"kind": "rollup", "window": 1, "scope": "fleet", "shard": -1,
         "t1_us": 200.0, "completed": 5},
    ]

    def test_kind_filter_localises_rollup_divergence(self):
        b = [dict(r) for r in self.ROLLUP_A]
        b[2] = dict(b[2], completed=6)
        div = first_divergence(self.ROLLUP_A, b, kind="rollup")
        assert div.index == 1  # second *rollup* record, alert filtered out
        text = div.describe()
        assert "rollup[window=1" in text and "completed" in text

    def test_kind_filter_ignores_other_kinds(self):
        b = [dict(r) for r in self.ROLLUP_A]
        b[1] = dict(b[1], state="resolve")  # alert differs
        assert first_divergence(self.ROLLUP_A, b, kind="rollup") is None
        div = first_divergence(self.ROLLUP_A, b, kind="alert")
        assert div is not None and div.index == 0

    def test_prefix_divergence_names_window(self):
        div = first_divergence(self.ROLLUP_A, self.ROLLUP_A[:2], kind="rollup")
        assert "log B ends" in div.describe()
        assert "window 1" in div.describe()


class TestFlowValidation:
    def _trace(self, events):
        return {"traceEvents": events}

    def _slice(self, ts, dur=10.0, pid=0, tid=1):
        return {"name": "job.route", "cat": "serve", "ph": "X", "ts": ts,
                "dur": dur, "pid": pid, "tid": tid, "args": {}}

    def _flow(self, ph, ts, flow_id="abc", pid=0, tid=1):
        return {"name": "job", "cat": "serve", "ph": ph, "ts": ts,
                "id": flow_id, "bp": "e", "pid": pid, "tid": tid, "args": {}}

    def test_well_formed_flow_passes(self):
        errors = validate_chrome_trace(self._trace([
            self._slice(0.0), self._flow("s", 0.0),
            self._slice(5.0), self._flow("t", 5.0),
            self._slice(20.0), self._flow("f", 20.0),
        ]))
        assert errors == []

    def test_missing_finish_flagged(self):
        errors = validate_chrome_trace(self._trace([
            self._slice(0.0), self._flow("s", 0.0),
        ]))
        assert any("0 'f' events" in e for e in errors)

    def test_duplicate_start_flagged(self):
        errors = validate_chrome_trace(self._trace([
            self._slice(0.0), self._flow("s", 0.0), self._flow("s", 1.0),
            self._flow("f", 2.0),
        ]))
        assert any("2 's' events" in e for e in errors)

    def test_start_after_finish_flagged(self):
        errors = validate_chrome_trace(self._trace([
            self._slice(0.0), self._flow("f", 0.0),
            self._slice(5.0), self._flow("s", 5.0),
        ]))
        assert any("later than 'f'" in e for e in errors)

    def test_step_outside_span_flagged(self):
        errors = validate_chrome_trace(self._trace([
            self._slice(0.0), self._flow("s", 0.0),
            self._slice(5.0), self._flow("f", 5.0),
            self._slice(9.0), self._flow("t", 9.0),
        ]))
        assert any("outside its" in e for e in errors)

    def test_unenclosed_flow_event_flagged(self):
        errors = validate_chrome_trace(self._trace([
            self._flow("s", 0.0), self._flow("f", 1.0),
        ]))
        assert sum("not enclosed" in e for e in errors) == 2

    def test_missing_flow_id_flagged(self):
        bad = self._flow("s", 0.0)
        bad["id"] = ""
        errors = validate_chrome_trace(self._trace([self._slice(0.0), bad]))
        assert any("non-empty 'id'" in e for e in errors)

    def test_flows_scoped_by_category(self):
        # Same id in different categories are different flows.
        errors = validate_chrome_trace(self._trace([
            self._slice(0.0), self._flow("s", 0.0),
            {**self._flow("f", 1.0), "cat": "other"},
            self._slice(1.0),
        ]))
        assert any("0 'f' events" in e for e in errors)


class TestSpanTracerFlow:
    def test_flow_rejects_unknown_phase(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError, match="flow phase"):
            tracer.flow("job", rank=0, ph="X", flow_id="abc", ts_us=0.0)

    def test_null_tracer_flow_and_complete_are_noops(self):
        NULL_TRACER.complete("job.route", rank=0, ts_us=0.0)
        NULL_TRACER.flow("job", rank=0, ph="s", flow_id="abc", ts_us=0.0)
        assert len(NULL_TRACER) == 0


class TestJourney:
    def _traced_run(self):
        obs = Observability.with_tracing()
        from repro.serve.server import ServeConfig, SimServer

        server = SimServer(ServeConfig(workers=1), obs=obs)
        server.submit(JobSpec(tenant="t0", ticks=10), at_us=100.0)
        server.run()
        return obs.tracer.events

    def test_standalone_serve_journey(self):
        records = self._traced_run()
        (trace_id,) = find_traces(records, job=0)
        journey = reconstruct_journey(records, trace_id)
        assert journey.stages == ["queue", "batch", "run", "done"]
        assert journey.tenant == "t0" and journey.job == 0
        assert trace_id in journey.format()

    def test_find_traces_selectors(self):
        records = self._traced_run()
        assert find_traces(records, tenant="t0")
        assert find_traces(records, tenant="nope") == []
        assert find_traces(records, job=99) == []

    def test_broken_chain_raises(self):
        records = self._traced_run()
        (trace_id,) = find_traces(records, job=0)
        # Drop the 'batch' stage: the run stage's parent link breaks.
        broken = [r for r in records if r.get("name") != "job.batch"]
        with pytest.raises(AnalysisError, match="broken causal chain"):
            reconstruct_journey(broken, trace_id)

    def test_unknown_trace_raises(self):
        with pytest.raises(AnalysisError, match="no stage events"):
            reconstruct_journey([], "deadbeefdeadbeef")

    def test_journey_roundtrips_through_jsonl(self, tmp_path):
        obs = Observability.with_tracing()
        from repro.serve.server import ServeConfig, SimServer

        server = SimServer(ServeConfig(workers=1), obs=obs)
        server.submit(JobSpec(tenant="t0", ticks=10), at_us=0.0)
        server.run()
        path = write_event_log(obs.tracer, tmp_path / "events.jsonl")
        records = read_event_log(path)
        (trace_id,) = find_traces(records, job=0)
        journey = reconstruct_journey(records, trace_id)
        assert journey.stages[-1] == "done"
        assert journey.steps[0].rank == -1  # standalone service track


class TestHistogramEdgeCases:
    def test_cumulative_on_rank_with_no_observations(self):
        reg = MetricRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 10.0))
        hist.observe(0, 5.0)
        # Rank 7 never observed anything: all-zero cumulative, +Inf last.
        assert hist.cumulative(7) == [(1.0, 0), (10.0, 0), (float("inf"), 0)]
        assert hist.count(7) == 0
