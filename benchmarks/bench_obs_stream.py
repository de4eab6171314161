"""Streaming telemetry: the live pipeline's outputs on a fleet run.

Runs the *same* seeded open-loop fleet load twice with
``FleetConfig.telemetry`` on —

* **on** — windows + SLO engine, records counted and dropped;
* **on+sinks** — same, with line-serialising JSONL sinks attached, the
  configuration ``repro shard run --slo --rollups --alerts`` uses;

and tables the simulated-side outputs (windows, rollup records, alert
transitions), which are exact and layout-invariant: a sink is a pure
observer of the same deterministic stream, so both rows must agree.
"""

import json

from repro.obs.live import SLO, BurnRateRule, TelemetryConfig
from repro.perf.report import format_table
from repro.serve.server import ServeConfig
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter

SHARDS = 3
WORKERS = 2
JOBS = 2_000
TENANTS = 500
RATE_PER_S = 1_000.0
SEED = 17
WINDOW_US = 50_000.0


def _telemetry() -> TelemetryConfig:
    return TelemetryConfig(
        window_us=WINDOW_US,
        slos=(SLO("latency", latency_target_us=25_000.0, error_budget=0.05),),
        rules=(
            BurnRateRule("page", long_windows=4, short_windows=1, threshold=8.0),
            BurnRateRule("ticket", long_windows=12, short_windows=3, threshold=2.0),
        ),
    )


def _run_fleet(sink: list[str] | None) -> ShardRouter:
    router = ShardRouter(
        FleetConfig(
            shards=SHARDS,
            serve=ServeConfig(workers=WORKERS, keep_records=False),
            telemetry=_telemetry(),
        )
    )
    if sink is not None:
        # The CLI's sink shape: canonical one-line JSON per record.
        router.telemetry.rollup_sink = lambda r: sink.append(json.dumps(r, sort_keys=True))
        router.telemetry.alert_sink = lambda r: sink.append(json.dumps(r, sort_keys=True))
    fleet_open_loop(
        router,
        rate_per_s=RATE_PER_S,
        jobs=JOBS,
        tenants=TENANTS,
        cores=4,
        deadline_us=500_000.0,
        seed=SEED,
        hot_fraction=0.2,
        hot_tenants=4,
    )
    router.run()
    return router


def test_streaming_telemetry_outputs(compare_result):
    lines: list[str] = []
    tel = _run_fleet(None).telemetry
    sinked = _run_fleet(lines).telemetry

    rows = [
        ("on", tel.windows_closed, tel.records_emitted),
        ("on+sinks", sinked.windows_closed, sinked.records_emitted),
    ]
    table = format_table(
        ["telemetry", "windows", "rollups"],
        rows,
        title=f"streaming telemetry ({SHARDS}-shard fleet, "
        f"{JOBS} jobs, {WINDOW_US / 1e3:.0f} ms windows)",
    )
    table += (
        f"\nalerts: {tel.engine.fired} fired, {tel.engine.resolved} resolved "
        f"({len(tel.alerts)} transitions total)"
    )
    compare_result("obs_stream", table)

    assert rows[0][1:] == rows[1][1:]
    assert tel.windows_closed > 0 and tel.records_emitted > 0
    assert len(tel.alerts) == len(sinked.alerts)
    assert len(lines) == sinked.records_emitted + len(sinked.alerts)
