"""The report JSON is pinned, and malformed report files fail typed.

``golden/serve_report.json`` and ``golden/fleet_report.json`` were written
at commit 74d4b77 by the hand-written codecs this repo used to have;
regenerate on purpose with::

    PYTHONPATH=src python tests/unit/test_report_codec.py
"""

from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs.live import SLO, TelemetryConfig
from repro.serve.loadgen import LatencyReport, build_report, open_loop_load
from repro.serve.queue import TenantQuota
from repro.serve.server import ServeConfig, SimServer
from repro.shard.fleet import FleetReport, build_fleet_report
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter

GOLDEN = Path(__file__).with_name("golden")


def serve_report() -> LatencyReport:
    """Seeded run with rejections, deadline misses and three tenants."""
    server = SimServer(
        ServeConfig(workers=1, max_batch_size=4, max_batch_delay_us=5000.0,
                    queue_capacity=6)
    )
    open_loop_load(
        server, rate_per_s=400.0, jobs=40, tenants=("a", "b", "c"), cores=4,
        deadline_us=60_000.0, seed=9,
    )
    server.run()
    return build_report(server)


def fleet_report() -> FleetReport:
    """Seeded 3-shard run with telemetry windows and a hot tenant."""
    router = ShardRouter(FleetConfig(
        shards=3,
        hot_depth=4,
        serve=ServeConfig(workers=1, keep_records=False, max_batch_size=4,
                          max_batch_delay_us=5000.0, queue_capacity=8,
                          default_quota=TenantQuota(max_queued=2)),
        telemetry=TelemetryConfig(
            window_us=50_000.0, slos=(SLO("latency", 30_000.0, 0.05),)
        ),
    ))
    fleet_open_loop(
        router, rate_per_s=600.0, jobs=90, tenants=30, cores=4,
        deadline_us=80_000.0, seed=9, hot_fraction=0.4, hot_tenants=2,
    )
    router.run()
    return build_fleet_report(router)


CASES = {
    "serve_report.json": (serve_report, LatencyReport),
    "fleet_report.json": (fleet_report, FleetReport),
}


@pytest.mark.parametrize("name", CASES)
def test_to_json_equals_golden_and_round_trips(name):
    build, cls = CASES[name]
    report = build()
    text = report.to_json()
    assert text + "\n" == (GOLDEN / name).read_text()
    assert cls.from_json(text) == report


def test_goldens_exercise_every_counter():
    serve, fleet = serve_report(), fleet_report()
    assert serve.jobs_rejected and serve.deadline_missed and len(serve.tenants) == 3
    assert fleet.jobs_rejected and fleet.deadline_missed and fleet.windows
    assert fleet.spilled and fleet.alerts_fired


@pytest.mark.parametrize(
    "cls, text",
    [
        (LatencyReport, "not json"),
        (LatencyReport, '{"schema": 1}'),
        (LatencyReport, "[1, 2]"),
        (LatencyReport, '{"schema": 99, "tenants": []}'),
        (FleetReport, "not json"),
        (FleetReport, '{"schema": 2}'),
        (FleetReport, '{"schema": 2, "shards": [{"shard": 0}]}'),
        (FleetReport, '"text"'),
    ],
)
def test_malformed_report_is_a_typed_error(cls, text):
    with pytest.raises(ReproError):
        cls.from_json(text)


if __name__ == "__main__":
    for name, (build, _) in CASES.items():
        (GOLDEN / name).write_text(build().to_json() + "\n")
