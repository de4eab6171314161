"""Unit tests for the fleet router, autoscaler, and fleet report."""

import pytest

from repro.errors import (
    ConfigurationError,
    FleetFullError,
    ShardError,
    UnknownTenantError,
)
from repro.serve.jobs import JobSpec
from repro.serve.server import ServeConfig, SimServer
from repro.shard.autoscale import AutoscalePolicy, Autoscaler
from repro.shard.fleet import FleetReport, build_fleet_report
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter


def spec(tenant="t1", ticks=10, priority=4, **kw):
    return JobSpec(
        tenant=tenant, model="quickstart", cores=4, ticks=ticks,
        priority=priority, seed=42, **kw,
    )


def same_home_tenants(ring, count=2, shard=None):
    """First ``count`` tenant names sharing one home shard."""
    found = {}
    for i in range(10_000):
        name = f"t{i}"
        home = ring.lookup(name)
        if shard is not None and home != shard:
            continue
        found.setdefault(home, []).append(name)
        if len(found[home]) == count:
            return home, found[home]
    raise AssertionError("no colliding tenants found")


class TestFleetConfig:
    def test_defaults_valid(self):
        FleetConfig()

    def test_fault_schedule_requires_fault_shard(self):
        with pytest.raises(ConfigurationError, match="fault_shard"):
            FleetConfig(serve=ServeConfig(fault_schedule=object()), fault_shard=-1)

    def test_fault_shard_bounds(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(shards=4, fault_shard=4)

    def test_fault_schedule_stripped_from_other_shards(self):
        schedule = object()
        config = FleetConfig(
            shards=2, spill=1, serve=ServeConfig(fault_schedule=schedule),
            fault_shard=1,
        )
        assert config.shard_serve_config(1).fault_schedule is schedule
        assert config.shard_serve_config(0).fault_schedule is None


class TestRouting:
    def _router(self, **kw):
        defaults = dict(
            shards=2,
            spill=1,
            hot_depth=2,
            serve=ServeConfig(
                workers=1,
                max_batch_size=8,
                max_batch_delay_us=1e9,  # hold jobs queued: no launches
                queue_capacity=3,
            ),
        )
        defaults.update(kw)
        return ShardRouter(FleetConfig(**defaults))

    def test_routes_to_ring_home(self):
        router = self._router()
        tenant = "t5"
        target, job_id = router.submit(spec(tenant), at_us=0.0)
        assert target == router.ring.lookup(tenant)
        assert router.shard_of(tenant) == target
        assert job_id == 0
        assert router.jobs_routed == 1

    def test_unknown_tenant_raises_typed(self):
        router = self._router()
        with pytest.raises(UnknownTenantError, match="never been routed"):
            router.shard_of("nobody")
        # The typed hierarchy: shard errors share a base.
        assert issubclass(UnknownTenantError, ShardError)

    def test_out_of_order_arrivals_rejected(self):
        router = self._router()
        router.submit(spec("t1"), at_us=100.0)
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            router.submit(spec("t1"), at_us=50.0)

    def test_hot_home_spills_then_fleet_fills(self):
        router = self._router()
        home, (a, _) = same_home_tenants(router.ring)
        neighbor = router.ring.preference(a, 2)[1]
        # Fill the home shard past hot_depth=2: third job spills.
        for _ in range(2):
            shard, _ = router.submit(spec(a), at_us=0.0)
            assert shard == home
        shard, _ = router.submit(spec(a), at_us=0.0)
        assert shard == neighbor
        assert router.spilled == 1
        # Saturate both candidates (capacity 3 each), then the fleet is full.
        while True:
            try:
                router.submit(spec(a), at_us=0.0)
            except FleetFullError:
                break
        assert len(router.servers[home].queue) == 3
        assert len(router.servers[neighbor].queue) == 3
        assert router.fleet_rejected == 1
        with pytest.raises(FleetFullError, match="at queue capacity"):
            router.submit(spec(a), at_us=0.0)

    def test_routing_digest_tracks_decisions(self):
        a, b = self._router(), self._router()
        assert a.routing_digest == b.routing_digest
        a.submit(spec("t1"), at_us=0.0)
        assert a.routing_digest != b.routing_digest
        b.submit(spec("t1"), at_us=0.0)
        assert a.routing_digest == b.routing_digest


class TestUnrunnableSpec:
    def test_refused_spec_leaves_the_fleet_and_its_digest_untouched(self):
        def run(with_bad_job):
            router = ShardRouter(
                FleetConfig(shards=2, serve=ServeConfig(processes=4))
            )
            for i in range(6):
                if with_bad_job and i == 3:
                    bad = JobSpec(tenant="bad", cores=2, ticks=10)
                    with pytest.raises(ConfigurationError, match="cannot spread"):
                        router.submit(bad, at_us=float(i))
                router.submit(
                    JobSpec(tenant=f"t{i}", cores=8, ticks=10), at_us=float(i)
                )
            router.run()
            return build_fleet_report(router)

        clean, disturbed = run(False), run(True)
        assert disturbed.jobs_completed == 6
        assert disturbed.to_json() == clean.to_json()
        assert disturbed.routing_digest == clean.routing_digest


class TestSameShardFairness:
    def test_fair_queue_tie_break_for_colliding_tenants(self):
        """Two tenants on one shard tie on (priority, vfinish): seq decides.

        Identical specs give both tenants the same virtual finish for
        their first job, so the fair queue's explicit third tie-break
        field — the admission sequence — must order them: first
        admitted drains first, byte-identically every run.
        """
        router = ShardRouter(FleetConfig(
            shards=2, spill=0, hot_depth=1000,
            serve=ServeConfig(workers=1, max_batch_delay_us=1e9, queue_capacity=16),
        ))
        shard, (a, b) = same_home_tenants(router.ring)
        router.submit(spec(a, priority=4), at_us=0.0)
        router.submit(spec(b, priority=4), at_us=0.0)
        router.submit(spec(a, priority=0), at_us=0.0)  # urgent: jumps both
        assert router.shard_of(a) == router.shard_of(b) == shard
        # Arrivals are events: drive the shard to t=0 so the last one
        # is admitted before previewing the drain order.
        router.servers[shard].run_until(0.0)
        order = router.servers[shard].queue.drain_order()
        assert [(j.spec.tenant, j.spec.priority) for j in order] == [
            (a, 0),  # strict priority first
            (a, 4),  # then equal (priority, vfinish): admission seq
            (b, 4),
        ]


class TestAutoscaler:
    def _server(self, workers=2):
        return SimServer(ServeConfig(
            workers=workers, max_batch_delay_us=1e9, queue_capacity=256,
        ))

    def _fill(self, server, jobs, tenant="t1"):
        for _ in range(jobs):
            server.submit(spec(tenant), at_us=0.0)
        server.run_until(0.0)

    def test_grows_above_high_watermark(self):
        server = self._server(workers=1)
        scaler = Autoscaler(AutoscalePolicy(cooldown_intervals=0), server, 0)
        self._fill(server, 6)  # depth 6 > 4*1
        decision = scaler.evaluate(50_000.0)
        assert decision.action == "grow"
        assert server.workers == 2
        assert decision.workers_after == 2

    def test_shrinks_below_low_watermark(self):
        server = self._server(workers=3)
        scaler = Autoscaler(AutoscalePolicy(cooldown_intervals=0), server, 0)
        decision = scaler.evaluate(50_000.0)  # depth 0 < 1*3
        assert decision.action == "shrink"
        assert server.workers == 2

    def test_in_band_no_action(self):
        server = self._server(workers=2)
        scaler = Autoscaler(AutoscalePolicy(cooldown_intervals=0), server, 0)
        self._fill(server, 4)  # 1*2 <= 4 <= 4*2
        assert scaler.evaluate(50_000.0) is None

    def test_cooldown_suppresses_consecutive_actions(self):
        server = self._server(workers=1)
        scaler = Autoscaler(AutoscalePolicy(cooldown_intervals=2), server, 0)
        self._fill(server, 40)
        assert scaler.evaluate(1.0).action == "grow"
        assert scaler.evaluate(2.0) is None  # cooling
        assert scaler.evaluate(3.0) is None  # cooling
        assert scaler.evaluate(4.0).action == "grow"

    def test_respects_max_workers(self):
        server = self._server(workers=2)
        scaler = Autoscaler(
            AutoscalePolicy(max_workers=2, cooldown_intervals=0), server, 0
        )
        self._fill(server, 40)
        assert scaler.evaluate(1.0) is None
        assert server.workers == 2

    def test_never_shrinks_busy_workers(self):
        server = self._server(workers=1)
        # A launched batch occupies the only worker; min_workers=1 blocks
        # the removal path entirely, and remove_worker refuses busy pools.
        assert server.remove_worker() is False

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError, match="exceed"):
            AutoscalePolicy(high_depth_per_worker=1.0, low_depth_per_worker=2.0)
        with pytest.raises(ConfigurationError, match="min_workers"):
            AutoscalePolicy(min_workers=4, max_workers=2)


class TestElasticServer:
    def test_worker_ids_never_recycled(self):
        server = SimServer(ServeConfig(workers=2))
        first = server.add_worker()
        assert first == 2
        assert server.remove_worker() is True
        assert server.add_worker() == 3
        assert server.workers == 3

    def test_run_until_advances_clock_without_events(self):
        server = SimServer(ServeConfig())
        server.run_until(123.0)
        assert server.now_us == 123.0
        assert server.idle


class TestFleetReport:
    def _run_fleet(self, seed=3):
        router = ShardRouter(FleetConfig(
            shards=3,
            hot_depth=8,
            serve=ServeConfig(workers=1, keep_records=False,
                              max_batch_delay_us=5000.0),
            autoscale=AutoscalePolicy(),
        ))
        fleet_open_loop(
            router, rate_per_s=300.0, jobs=90, tenants=30,
            cores=4, deadline_us=1_000_000.0, seed=seed,
        )
        router.run()
        return router

    def test_counts_reconcile(self):
        router = self._run_fleet()
        report = build_fleet_report(router)
        assert report.jobs_offered == 90
        assert report.jobs_routed == sum(s.routed for s in report.shards)
        assert report.jobs_completed + report.jobs_rejected == report.jobs_routed
        assert report.batches == sum(s.batches for s in report.shards)
        assert report.peak_state_nbytes == sum(
            s.peak_state_nbytes for s in report.shards
        )
        assert report.routing_digest == router.routing_digest

    def test_aggregate_percentiles_bound_shard_percentiles(self):
        report = build_fleet_report(self._run_fleet())
        populated = [s for s in report.shards if s.completed]
        assert min(s.p50_us for s in populated) <= report.p50_us
        assert report.p99_us >= max(s.p50_us for s in populated)
        assert report.p50_us <= report.p95_us <= report.p99_us

    def test_json_round_trip_byte_identical(self):
        report = build_fleet_report(self._run_fleet())
        text = report.to_json()
        assert FleetReport.from_json(text).to_json() == text

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            FleetReport.from_json('{"schema": 99, "shards": []}')

    def test_eviction_mode_drops_job_records(self):
        router = self._run_fleet()
        # keep_records=False: servers must not retain Job/BatchRecord
        # objects, only the aggregate counters the report needs.
        assert all(not server.jobs for server in router.servers)
        assert all(not server.batches for server in router.servers)
        assert sum(server.n_batches for server in router.servers) > 0

    def test_format_stable(self):
        a = build_fleet_report(self._run_fleet())
        b = build_fleet_report(self._run_fleet())
        assert a.format() == b.format()
