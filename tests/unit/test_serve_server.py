"""Unit tests for the SimServer event loop, load generators, and report."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.serve.jobs import DONE, REJECTED, JobSpec
from repro.serve.loadgen import (
    ClosedLoopLoad,
    LatencyReport,
    build_report,
    open_loop_load,
)
from repro.serve.server import COSTS, ServeConfig, SimServer


def spec(tenant="t", ticks=10, cores=4, priority=4, deadline_us=None, seed=0):
    return JobSpec(
        tenant=tenant,
        cores=cores,
        ticks=ticks,
        priority=priority,
        seed=seed,
        deadline_us=deadline_us,
    )


class TestServeConfig:
    def test_defaults_valid(self):
        cfg = ServeConfig()
        assert cfg.backend == "mpi"

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(backend="tcp")

    def test_pgas_with_faults_rejected(self):
        from repro.resilience.faults import FaultSchedule, RankCrash

        with pytest.raises(ConfigurationError, match="mpi backend"):
            ServeConfig(
                backend="pgas",
                fault_schedule=FaultSchedule([RankCrash(tick=1, rank=0)]),
            )


class TestSingleJob:
    def test_job_completes_with_charged_costs(self):
        server = SimServer(ServeConfig(workers=1))
        jid = server.submit(spec(ticks=10), at_us=0.0)
        server.run()
        job = server.jobs[jid]
        assert job.status == DONE
        assert job.wait_us == 0.0
        assert job.latency_us >= COSTS.setup_us + 10 * COSTS.tick_us
        assert job.batch_size == 1

    def test_submit_in_the_past_rejected(self):
        server = SimServer()
        with pytest.raises(ConfigurationError):
            server.submit(spec(), at_us=-1.0)

    def test_jobs_queue_when_workers_busy(self):
        server = SimServer(ServeConfig(workers=1, max_batch_size=1))
        a = server.submit(spec(seed=1), at_us=0.0)
        b = server.submit(spec(seed=2), at_us=1.0)  # incompatible: no batch
        server.run()
        ja, jb = server.jobs[a], server.jobs[b]
        assert ja.status == DONE and jb.status == DONE
        # b had to wait for a's worker.
        assert jb.launch_us >= ja.finish_us
        assert jb.wait_us > 0


    @pytest.mark.parametrize("faulted", [False, True])
    def test_every_launched_simulator_is_torn_down(self, monkeypatch, faulted):
        from repro.exec import SequentialAdapter
        from repro.resilience.faults import FaultSchedule, RankCrash

        torn_down = []
        monkeypatch.setattr(
            SequentialAdapter, "teardown", lambda self: torn_down.append(self)
        )
        schedule = FaultSchedule([RankCrash(tick=3, rank=1)]) if faulted else None
        server = SimServer(ServeConfig(processes=2, fault_schedule=schedule))
        jid = server.submit(spec(ticks=10), at_us=0.0)
        server.run()
        assert server.jobs[jid].retries == int(faulted)
        assert len(torn_down) == server.n_batches == 1


class TestBatching:
    def test_compatible_jobs_share_a_batch(self):
        server = SimServer(
            ServeConfig(workers=1, max_batch_size=4, max_batch_delay_us=1e4)
        )
        ids = [server.submit(spec(tenant=t, ticks=10 + i), at_us=float(i))
               for i, t in enumerate(("a", "b", "c"))]
        server.run()
        jobs = [server.jobs[i] for i in ids]
        assert len({j.batch_id for j in jobs}) == 1
        assert all(j.batch_size == 3 for j in jobs)
        assert len(server.batches) == 1
        assert server.batches[0].max_ticks == 12

    def test_short_job_finishes_before_long_one_in_same_batch(self):
        server = SimServer(
            ServeConfig(workers=1, max_batch_size=2, max_batch_delay_us=1e4)
        )
        short = server.submit(spec(ticks=5), at_us=0.0)
        long = server.submit(spec(ticks=40), at_us=1.0)
        server.run()
        assert server.jobs[short].finish_us < server.jobs[long].finish_us
        assert server.jobs[short].batch_id == server.jobs[long].batch_id

    def test_batch_delay_zero_means_no_waiting(self):
        server = SimServer(
            ServeConfig(workers=2, max_batch_size=8, max_batch_delay_us=0.0)
        )
        a = server.submit(spec(), at_us=0.0)
        server.submit(spec(), at_us=5000.0)
        server.run()
        # First job launched alone at t=0 rather than waiting.
        assert server.jobs[a].wait_us == 0.0
        assert len(server.batches) == 2

    def test_incompatible_jobs_never_batch(self):
        server = SimServer(
            ServeConfig(workers=2, max_batch_size=8, max_batch_delay_us=1e5)
        )
        server.submit(spec(seed=1), at_us=0.0)
        server.submit(spec(seed=2), at_us=0.0)
        server.run()
        assert len(server.batches) == 2
        assert all(b.size == 1 for b in server.batches)


class TestRejections:
    def test_overload_yields_typed_rejections(self):
        server = SimServer(ServeConfig(workers=1, queue_capacity=2))
        ids = [server.submit(spec(seed=i), at_us=0.0) for i in range(5)]
        server.run()
        statuses = [server.jobs[i].status for i in ids]
        # One launches immediately, two queue, the rest bounce.
        assert statuses.count(REJECTED) == 2
        rejected = [server.jobs[i] for i in ids if server.jobs[i].status == REJECTED]
        assert all(j.reject_reason == "QueueFullError" for j in rejected)

    def test_tenant_quota_rejection_reason(self):
        from repro.serve.queue import TenantQuota

        server = SimServer(
            ServeConfig(
                workers=1,
                quotas=(("greedy", TenantQuota(max_queued=1)),),
            )
        )
        ids = [
            server.submit(spec(tenant="greedy", seed=i), at_us=0.0)
            for i in range(4)
        ]
        server.run()
        reasons = [server.jobs[i].reject_reason for i in ids]
        assert "TenantQuotaError" in reasons


class TestUnrunnableSpec:
    """One tenant's impossible job must not take the service down."""

    def test_fewer_cores_than_ranks_is_refused_at_submit(self):
        server = SimServer(ServeConfig(processes=4))
        good = [server.submit(spec(tenant="a", cores=8), at_us=0.0)]
        with pytest.raises(ConfigurationError, match="cannot spread 2 cores over 4"):
            server.submit(spec(tenant="bad", cores=2), at_us=1.0)
        good.append(server.submit(spec(tenant="b", cores=8, seed=1), at_us=2.0))
        server.run()
        assert [job.status for job in server.finished_jobs()] == [DONE, DONE]
        assert sorted(server.jobs) == good  # the refused spec never became a job

    def test_unbuildable_network_rejects_its_batch_and_frees_the_worker(self):
        server = SimServer(ServeConfig(workers=1))
        seen = []
        server.add_completion_hook(lambda job: seen.append(job.job_id))
        first = server.submit(spec(tenant="a"), at_us=0.0)
        # One core per region is the macaque floor (77): known only once
        # the network is built, so the job is admitted and then rejected.
        bad = server.submit(
            JobSpec(tenant="bad", model="macaque", cores=64), at_us=1.0
        )
        last = server.submit(spec(tenant="b", seed=1), at_us=2.0)
        server.run()
        assert server.jobs[first].status == server.jobs[last].status == DONE
        assert server.jobs[bad].status == REJECTED
        assert server.jobs[bad].reject_reason == "ConfigurationError"
        assert sorted(seen) == [first, bad, last]
        assert server.idle and len(server._free_workers) == 1
        report = build_report(server)
        assert (report.jobs_completed, report.jobs_rejected) == (2, 1)


class TestRunMemo:
    """One prefix memo per server: longest run per key, bounded in ticks."""

    @pytest.fixture()
    def bound_64(self, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "RUN_MEMO_TICKS", 64)

    @staticmethod
    def _launch(server, **kw):
        """Submit one job after everything before it is done; run it."""
        jid = server.submit(spec(**kw), at_us=server.now_us)
        server.run()
        assert server.jobs[jid].status == DONE
        return server.jobs[jid]

    @staticmethod
    def _counters(server):
        reg = server.obs.registry
        return tuple(
            int(reg.get(f"serve_run_memo_{name}_total").total())
            for name in ("hits", "misses", "evicted_ticks")
        )

    def test_a_shorter_batch_of_a_known_key_is_a_hit(self):
        server = SimServer(ServeConfig(workers=1))
        long = self._launch(server, ticks=31)
        short = self._launch(server, ticks=17)
        longer = self._launch(server, ticks=40)
        assert self._counters(server) == (1, 2, 0)
        assert [len(c) - 1 for c in server._run_memo.values()] == [40]
        # The hit is charged what a fresh run of it is charged, setup included.
        fresh = self._launch(SimServer(ServeConfig(workers=1)), ticks=17)
        assert short.latency_us == pytest.approx(fresh.latency_us, rel=1e-12)
        assert short.latency_us > COSTS.setup_us
        assert long.latency_us < longer.latency_us

    def test_remembered_ticks_stay_under_the_bound(self, bound_64):
        server = SimServer(ServeConfig(workers=1))
        for i, ticks in enumerate((20, 30, 10, 25, 30, 5, 40, 33)):
            self._launch(server, ticks=ticks, seed=i)
            held = sum(len(c) - 1 for c in server._run_memo.values())
            assert held == server._memo_ticks <= 64
        hits, misses, evicted = self._counters(server)
        assert (hits, misses) == (0, 8)
        assert evicted == 20 + 30 + 10 + 25 + 30 + 5 + 40 + 33 - server._memo_ticks > 0
        # Least recently used goes first: the last key is held, the first is not.
        assert list(server._run_memo)[-1] == ("quickstart", 4, 7)
        assert ("quickstart", 4, 0) not in server._run_memo

    def test_a_hit_refreshes_its_key(self, bound_64):
        server = SimServer(ServeConfig(workers=1))
        self._launch(server, ticks=30, seed=0)
        self._launch(server, ticks=30, seed=1)
        self._launch(server, ticks=12, seed=0)  # hit: seed 0 is now the newest
        self._launch(server, ticks=30, seed=2)  # evicts seed 1, not seed 0
        assert [k[2] for k in server._run_memo] == [0, 2]
        assert self._counters(server) == (1, 3, 30)

    def test_an_over_size_run_is_served_and_not_stored(self, bound_64):
        server = SimServer(ServeConfig(workers=1))
        self._launch(server, ticks=20)
        big = self._launch(server, ticks=65)
        assert big.latency_us > 65 * COSTS.tick_us
        # Not kept, nothing evicted for it, and the shorter prefix survives.
        assert [len(c) - 1 for c in server._run_memo.values()] == [20]
        assert self._counters(server) == (0, 2, 0)
        self._launch(server, ticks=20)
        assert self._counters(server) == (1, 2, 0)

    def test_a_fault_armed_launch_never_reads_the_memo(self):
        import numpy as np

        from repro.resilience.faults import FaultSchedule, RankCrash

        def faulted():
            return SimServer(
                ServeConfig(
                    workers=1,
                    processes=2,
                    fault_schedule=FaultSchedule([RankCrash(tick=3, rank=1)]),
                )
            )

        clean, poisoned = faulted(), faulted()
        # A remembered prefix that would answer, with counts no run produces.
        poisoned._run_memo[("quickstart", 4, 0)] = np.arange(100, dtype=np.int64) << 40
        poisoned._memo_ticks = 99
        jobs = [self._launch(s, ticks=10) for s in (clean, poisoned)]
        for job in jobs:
            assert job.retries == 1 and job.overhead_us > 0.0
        assert jobs[0].finish_us == jobs[1].finish_us
        assert self._counters(poisoned) == (0, 1, 0)
        # The launch after it is fault-free and reads what that run left.
        after = self._launch(poisoned, ticks=10)
        assert after.retries == 0 and self._counters(poisoned) == (1, 1, 0)


class TestMetricsAndTrace:
    def test_serve_metrics_populated(self):
        obs = Observability.off()
        server = SimServer(ServeConfig(workers=1), obs=obs)
        server.submit(spec(tenant="a"), at_us=0.0)
        server.submit(spec(tenant="b"), at_us=0.0)
        server.run()
        reg = obs.registry
        assert reg.get("serve_jobs_submitted_total").total() == 2
        assert reg.get("serve_jobs_completed_total").total() == 2
        assert reg.get("serve_batches_total").total() >= 1
        assert reg.get("serve_job_latency_us").count(-1) == 2
        # Per-tenant cells keyed by first-submission order.
        assert server.tenant_id("a") == 0
        assert server.tenant_id("b") == 1
        assert reg.get("serve_jobs_completed_total").value(0) == 1

    def test_trace_instants_emitted(self):
        obs = Observability.with_tracing()
        server = SimServer(ServeConfig(workers=1), obs=obs)
        server.submit(spec(), at_us=0.0)
        server.run()
        names = {e.name for e in obs.tracer.events}
        assert {"serve.submit", "serve.launch", "serve.done"} <= names


class TestLoadGenerators:
    def test_open_loop_arrivals_are_seeded(self):
        s1, s2 = SimServer(), SimServer()
        open_loop_load(s1, rate_per_s=100.0, jobs=10, seed=5, cores=4)
        open_loop_load(s2, rate_per_s=100.0, jobs=10, seed=5, cores=4)
        t1 = [s1.jobs[i].submit_us for i in sorted(s1.jobs)]
        t2 = [s2.jobs[i].submit_us for i in sorted(s2.jobs)]
        assert t1 == t2
        s3 = SimServer()
        open_loop_load(s3, rate_per_s=100.0, jobs=10, seed=6, cores=4)
        assert [s3.jobs[i].submit_us for i in sorted(s3.jobs)] != t1

    def test_closed_loop_keeps_population_fixed(self):
        server = SimServer(ServeConfig(workers=2))
        load = ClosedLoopLoad(
            server, clients=3, jobs_per_client=4, think_us=100.0, cores=4
        )
        load.start()
        server.run()
        assert len(load.job_ids) == 12
        assert all(server.jobs[i].status == DONE for i in load.job_ids)

    def test_closed_loop_continues_after_rejection(self):
        # Capacity 1 forces rejections; clients must still finish their
        # submission budget rather than stalling.
        server = SimServer(ServeConfig(workers=1, queue_capacity=1))
        load = ClosedLoopLoad(
            server, clients=4, jobs_per_client=3, think_us=0.0, cores=4
        )
        load.start()
        server.run()
        assert len(load.job_ids) == 12
        terminal = [server.jobs[i] for i in load.job_ids]
        assert all(j.status in (DONE, REJECTED) for j in terminal)


class TestLatencyReport:
    def _run(self):
        server = SimServer(
            ServeConfig(workers=2, max_batch_size=4, max_batch_delay_us=5e3)
        )
        open_loop_load(
            server, rate_per_s=150.0, jobs=25, seed=2, cores=4,
            deadline_us=60_000.0,
        )
        server.run()
        return build_report(server)

    def test_report_fields(self):
        report = self._run()
        assert report.jobs_submitted == 25
        assert report.jobs_completed + report.jobs_rejected == 25
        assert report.p50_us <= report.p95_us <= report.p99_us
        assert report.goodput_per_s > 0
        assert 0.0 <= report.miss_rate <= 1.0
        assert [t.tenant for t in report.tenants] == sorted(
            t.tenant for t in report.tenants
        )

    def test_deadline_miss_accounting(self):
        # An impossible deadline: every completed job misses it.
        server = SimServer(ServeConfig(workers=1))
        server.submit(spec(deadline_us=1.0), at_us=0.0)
        server.run()
        report = build_report(server)
        assert report.deadline_missed == 1
        assert report.miss_rate == 1.0
        assert report.goodput_per_s == 0.0

    def test_json_round_trip(self):
        report = self._run()
        clone = LatencyReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert clone.format() == report.format()

    def test_bad_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            LatencyReport.from_json('{"schema": 99, "tenants": []}')

    def test_report_byte_identical_across_runs(self):
        assert self._run().to_json() == self._run().to_json()
