"""Unit tests for repro.serve jobs, admission queue, and batcher."""

import pytest

from repro.errors import ConfigurationError, QueueFullError, TenantQuotaError
from repro.serve.batcher import Batcher, BatchPolicy
from repro.serve.jobs import DONE, REJECTED, Job, JobSpec, compatible
from repro.serve.queue import FairShareQueue, TenantQuota


def make_job(
    job_id,
    tenant="t",
    priority=4,
    ticks=20,
    cores=4,
    seed=0,
    submit_us=0.0,
    deadline_us=None,
):
    spec = JobSpec(
        tenant=tenant,
        cores=cores,
        ticks=ticks,
        priority=priority,
        seed=seed,
        deadline_us=deadline_us,
    )
    return Job(spec=spec, job_id=job_id, submit_us=submit_us)


class TestJobSpec:
    def test_valid_spec(self):
        spec = JobSpec(tenant="a", model="quickstart", cores=4, ticks=10)
        assert spec.batch_key == ("quickstart", 4, 0)
        assert spec.demand() == 40.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant": ""},
            {"tenant": "a", "model": "bogus"},
            {"tenant": "a", "cores": 1},
            {"tenant": "a", "ticks": 0},
            {"tenant": "a", "priority": -1},
            {"tenant": "a", "priority": 10},
            {"tenant": "a", "deadline_us": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            JobSpec(**kwargs)

    def test_compatibility_predicate(self):
        a = JobSpec(tenant="a", cores=4, ticks=10, seed=1)
        b = JobSpec(tenant="b", cores=4, ticks=99, priority=0, seed=1)
        assert compatible(a, b)  # tenant/ticks/priority don't matter
        assert not compatible(a, JobSpec(tenant="a", cores=8, ticks=10, seed=1))
        assert not compatible(a, JobSpec(tenant="a", cores=4, ticks=10, seed=2))
        assert not compatible(
            a, JobSpec(tenant="a", model="macaque", cores=128, ticks=10, seed=1)
        )

    def test_deadline_accounting(self):
        job = make_job(0, deadline_us=100.0)
        job.status = DONE
        job.finish_us = 150.0
        assert job.latency_us == 150.0
        assert job.deadline_missed
        job.finish_us = 90.0
        assert not job.deadline_missed

    def test_rejected_job_with_deadline_counts_as_missed(self):
        job = make_job(0, deadline_us=100.0)
        job.status = REJECTED
        assert job.deadline_missed

    def test_no_deadline_never_missed(self):
        job = make_job(0)
        job.status = REJECTED
        assert not job.deadline_missed


class TestAdmission:
    def test_queue_full_rejection(self):
        q = FairShareQueue(capacity=2)
        q.submit(make_job(0))
        q.submit(make_job(1))
        with pytest.raises(QueueFullError, match="capacity=2"):
            q.submit(make_job(2))
        assert len(q) == 2

    def test_tenant_quota_rejection(self):
        q = FairShareQueue(
            capacity=10, quotas={"small": TenantQuota(max_queued=1)}
        )
        q.submit(make_job(0, tenant="small"))
        with pytest.raises(TenantQuotaError, match="'small'"):
            q.submit(make_job(1, tenant="small"))
        # Other tenants fall back to the default quota and still admit.
        q.submit(make_job(2, tenant="big"))
        assert sorted(q.pop().spec.tenant for _ in range(len(q))) == ["big", "small"]

    def test_rejection_leaves_state_untouched(self):
        q = FairShareQueue(capacity=1)
        q.submit(make_job(0, tenant="a"))
        with pytest.raises(QueueFullError):
            q.submit(make_job(1, tenant="b"))
        assert len(q) == 1
        job = q.pop()
        assert job.job_id == 0
        # After a pop there is room again.
        q.submit(make_job(2, tenant="b"))


class TestFairShare:
    def test_priority_dominates(self):
        q = FairShareQueue()
        q.submit(make_job(0, priority=5))
        q.submit(make_job(1, priority=0))
        assert q.pop().job_id == 1
        assert q.pop().job_id == 0

    def test_equal_priority_ties_break_by_submission_order(self):
        q = FairShareQueue()
        # Same tenant, same demand: identical virtual finish progression
        # would tie without the seq field.
        for i in range(5):
            q.submit(make_job(i, tenant=["a", "b"][i % 2]))
        order = [q.pop().job_id for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_weighted_tenant_drains_faster(self):
        q = FairShareQueue(quotas={"heavy": TenantQuota(weight=4.0)})
        # Interleave submissions; the weighted tenant accumulates virtual
        # finish time 4x slower, so its backlog drains first.
        for i in range(4):
            q.submit(make_job(2 * i, tenant="heavy"))
            q.submit(make_job(2 * i + 1, tenant="light"))
        order = [q.pop().spec.tenant for _ in range(8)]
        assert order.count("heavy") == 4
        # Weight 4 => heavy virtual finishes at 20/40/60/80 vs light's
        # 80/160/240/320: heavy's backlog drains up front, and at the
        # 80-vs-80 tie the earlier submission (light) wins by seq.
        assert order == [
            "heavy", "heavy", "heavy", "light",
            "heavy", "light", "light", "light",
        ]

    def test_drain_order_is_deterministic_across_rebuilds(self):
        def build():
            q = FairShareQueue(quotas={"b": TenantQuota(weight=2.0)})
            for i in range(12):
                q.submit(
                    make_job(
                        i,
                        tenant=["a", "b", "c"][i % 3],
                        priority=i % 2,
                        ticks=10 + i,
                    )
                )
            return [q.pop().job_id for _ in range(12)]

        assert build() == build()

    def test_pop_compatible_preserves_skipped_order(self):
        q = FairShareQueue()
        q.submit(make_job(0, seed=1))
        q.submit(make_job(1, seed=2))
        q.submit(make_job(2, seed=1))
        taken = q.pop_compatible(("quickstart", 4, 1), limit=8)
        assert [j.job_id for j in taken] == [0, 2]
        assert q.pop().job_id == 1

    def test_count_compatible(self):
        q = FairShareQueue()
        q.submit(make_job(0, seed=1))
        q.submit(make_job(1, seed=2))
        q.submit(make_job(2, seed=1))
        assert q.count_compatible(("quickstart", 4, 1)) == 2
        assert q.count_compatible(("quickstart", 4, 9)) == 0


class TestBatcher:
    def test_full_batch_launches_immediately(self):
        q = FairShareQueue()
        for i in range(3):
            q.submit(make_job(i, submit_us=100.0))
        b = Batcher(BatchPolicy(max_batch_size=3, max_batch_delay_us=1e6))
        assert b.ready_at(q, now_us=100.0) == 100.0

    def test_head_waits_for_delay_budget(self):
        q = FairShareQueue()
        q.submit(make_job(0, submit_us=100.0))
        b = Batcher(BatchPolicy(max_batch_size=4, max_batch_delay_us=500.0))
        assert b.ready_at(q, now_us=100.0) == 600.0
        assert b.ready_at(q, now_us=600.0) == 600.0
        assert b.ready_at(q, now_us=700.0) == 700.0

    def test_empty_queue_not_ready(self):
        b = Batcher()
        assert b.ready_at(FairShareQueue(), now_us=0.0) is None
        assert b.form(FairShareQueue(), now_us=0.0) is None

    def test_form_takes_only_compatible(self):
        q = FairShareQueue()
        q.submit(make_job(0, seed=1, ticks=10))
        q.submit(make_job(1, seed=2))
        q.submit(make_job(2, seed=1, ticks=30))
        batch = Batcher(BatchPolicy(max_batch_size=8)).form(q, now_us=50.0)
        assert [j.job_id for j in batch.jobs] == [0, 2]
        assert batch.key == ("quickstart", 4, 1)
        assert batch.max_ticks == 30
        assert batch.size == 2
        assert len(q) == 1

    def test_form_respects_max_batch_size(self):
        q = FairShareQueue()
        for i in range(5):
            q.submit(make_job(i))
        batch = Batcher(BatchPolicy(max_batch_size=2)).form(q, now_us=0.0)
        assert batch.size == 2
        assert len(q) == 3

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_delay_us=-1.0)
