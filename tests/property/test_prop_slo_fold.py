"""Differential test: the one SLO fold against a brute-force reference.

Random terminal jobs (done / rejected, with and without a deadline,
missed or not) go through every consumer of
:class:`repro.serve.jobs.SloFold` — the serve report (fleet-wide and per
tenant), the per-shard fleet accounting and the telemetry windows — and
each answer must equal what ``reference`` computes straight from the
list.  Timestamps sit on a grid of a quarter window, so completions
exactly on a window boundary are common.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import StreamingRollup
from repro.serve.jobs import DONE, REJECTED, Job, JobSpec, SloFold
from repro.serve.loadgen import build_report
from repro.shard.fleet import build_fleet_report

WINDOW_US = 40_000.0
GRID_US = WINDOW_US / 4
SHARDS = 3


def reference(jobs):
    """Ten lines of brute force over a list of terminal jobs."""
    done = [j for j in jobs if j.status == DONE]
    lat = sorted(j.finish_us - j.submit_us for j in done)
    late = [j for j in done if j.spec.deadline_us is not None
            and j.finish_us - j.submit_us > j.spec.deadline_us]
    bounced = [j for j in jobs if j.status == REJECTED]
    missed = len(late) + sum(1 for j in bounced if j.spec.deadline_us is not None)
    rank = lambda q: lat[math.ceil(q / 100 * len(lat)) - 1] if lat else 0.0  # noqa: E731
    span = (max(j.finish_us for j in done) - min(j.submit_us for j in done)) / 1e6 if done else 0.0
    good = len(done) - len(late)
    return dict(completed=len(done), rejected=len(bounced), missed=missed, good=good,
                p50=rank(50), p95=rank(95), p99=rank(99), makespan_s=span,
                goodput=good / span if span > 0 else 0.0,
                miss_rate=missed / len(jobs) if jobs else 0.0)


@st.composite
def terminal_jobs(draw):
    jobs = []
    for job_id in range(draw(st.integers(0, 40))):
        spec = JobSpec(
            tenant=draw(st.sampled_from(["a", "b", "c"])),
            cores=4,
            ticks=10,
            deadline_us=draw(st.sampled_from([None, GRID_US, 3 * GRID_US])),
        )
        job = Job(spec=spec, job_id=job_id, submit_us=GRID_US * draw(st.integers(0, 16)))
        if draw(st.booleans()):
            job.status = DONE
            job.finish_us = job.submit_us + GRID_US * draw(st.integers(1, 6))
        else:
            job.status = REJECTED
        jobs.append((draw(st.integers(0, SHARDS - 1)), job))
    return jobs


@given(terminal_jobs())
@settings(max_examples=150, deadline=None)
def test_serve_report_fleet_wide_and_per_tenant(sharded):
    jobs = [job for _, job in sharded]
    report = build_report(SimpleNamespace(finished_jobs=lambda: jobs, batches=[]))
    want = reference(jobs)
    assert (report.jobs_submitted, report.jobs_completed, report.jobs_rejected) == (
        len(jobs), want["completed"], want["rejected"]
    )
    assert (report.p50_us, report.p95_us, report.p99_us) == (
        want["p50"], want["p95"], want["p99"]
    )
    assert (report.deadline_missed, report.miss_rate) == (want["missed"], want["miss_rate"])
    assert (report.makespan_s, report.goodput_per_s) == (want["makespan_s"], want["goodput"])
    assert [t.tenant for t in report.tenants] == sorted({j.spec.tenant for j in jobs})
    for stats in report.tenants:
        mine = reference([j for j in jobs if j.spec.tenant == stats.tenant])
        assert (stats.completed, stats.rejected, stats.deadline_missed) == (
            mine["completed"], mine["rejected"], mine["missed"]
        )
        assert stats.submitted == mine["completed"] + mine["rejected"]
        assert (stats.p50_us, stats.p99_us) == (mine["p50"], mine["p99"])


def _router_of(sharded):
    """Just enough of a drained ShardRouter for ``build_fleet_report``."""
    folds = [SloFold() for _ in range(SHARDS)]
    for shard, job in sharded:
        folds[shard].observe(job)
    server = SimpleNamespace(
        n_batches=0, retries_total=0, workers=1, peak_state_nbytes=0, batch_jobs_total=0
    )
    return SimpleNamespace(
        jobs_routed=len(sharded), fleet_rejected=0, spilled=0, scale_log=[],
        routing_digest="", servers=[server] * SHARDS, accumulators=folds, telemetry=None,
    )


@given(terminal_jobs())
@settings(max_examples=150, deadline=None)
def test_fleet_report_per_shard_and_merged(sharded):
    report = build_fleet_report(_router_of(sharded))
    want = reference([job for _, job in sharded])
    assert (report.jobs_completed, report.jobs_rejected, report.deadline_missed) == (
        want["completed"], want["rejected"], want["missed"]
    )
    assert (report.p50_us, report.p95_us, report.p99_us) == (
        want["p50"], want["p95"], want["p99"]
    )
    assert (report.makespan_s, report.goodput_per_s, report.miss_rate) == (
        want["makespan_s"], want["goodput"], want["miss_rate"]
    )
    for stats in report.shards:
        mine = reference([job for shard, job in sharded if shard == stats.shard])
        assert (stats.routed, stats.completed, stats.rejected, stats.deadline_missed) == (
            mine["completed"] + mine["rejected"], mine["completed"],
            mine["rejected"], mine["missed"],
        )
        assert (stats.p50_us, stats.p95_us, stats.p99_us, stats.goodput_per_s) == (
            mine["p50"], mine["p95"], mine["p99"], mine["goodput"]
        )


def _instant(job):
    return job.finish_us if job.status == DONE else job.submit_us


@given(terminal_jobs())
@settings(max_examples=150, deadline=None)
def test_telemetry_windows_are_half_open(sharded):
    """A completion exactly on ``k*W`` belongs to window ``k``, not ``k-1``."""
    records = []
    rollup = StreamingRollup(WINDOW_US, n_shards=SHARDS, sink=records.append)
    # The router's order: drain strictly before a boundary, close, go on.
    for shard, job in sorted(sharded, key=lambda pair: _instant(pair[1])):
        while _instant(job) >= rollup.open_t1_us:
            rollup.close_window([0] * SHARDS)
        rollup.observe(shard, job)
    rollup.close_window([0] * SHARDS)
    for record in records:
        k = record["window"]
        inside = [
            (shard, job) for shard, job in sharded
            if math.floor(_instant(job) / WINDOW_US) == k
            and (record["scope"] != "shard" or shard == record["shard"])
            and (record["scope"] != "tenant" or job.spec.tenant == record["tenant"])
        ]
        want = reference([job for _, job in inside])
        got = {key: record[key] for key in ("completed", "rejected", "missed", "good")}
        assert got == {key: want[key] for key in got}
        assert (record["p50_us"], record["p95_us"], record["p99_us"]) == (
            want["p50"], want["p95"], want["p99"]
        )
        assert record["miss_rate"] == want["miss_rate"]
    fleet_total = sum(r["completed"] + r["rejected"] for r in records if r["scope"] == "fleet")
    assert fleet_total == len(sharded)
