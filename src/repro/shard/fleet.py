"""Hierarchical cross-shard SLO aggregation: the fleet report.

The reduction is intra-shard first, inter-shard second — the shape the
hierarchical-aggregation literature (arXiv:2205.07125) uses to avoid a
flat all-to-one hot spot.  Each shard accumulates its own latencies
*online*, in completion order, via a server completion hook
(:class:`~repro.serve.jobs.SloFold`); the fleet then merges the pre-sorted
per-shard lists with ``heapq.merge`` (O(N log S), never a flat
O(N log N) re-sort) and reads nearest-rank percentiles straight off the
merged sequence.

Because accumulation happens in hooks, shard servers can run with
``ServeConfig(keep_records=False)``: a 10M-job fleet run keeps one float
per completed job, not one :class:`~repro.serve.jobs.Job` object — the
difference between megabytes and gigabytes at headline-bench scale.

Everything in :class:`FleetReport` is derived from simulated-clock
quantities and partition-invariant run costs, so a fixed-seed fleet run
serializes byte-identically across repeated runs and rank layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import merge

from repro.perf.report import format_table
from repro.serve.jobs import latency_percentiles
from repro.util import jsoncodec
from repro.util.stats import max_over_mean

#: Schema tag for serialized fleet reports (``repro shard report``).
#: v2 added the live-telemetry summary (windows/rollups/alerts).
FLEET_SCHEMA = 2


@dataclass
class ShardStats:
    """Per-shard slice of the fleet report."""

    shard: int
    routed: int = 0
    completed: int = 0
    rejected: int = 0
    deadline_missed: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    retries: int = 0
    workers: int = 0
    scale_events: int = 0
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    goodput_per_s: float = 0.0
    peak_state_nbytes: int = 0


@dataclass
class FleetReport:
    """Fleet-wide SLO accounting over one sharded run."""

    shards: list[ShardStats] = field(default_factory=list)
    jobs_offered: int = 0
    jobs_routed: int = 0
    spilled: int = 0
    fleet_rejected: int = 0
    jobs_completed: int = 0
    jobs_rejected: int = 0
    deadline_missed: int = 0
    batches: int = 0
    retries: int = 0
    scale_events: int = 0
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    goodput_per_s: float = 0.0
    makespan_s: float = 0.0
    miss_rate: float = 0.0
    #: Max/mean of per-shard completed-job counts (1.0 = perfectly even).
    imbalance: float = 1.0
    peak_state_nbytes: int = 0
    routing_digest: str = ""
    #: Live-telemetry summary (zero when the run had no telemetry).
    windows: int = 0
    rollup_records: int = 0
    alerts_fired: int = 0
    alerts_resolved: int = 0

    def format(self) -> str:
        """Human-readable report (stable layout; byte-identical per run)."""
        lines = [
            "fleet report",
            f"  shards: {len(self.shards)}  "
            f"imbalance(max/mean completed)={self.imbalance:.3f}",
            f"  jobs: offered={self.jobs_offered} routed={self.jobs_routed} "
            f"spilled={self.spilled} fleet_rejected={self.fleet_rejected}",
            f"  terminal: completed={self.jobs_completed} "
            f"rejected={self.jobs_rejected}",
            f"  batches: {self.batches}, retries={self.retries}, "
            f"scale_events={self.scale_events}",
            f"  latency: p50={self.p50_us:.1f}us p95={self.p95_us:.1f}us "
            f"p99={self.p99_us:.1f}us",
            f"  slo: deadline_missed={self.deadline_missed} "
            f"miss_rate={self.miss_rate:.4f}",
            f"  goodput: {self.goodput_per_s:.3f} jobs/s over "
            f"{self.makespan_s:.6f} simulated s",
            f"  peak_state_nbytes: {self.peak_state_nbytes}",
            f"  routing_digest: {self.routing_digest}",
        ]
        if self.windows:
            lines.append(
                f"  telemetry: windows={self.windows} "
                f"rollups={self.rollup_records} "
                f"alerts_fired={self.alerts_fired} "
                f"alerts_resolved={self.alerts_resolved}"
            )
        lines.append("")
        rows = [
            (
                s.shard, s.routed, s.completed, s.rejected, s.deadline_missed,
                s.workers, s.scale_events, f"{s.p50_us:.1f}", f"{s.p99_us:.1f}",
                f"{s.goodput_per_s:.3f}",
            )
            for s in self.shards
        ]
        lines.append(
            format_table(
                ("shard", "routed", "completed", "rejected", "missed",
                 "workers", "scales", "p50_us", "p99_us", "goodput/s"),
                rows,
            )
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Stable JSON form (sorted keys) for ``repro shard report``."""
        return jsoncodec.dumps(self, FLEET_SCHEMA)

    @classmethod
    def from_json(
        cls, text: str | bytes, source: str = "fleet report"
    ) -> "FleetReport":
        """Parse :meth:`to_json` output; errors name ``source`` (the file)."""
        return jsoncodec.loads(cls, text, FLEET_SCHEMA, source)


def build_fleet_report(router) -> FleetReport:
    """Reduce a drained :class:`~repro.shard.router.ShardRouter` to a report.

    Per-shard stats come from the accumulators (intra-shard reduction);
    the aggregate percentiles come from merging the per-shard sorted
    latency lists (inter-shard reduction).
    """
    report = FleetReport(
        jobs_offered=router.jobs_routed + router.fleet_rejected,
        jobs_routed=router.jobs_routed,
        spilled=router.spilled,
        fleet_rejected=router.fleet_rejected,
        scale_events=len(router.scale_log),
        routing_digest=router.routing_digest,
    )
    per_shard_sorted: list[list[float]] = []
    scale_counts = [0] * len(router.servers)
    for decision in router.scale_log:
        scale_counts[decision.shard] += 1
    first_submit = math.inf
    last_finish = 0.0
    good = 0
    for shard, (server, accumulator) in enumerate(
        zip(router.servers, router.accumulators)
    ):
        ordered = accumulator.sorted_latencies()
        per_shard_sorted.append(ordered)
        p50, p95, p99 = latency_percentiles(ordered)
        stats = ShardStats(
            shard=shard,
            routed=accumulator.terminal,
            completed=accumulator.completed,
            rejected=accumulator.rejected,
            deadline_missed=accumulator.missed,
            batches=server.n_batches,
            retries=server.retries_total,
            workers=server.workers,
            scale_events=scale_counts[shard],
            p50_us=p50,
            p95_us=p95,
            p99_us=p99,
            goodput_per_s=accumulator.goodput_per_s,
            peak_state_nbytes=server.peak_state_nbytes,
        )
        if server.n_batches:
            stats.mean_batch_size = server.batch_jobs_total / server.n_batches
        report.shards.append(stats)
        report.jobs_completed += accumulator.completed
        report.jobs_rejected += accumulator.rejected
        report.deadline_missed += accumulator.missed
        report.batches += server.n_batches
        report.retries += server.retries_total
        report.peak_state_nbytes += server.peak_state_nbytes
        good += accumulator.good
        first_submit = min(first_submit, accumulator.first_submit_us)
        last_finish = max(last_finish, accumulator.last_finish_us)
    merged = list(merge(*per_shard_sorted))
    report.p50_us, report.p95_us, report.p99_us = latency_percentiles(merged)
    if merged:
        report.makespan_s = (last_finish - first_submit) / 1e6
    if report.makespan_s > 0:
        report.goodput_per_s = good / report.makespan_s
    terminal = report.jobs_completed + report.jobs_rejected
    if terminal:
        report.miss_rate = report.deadline_missed / terminal
    completed_counts = [s.completed for s in report.shards]
    if any(completed_counts):
        report.imbalance = max_over_mean(completed_counts)
    telemetry = getattr(router, "telemetry", None)
    if telemetry is not None:
        report.windows = telemetry.windows_closed
        report.rollup_records = telemetry.records_emitted
        report.alerts_fired = telemetry.engine.fired
        report.alerts_resolved = telemetry.engine.resolved
    return report
