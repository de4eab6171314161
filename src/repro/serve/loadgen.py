"""Seeded load generators and the SLO latency report.

Both generators drive arrivals on the *simulated* clock, so a given
seed reproduces the exact same offered load — and therefore the exact
same schedule, latencies, and report — on every run.

* :func:`open_loop_load` — Poisson arrivals at a fixed offered rate,
  independent of service completions (models external traffic).
* :class:`ClosedLoopLoad` — a fixed population of clients, each keeping
  one job in flight and resubmitting ``think_us`` after completion
  (models interactive users; self-throttling under overload).

The :class:`LatencyReport` aggregates terminal jobs into the SLO view:
nearest-rank p50/p95/p99 latency, goodput (in-deadline completions per
simulated second), and deadline-miss rate, overall and per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perf.report import format_table
from repro.serve.jobs import Job, JobSpec, SloFold, latency_percentiles
from repro.serve.server import SimServer
from repro.util import jsoncodec
from repro.util.validation import check_positive, check_range, require

#: Schema tag for serialized reports (``repro serve report``).
REPORT_SCHEMA = 1


def _spec_stream(
    rng: np.random.Generator,
    tenants: tuple[str, ...],
    model: str,
    cores: int,
    ticks_lo: int,
    ticks_hi: int,
    priority_hi: int,
    deadline_us: float | None,
    model_seed: int,
):
    """Yield an endless deterministic stream of job specs."""
    while True:
        tenant = tenants[int(rng.integers(0, len(tenants)))]
        ticks = int(rng.integers(ticks_lo, ticks_hi + 1))
        priority = int(rng.integers(0, priority_hi + 1))
        yield JobSpec(
            tenant=tenant,
            model=model,
            cores=cores,
            ticks=ticks,
            priority=priority,
            seed=model_seed,
            deadline_us=deadline_us,
        )


def open_loop_load(
    server: SimServer,
    rate_per_s: float,
    jobs: int,
    tenants: tuple[str, ...] = ("tenant-a", "tenant-b"),
    model: str = "quickstart",
    cores: int = 8,
    ticks_lo: int = 10,
    ticks_hi: int = 40,
    priority_hi: int = 4,
    deadline_us: float | None = None,
    seed: int = 0,
    model_seed: int = 42,
) -> list[int]:
    """Pre-schedule ``jobs`` Poisson arrivals at ``rate_per_s``.

    Inter-arrival gaps are exponential with mean ``1e6 / rate_per_s``
    simulated microseconds, drawn from a seeded generator.  Returns the
    submitted job ids (arrival order).
    """
    check_positive("rate_per_s", rate_per_s)
    check_positive("jobs", jobs)
    require(bool(tenants), "tenants must be non-empty")
    rng = np.random.default_rng(seed)
    specs = _spec_stream(
        rng, tuple(tenants), model, cores, ticks_lo, ticks_hi,
        priority_hi, deadline_us, model_seed,
    )
    mean_gap_us = 1e6 / rate_per_s
    t = 0.0
    ids = []
    for _ in range(jobs):
        t += float(rng.exponential(mean_gap_us))
        ids.append(server.submit(next(specs), at_us=t))
    return ids


class ClosedLoopLoad:
    """Fixed-population closed-loop clients driven by completion hooks.

    Each of ``clients`` keeps exactly one job in flight: when its job
    reaches a terminal state (done *or* rejected), the client thinks for
    ``think_us`` simulated microseconds and submits the next one, until
    ``jobs_per_client`` submissions have been made.  Call
    :meth:`start` before ``server.run()``.
    """

    def __init__(
        self,
        server: SimServer,
        clients: int = 4,
        jobs_per_client: int = 8,
        think_us: float = 1_000.0,
        tenants: tuple[str, ...] = ("tenant-a", "tenant-b"),
        model: str = "quickstart",
        cores: int = 8,
        ticks_lo: int = 10,
        ticks_hi: int = 40,
        priority_hi: int = 4,
        deadline_us: float | None = None,
        seed: int = 0,
        model_seed: int = 42,
    ) -> None:
        check_positive("clients", clients)
        check_positive("jobs_per_client", jobs_per_client)
        check_range("think_us", think_us, lo=0.0)
        require(bool(tenants), "tenants must be non-empty")
        self.server = server
        self.clients = clients
        self.jobs_per_client = jobs_per_client
        self.think_us = think_us
        self._specs = _spec_stream(
            np.random.default_rng(seed), tuple(tenants), model, cores,
            ticks_lo, ticks_hi, priority_hi, deadline_us, model_seed,
        )
        self._owner: dict[int, int] = {}
        self._submitted: dict[int, int] = {}
        self.job_ids: list[int] = []
        server.add_completion_hook(self._on_terminal)

    def start(self) -> None:
        """Submit every client's first job at t=0."""
        for client in range(self.clients):
            self._submit(client, at_us=0.0)

    def _submit(self, client: int, at_us: float) -> None:
        jid = self.server.submit(next(self._specs), at_us=at_us)
        self._owner[jid] = client
        self._submitted[client] = self._submitted.get(client, 0) + 1
        self.job_ids.append(jid)

    def _on_terminal(self, job: Job) -> None:
        client = self._owner.get(job.job_id)
        if client is None:
            return
        if self._submitted[client] >= self.jobs_per_client:
            return
        at = max(job.finish_us, job.submit_us) + self.think_us
        self._submit(client, at_us=at)


@dataclass
class TenantStats:
    """Per-tenant slice of the latency report."""

    tenant: str
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    deadline_missed: int = 0
    p50_us: float = 0.0
    p99_us: float = 0.0


@dataclass
class LatencyReport:
    """SLO accounting over the terminal jobs of one service run."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_rejected: int = 0
    deadline_missed: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    retries: int = 0
    makespan_s: float = 0.0
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    goodput_per_s: float = 0.0
    miss_rate: float = 0.0
    tenants: list[TenantStats] = field(default_factory=list)

    def format(self) -> str:
        """Human-readable report (stable layout; byte-identical per run)."""
        lines = [
            "serve latency report",
            f"  jobs: submitted={self.jobs_submitted} "
            f"completed={self.jobs_completed} rejected={self.jobs_rejected}",
            f"  batches: {self.batches} (mean size {self.mean_batch_size:.2f}), "
            f"retries={self.retries}",
            f"  latency: p50={self.p50_us:.1f}us p95={self.p95_us:.1f}us "
            f"p99={self.p99_us:.1f}us",
            f"  slo: deadline_missed={self.deadline_missed} "
            f"miss_rate={self.miss_rate:.4f}",
            f"  goodput: {self.goodput_per_s:.3f} jobs/s over "
            f"{self.makespan_s:.6f} simulated s",
            "",
        ]
        rows = [
            (
                t.tenant, t.submitted, t.completed, t.rejected,
                t.deadline_missed, f"{t.p50_us:.1f}", f"{t.p99_us:.1f}",
            )
            for t in self.tenants
        ]
        lines.append(
            format_table(
                ("tenant", "submitted", "completed", "rejected",
                 "missed", "p50_us", "p99_us"),
                rows,
            )
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Stable JSON form (sorted keys) for ``repro serve report``."""
        return jsoncodec.dumps(self, REPORT_SCHEMA)

    @classmethod
    def from_json(
        cls, text: str | bytes, source: str = "serve report"
    ) -> "LatencyReport":
        """Parse :meth:`to_json` output; errors name ``source`` (the file)."""
        return jsoncodec.loads(cls, text, REPORT_SCHEMA, source)


def build_report(server: SimServer) -> LatencyReport:
    """Aggregate a finished server's terminal jobs into a report."""
    fleet = SloFold()
    tenants: dict[str, SloFold] = {}
    for job in server.finished_jobs():
        fleet.observe(job)
        if job.spec.tenant not in tenants:
            tenants[job.spec.tenant] = SloFold()
        tenants[job.spec.tenant].observe(job)
    p50, p95, p99 = latency_percentiles(fleet.sorted_latencies())
    report = LatencyReport(
        jobs_submitted=fleet.terminal,
        jobs_completed=fleet.completed,
        jobs_rejected=fleet.rejected,
        deadline_missed=fleet.missed,
        batches=len(server.batches),
        retries=sum(b.retries for b in server.batches),
        makespan_s=fleet.makespan_s,
        p50_us=p50,
        p95_us=p95,
        p99_us=p99,
        goodput_per_s=fleet.goodput_per_s,
        miss_rate=fleet.miss_rate,
    )
    if server.batches:
        report.mean_batch_size = sum(b.size for b in server.batches) / len(
            server.batches
        )
    for name in sorted(tenants):
        mine = tenants[name]
        p50, _, p99 = latency_percentiles(mine.sorted_latencies())
        report.tenants.append(
            TenantStats(
                tenant=name,
                submitted=mine.terminal,
                completed=mine.completed,
                rejected=mine.rejected,
                deadline_missed=mine.missed,
                p50_us=p50,
                p99_us=p99,
            )
        )
    return report
