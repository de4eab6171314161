"""Typed job specifications and runtime job records for ``repro.serve``.

A :class:`JobSpec` is what a tenant asks for: which model to simulate,
how many ticks, at what priority, and by when (a deadline on the
*simulated* timeline — the service never consults the host clock).  A
:class:`Job` is the service's runtime record of one submitted spec: its
admission outcome, timestamps, and final accounting.

Batch compatibility
-------------------
Two jobs can share one virtual-cluster launch when they simulate the
same network: same model kind, same core count, same model seed.  That
triple is :attr:`JobSpec.batch_key`; the batcher
(:mod:`repro.serve.batcher`) groups by it to amortise compile/setup
cost.  The tick budget deliberately does **not** participate — a batch
runs to its longest member's budget and each job completes at its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.util.stats import percentile_sorted
from repro.util.validation import check_positive, check_range, require

#: Model kinds the service can build (see ``repro.serve.server``).
MODELS = ("quickstart", "macaque")

#: Priority classes: 0 is the most urgent, 9 the least.
MAX_PRIORITY = 9

#: Job lifecycle states.
QUEUED = "queued"
REJECTED = "rejected"
RUNNING = "running"
DONE = "done"


@dataclass(frozen=True)
class JobSpec:
    """One tenant request, validated at construction.

    Attributes
    ----------
    tenant:
        Owning tenant name (admission quotas and fair share key off it).
    model:
        Model kind — one of :data:`MODELS`.
    cores:
        Network size in neurosynaptic cores.
    ticks:
        Tick budget: how many simulated ticks the job needs.
    priority:
        Priority class, 0 (most urgent) .. :data:`MAX_PRIORITY`.
    seed:
        Model seed; part of the batch key (different seeds are different
        networks and cannot share a launch).
    deadline_us:
        Latency budget in simulated microseconds, measured from
        submission; ``None`` means no SLO.
    """

    tenant: str
    model: str = "quickstart"
    cores: int = 8
    ticks: int = 20
    priority: int = 4
    seed: int = 0
    deadline_us: float | None = None

    def __post_init__(self) -> None:
        require(bool(self.tenant), "tenant must be a non-empty string")
        require(
            self.model in MODELS,
            f"model={self.model!r} not one of {MODELS}",
        )
        check_range("cores", self.cores, lo=2)
        check_positive("ticks", self.ticks)
        check_range("priority", self.priority, lo=0, hi=MAX_PRIORITY)
        if self.deadline_us is not None:
            check_positive("deadline_us", self.deadline_us)

    @property
    def batch_key(self) -> tuple[str, int, int]:
        """Jobs with equal keys may share one virtual-cluster launch."""
        return (self.model, self.cores, self.seed)

    def demand(self) -> float:
        """Service-demand proxy for fair-share accounting (core-ticks)."""
        return float(self.ticks * self.cores)


def compatible(a: JobSpec, b: JobSpec) -> bool:
    """Batch-compatibility predicate: may ``a`` and ``b`` share a launch?"""
    return a.batch_key == b.batch_key


@dataclass
class Job:
    """Runtime record of one submitted job, on the simulated timeline.

    All timestamps are simulated microseconds.  ``finish_us`` is the
    job's own completion instant inside its batch (a 10-tick job in a
    30-tick batch finishes when its 10 ticks are done), not the batch's.
    """

    spec: JobSpec
    job_id: int
    submit_us: float = 0.0
    status: str = QUEUED
    launch_us: float = -1.0
    finish_us: float = -1.0
    batch_id: int = -1
    batch_size: int = 0
    retries: int = 0
    reject_reason: str = ""
    #: Simulated recovery overhead charged to this job's batch (faults).
    overhead_us: float = 0.0
    #: Current :class:`repro.obs.live.context.TraceContext` of this job's
    #: causal trace (None unless tracing is enabled; each traced stage
    #: replaces it with its child context).  Kept untyped so the job
    #: record never imports the observability layer that instruments it.
    trace: object | None = None

    @property
    def latency_us(self) -> float:
        """Submission-to-completion latency; -1 until the job is done."""
        if self.status != DONE:
            return -1.0
        return self.finish_us - self.submit_us

    @property
    def wait_us(self) -> float:
        """Queue wait plus batch-formation delay (submission to launch)."""
        if self.launch_us < 0:
            return -1.0
        return self.launch_us - self.submit_us

    @property
    def run_us(self) -> float:
        """Setup plus execution time inside the batch."""
        if self.status != DONE:
            return -1.0
        return self.finish_us - self.launch_us

    @property
    def deadline_missed(self) -> bool:
        """Did the job complete after its SLO deadline (or never)?"""
        if self.spec.deadline_us is None:
            return False
        if self.status != DONE:
            return self.status == REJECTED
        return self.latency_us > self.spec.deadline_us


class SloFold:
    """Online SLO accounting over a stream of terminal jobs.

    The one fold of the service's completion stream: the serve report
    (fleet-wide and per tenant), each shard's completion hook and every
    telemetry window feed :meth:`observe` one terminal job (done or
    rejected) at a time and read the same counters back.  Memory is one
    float per completed job, so shard servers can drop their
    :class:`Job` records as they finish.
    """

    __slots__ = (
        "completed", "rejected", "missed", "good", "latencies",
        "first_submit_us", "last_finish_us",
    )

    def __init__(self) -> None:
        self.completed = 0
        self.rejected = 0
        #: Terminal jobs past their deadline (a rejected job with a
        #: deadline counts); ``good`` are completions inside it.
        self.missed = 0
        self.good = 0
        self.latencies: list[float] = []
        self.first_submit_us = math.inf
        self.last_finish_us = 0.0

    def observe(self, job: Job) -> None:
        missed = job.deadline_missed
        if missed:
            self.missed += 1
        if job.status == REJECTED:
            self.rejected += 1
            return
        self.completed += 1
        self.latencies.append(job.latency_us)
        self.first_submit_us = min(self.first_submit_us, job.submit_us)
        self.last_finish_us = max(self.last_finish_us, job.finish_us)
        if not missed:
            self.good += 1

    @property
    def terminal(self) -> int:
        return self.completed + self.rejected

    @property
    def miss_rate(self) -> float:
        return self.missed / self.terminal if self.terminal else 0.0

    @property
    def makespan_s(self) -> float:
        """First submission to last completion, over completed jobs."""
        if not self.completed:
            return 0.0
        return (self.last_finish_us - self.first_submit_us) / 1e6

    @property
    def goodput_per_s(self) -> float:
        """In-deadline completions per simulated second of makespan."""
        return self.good / self.makespan_s if self.makespan_s > 0 else 0.0

    def sorted_latencies(self) -> list[float]:
        return sorted(self.latencies)


def latency_percentiles(ordered: Sequence[float]) -> tuple[float, float, float]:
    """Nearest-rank (p50, p95, p99) of sorted latencies; zeros when empty."""
    if not ordered:
        return 0.0, 0.0, 0.0
    return (
        percentile_sorted(ordered, 50.0),
        percentile_sorted(ordered, 95.0),
        percentile_sorted(ordered, 99.0),
    )


@dataclass
class BatchRecord:
    """Accounting for one launched batch (for reports and tests)."""

    batch_id: int
    key: tuple[str, int, int]
    job_ids: list[int] = field(default_factory=list)
    launch_us: float = 0.0
    end_us: float = 0.0
    max_ticks: int = 0
    worker: int = -1
    retries: int = 0
    overhead_us: float = 0.0

    @property
    def size(self) -> int:
        return len(self.job_ids)
