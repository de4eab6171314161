"""Deterministic multi-tenant simulation service (soft real-time, §VI).

The serving layer turns the Compass simulators into a *service*: jobs
from multiple tenants pass admission control, wait in a weighted
fair-share queue, get batched with compatible jobs to amortise
virtual-cluster setup, and run on a worker pool — all on one simulated
timeline, so every latency, percentile, and SLO number is exactly
reproducible from a seed.

Modules:

* :mod:`~repro.serve.jobs` — typed :class:`JobSpec` / runtime job records;
* :mod:`~repro.serve.queue` — admission quotas + fair-share scheduling;
* :mod:`~repro.serve.batcher` — compatibility batching with a delay knob;
* :mod:`~repro.serve.server` — the discrete-event worker-pool service;
* :mod:`~repro.serve.loadgen` — seeded load generators + latency report.

See ``docs/serving.md``.
"""

from __future__ import annotations

from repro.serve.batcher import Batch, Batcher, BatchPolicy
from repro.serve.jobs import Job, JobSpec, compatible
from repro.serve.loadgen import (
    ClosedLoopLoad,
    LatencyReport,
    TenantStats,
    build_report,
    open_loop_load,
)
from repro.serve.queue import FairShareQueue, TenantQuota
from repro.serve.server import BACKENDS, ServeConfig, SimServer, build_network

__all__ = [
    "Batch",
    "Batcher",
    "BatchPolicy",
    "Job",
    "JobSpec",
    "compatible",
    "ClosedLoopLoad",
    "LatencyReport",
    "TenantStats",
    "build_report",
    "open_loop_load",
    "FairShareQueue",
    "TenantQuota",
    "BACKENDS",
    "ServeConfig",
    "SimServer",
    "build_network",
]
