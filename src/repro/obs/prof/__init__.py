"""Host-side profiling & memory observability (HOST-ONLY).

Everything in this package measures the *host* — interpreter CPU stacks,
Python-heap bytes, host nanoseconds per unit of modelled work — and is
strictly isolated from the deterministic rank-visible path:

* :class:`~repro.obs.prof.sampler.HostSampler` — thread-based sampling
  profiler emitting stackcollapse folded stacks rooted at ``host``;
* :class:`~repro.obs.prof.memory.MemoryTracker` — tracemalloc-backed
  attribution of peak/current bytes to subsystems and per-phase deltas;
* :class:`~repro.obs.prof.profile.HostProfile` — per-(phase, rank)
  host-ns/work-unit accounting behind ``Observability.prof`` (the no-op
  :data:`~repro.obs.prof.profile.NULL_PROFILE` when profiling is off);
* :mod:`~repro.obs.prof.why` — ``repro obs why`` cross-run regression
  root-cause ranking over two ``python3 -m bench --json`` results or two
  traces.

Isolation is enforced, not aspirational: lint rule DET111 rejects
tracemalloc / ``sys._current_frames`` / ``resource.getrusage`` reads in
rank-visible code outside functions marked ``# repro: host-prof``, and
the integration suite proves 1-vs-4-rank digests and recovery digests
are byte-identical with profiling enabled.  See ``docs/profiling.md``.
"""

from __future__ import annotations

from repro.obs.prof.memory import (
    SUBSYSTEMS,
    MemoryReport,
    MemoryTracker,
    subsystem_of,
)
from repro.obs.prof.profile import (
    NULL_PROFILE,
    HostProfile,
    NullProfile,
    PhaseRow,
    format_host_report,
)
from repro.obs.prof.sampler import HostSampler
from repro.obs.prof.why import (
    WhyFinding,
    WhyReport,
    load_side,
    why_bench,
    why_paths,
    why_trace,
)

__all__ = [
    "HostSampler",
    "MemoryTracker",
    "MemoryReport",
    "SUBSYSTEMS",
    "subsystem_of",
    "HostProfile",
    "NullProfile",
    "NULL_PROFILE",
    "PhaseRow",
    "format_host_report",
    "WhyFinding",
    "WhyReport",
    "why_bench",
    "why_trace",
    "why_paths",
    "load_side",
]
