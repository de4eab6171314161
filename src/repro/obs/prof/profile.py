"""Host-cost accounting per phase/rank and the divergence report.

:class:`HostProfile` is the aggregation point of the host-side profiling
layer (HOST-ONLY): simulators and the compiler call :meth:`HostProfile.phase`
with the host seconds a phase segment cost on a given rank, plus the same
integer event counts the span tracer records.  Work units are derived with
the exact :func:`repro.obs.analysis.critical.span_cost` weights, so
``host_ns / work_unit`` is directly comparable against the simulated-clock
flame and critical-path analytics.

The resulting *host-cost divergence report* answers the question the
ROADMAP's SoA kernel refactor needs answered: which phase (and which rank)
pays the most interpreter nanoseconds per unit of modelled work.  Nothing
here may feed rank-visible state — the profile is attached to
``Observability.prof`` and defaults to the shared no-op
:data:`NULL_PROFILE`, so the deterministic path is untouched when
profiling is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

_span_cost = None


def _cost(name: str, counts: Mapping[str, Any]) -> int:
    """Work units for a phase segment (lazy import avoids an obs cycle)."""
    global _span_cost
    if _span_cost is None:
        from repro.obs.analysis.critical import span_cost

        _span_cost = span_cost
    return _span_cost(name, counts)


class NullProfile:
    """Shared no-op profile: the default on every ``Observability``."""

    enabled = False
    sampler = None
    memory = None
    mem_report = None

    def phase(self, name: str, rank: int, host_s: float, **counts: Any) -> None:
        return None

    def rows(self) -> list["PhaseRow"]:
        return []

    def folded(self) -> dict[str, int]:
        return {}


#: The one shared no-op instance (identity-comparable, like NULL_TRACER).
NULL_PROFILE = NullProfile()


@dataclass(frozen=True)
class PhaseRow:
    """Aggregated host cost of one (phase, rank) pair."""

    phase: str
    rank: int
    host_ns: int
    work_units: int
    calls: int

    @property
    def ns_per_work_unit(self) -> float:
        return self.host_ns / self.work_units if self.work_units else float(self.host_ns)


class HostProfile:
    """Mutable host-cost accumulator with optional sampler/memory attach.

    ``sampler`` (a :class:`~repro.obs.prof.sampler.HostSampler`) and
    ``memory`` (a :class:`~repro.obs.prof.memory.MemoryTracker`) are
    started/stopped with the profile; :meth:`phase` additionally feeds the
    memory tracker so allocation deltas are attributed to phases.
    """

    enabled = True

    def __init__(self, sampler: Any = None, memory: Any = None) -> None:
        self.sampler = sampler
        self.memory = memory
        self.mem_report = None
        # (phase, rank) -> [host_ns, work_units, calls]
        self._phases: dict[tuple[str, int], list[int]] = {}

    def start(self) -> "HostProfile":
        if self.sampler is not None:
            self.sampler.start()
        if self.memory is not None:
            self.memory.start()
        return self

    def stop(self) -> "HostProfile":
        if self.sampler is not None:
            self.sampler.stop()
        if self.memory is not None:
            self.mem_report = self.memory.stop()
        return self

    def __enter__(self) -> "HostProfile":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def phase(
        self,
        name: str,
        rank: int,
        host_s: float,
        work: int | None = None,
        **counts: Any,
    ) -> None:
        """Record ``host_s`` host seconds of phase ``name`` on ``rank``.

        ``counts`` are the span-attribute event counts (``fired``,
        ``messages``, ...); ``work`` overrides the derived work units for
        segments without span weights (e.g. compiler phases).
        """
        if work is None:
            work = _cost(name, counts)
        rec = self._phases.setdefault((name, int(rank)), [0, 0, 0])
        rec[0] += max(0, int(host_s * 1e9))
        rec[1] += int(work)
        rec[2] += 1
        if self.memory is not None:
            self.memory.phase_delta(name)

    def rows(self) -> list[PhaseRow]:
        """Per-(phase, rank) aggregates, sorted by descending ns/work-unit."""
        rows = [
            PhaseRow(phase=p, rank=r, host_ns=ns, work_units=wu, calls=n)
            for (p, r), (ns, wu, n) in self._phases.items()
        ]
        rows.sort(key=lambda row: (-row.ns_per_work_unit, row.phase, row.rank))
        return rows

    @property
    def total_host_ns(self) -> int:
        # repro: allow[DET103] integer sum is order-independent.
        return sum(ns for ns, _, _ in self._phases.values())

    @property
    def total_work_units(self) -> int:
        # repro: allow[DET103] integer sum is order-independent.
        return sum(wu for _, wu, _ in self._phases.values())

    def ns_per_work_unit(self) -> float:
        """Run-level mean host cost per work unit (0.0 when no work)."""
        wu = self.total_work_units
        return self.total_host_ns / wu if wu else 0.0

    def folded(self) -> dict[str, int]:
        """Folded host stacks from the attached sampler ({} when absent)."""
        return self.sampler.folded() if self.sampler is not None else {}


def format_host_report(profile: HostProfile, limit: int = 40) -> str:
    """Deterministic-format host-cost divergence report.

    The *values* are host measurements and vary run to run; the layout is
    stable so reports diff cleanly.  Rows are ranked by ns/work-unit —
    the top row is where interpreter overhead diverges most from the
    modelled cost, i.e. the first target for the SoA kernel refactor.
    """
    from repro.perf.report import format_table

    rows = profile.rows()
    mean = profile.ns_per_work_unit()
    table_rows = [
        (
            row.phase,
            row.rank,
            row.calls,
            row.work_units,
            row.host_ns,
            f"{row.ns_per_work_unit:.1f}",
            f"{row.ns_per_work_unit / mean:.2f}x" if mean else "n/a",
        )
        for row in rows[:limit]
    ]
    title = "== host-cost divergence (ns per work unit) =="
    if len(rows) > limit:
        title += f" (top {limit} of {len(rows)})"
    lines = ["# host profile", ""]
    lines.append(
        format_table(
            ["phase", "rank", "calls", "work_units", "host_ns", "ns_per_wu", "vs_mean"],
            table_rows,
            title=title,
        )
    )
    lines.append("")
    lines.append(f"total host_ns: {profile.total_host_ns}")
    lines.append(f"total work_units: {profile.total_work_units}")
    lines.append(f"ns_per_work_unit: {mean:.1f}")
    if rows:
        top = rows[0]
        lines.append(
            f"divergence hotspot: {top.phase} (rank {top.rank}) at "
            f"{top.ns_per_work_unit:.1f} ns/wu"
        )
    if profile.sampler is not None:
        lines.append(f"sampler: {profile.sampler.samples} samples @ {profile.sampler.hz:g} Hz")
    if profile.mem_report is not None:
        lines.append("")
        lines.append(profile.mem_report.format())
    return "\n".join(lines) + "\n"
