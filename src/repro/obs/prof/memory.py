"""tracemalloc-backed memory attribution (HOST-ONLY).

Maps traced Python-heap bytes to repo subsystems (``arch``, ``core``,
``runtime``, ``serve``, ``shard``, ...) by allocation filename, and
tracks per-phase allocation deltas across the tick loop via
:meth:`MemoryTracker.phase_delta` (driven by ``HostProfile.phase``).

Every tracemalloc read sits inside a ``# repro: host-prof`` function —
rule DET111 keeps profiler introspection out of the deterministic
rank-visible path.  Reports are host measurements: sizes vary with
interpreter version and allocator state, so nothing here feeds digests.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import dataclass
from pathlib import PurePath
from typing import Any

#: Subsystem buckets: top-level ``repro`` subpackages worth attributing.
SUBSYSTEMS = (
    "arch",
    "core",
    "runtime",
    "compiler",
    "serve",
    "shard",
    "obs",
    "resilience",
    "check",
    "perf",
    "cocomac",
    "apps",
    "util",
)


def subsystem_of(filename: str) -> str:
    """Bucket an allocation filename: ``repro`` subpackage, or ``external``.

    ``.../repro/core/simulator.py`` -> ``core``; ``.../repro/cli/obs.py``
    -> ``repro.other``; anything outside the package -> ``external``.
    """
    parts = PurePath(filename).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            if i + 1 < len(parts):
                head = parts[i + 1]
                name = head[:-3] if head.endswith(".py") else head
                if name in SUBSYSTEMS:
                    return name
            return "repro.other"
    return "external"


@dataclass(frozen=True)
class MemoryReport:
    """Snapshot of where traced bytes went, by subsystem and phase."""

    current_nbytes: int
    peak_nbytes: int
    #: (subsystem, nbytes, blocks), sorted by descending nbytes.
    subsystems: tuple[tuple[str, int, int], ...]
    #: (phase, summed allocation delta in bytes), insertion order.
    phase_deltas: tuple[tuple[str, int], ...]
    #: (phase, max traced-peak bytes observed at a phase boundary).
    phase_peaks: tuple[tuple[str, int], ...]

    def format(self) -> str:
        """Plain-text memory report (stable layout, host-valued cells)."""
        from repro.perf.report import format_table

        lines = ["# host memory report", ""]
        lines.append(f"current_nbytes: {self.current_nbytes}")
        lines.append(f"peak_nbytes: {self.peak_nbytes}")
        lines.append("")
        lines.append(
            format_table(
                ["subsystem", "nbytes", "blocks"],
                [list(row) for row in self.subsystems],
                title="== traced bytes by subsystem ==",
            )
        )
        if self.phase_deltas:
            lines.append("")
            peak_by_phase = dict(self.phase_peaks)
            lines.append(
                format_table(
                    ["phase", "delta_nbytes", "peak_nbytes"],
                    [
                        (phase, delta, peak_by_phase.get(phase, 0))
                        for phase, delta in self.phase_deltas
                    ],
                    title="== allocation delta by phase ==",
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            "schema": 1,
            "current_nbytes": self.current_nbytes,
            "peak_nbytes": self.peak_nbytes,
            "subsystems": [
                {"subsystem": s, "nbytes": b, "blocks": n}
                for s, b, n in self.subsystems
            ],
            "phase_deltas": [
                {"phase": p, "delta_nbytes": d} for p, d in self.phase_deltas
            ],
            "phase_peaks": [
                {"phase": p, "peak_nbytes": b} for p, b in self.phase_peaks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class MemoryTracker:
    """Start/stop wrapper over tracemalloc with phase-delta attribution.

    If tracemalloc is already tracing (e.g. under the bench meter), the
    tracker piggybacks and leaves it running on :meth:`stop`; otherwise it
    owns the start/stop pair.  ``nframes=1`` keeps overhead at the
    filename granularity the subsystem mapping needs.
    """

    def __init__(self, nframes: int = 1) -> None:
        self.nframes = int(nframes)
        self.tracking = False
        self._started_here = False
        self._last_current = 0
        self._phase_deltas: dict[str, int] = {}
        self._phase_peaks: dict[str, int] = {}

    # repro: host-prof
    def start(self) -> "MemoryTracker":
        """Begin (or join) tracemalloc tracing; resets the peak marker."""
        if self.tracking:
            return self
        self._started_here = not tracemalloc.is_tracing()
        if self._started_here:
            tracemalloc.start(self.nframes)
        tracemalloc.reset_peak()
        self._last_current = tracemalloc.get_traced_memory()[0]
        self._phase_deltas = {}
        self._phase_peaks = {}
        self.tracking = True
        return self

    # repro: host-prof
    def phase_delta(self, phase: str) -> int:
        """Attribute allocations since the previous boundary to ``phase``."""
        if not self.tracking:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        delta = current - self._last_current
        self._last_current = current
        self._phase_deltas[phase] = self._phase_deltas.get(phase, 0) + delta
        if peak > self._phase_peaks.get(phase, 0):
            self._phase_peaks[phase] = peak
        return delta

    # repro: host-prof
    def stop(self) -> MemoryReport:
        """Finalize: snapshot, bucket by subsystem, release tracing if owned."""
        if not self.tracking:
            return MemoryReport(0, 0, (), (), ())
        current, peak = tracemalloc.get_traced_memory()
        buckets: dict[str, list[int]] = {}
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            name = subsystem_of(stat.traceback[0].filename)
            entry = buckets.setdefault(name, [0, 0])
            entry[0] += stat.size
            entry[1] += stat.count
        if self._started_here:
            tracemalloc.stop()
        self.tracking = False
        subsystems = tuple(
            (name, nbytes, blocks)
            for name, (nbytes, blocks) in sorted(
                buckets.items(), key=lambda kv: (-kv[1][0], kv[0])
            )
        )
        return MemoryReport(
            current_nbytes=current,
            peak_nbytes=peak,
            subsystems=subsystems,
            phase_deltas=tuple(self._phase_deltas.items()),
            phase_peaks=tuple(self._phase_peaks.items()),
        )
