"""JSONL event log with first-divergence-friendly stable ordering.

Each trace event becomes one JSON object per line, keys sorted, floats
untouched (they are exact sums of exact increments — see
``repro.obs.span``).  Records appear in emission order, which for a
deterministic simulation is itself deterministic, so two runs of the
same configuration produce *byte-identical* logs and the first differing
line localises the first behavioural divergence.

The internal sequence counter is deliberately excluded from records:
cross-layout comparisons (1 rank vs 4 ranks) filter to the cluster-track
``tick`` summary events, whose fixed timestamps and partition-invariant
attributes match across rank counts (see docs/observability.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import AnalysisError
from repro.obs.span import NullTracer, SpanTracer, TraceEvent


def event_record(event: TraceEvent) -> dict[str, Any]:
    """The canonical JSON-ready dict for one event."""
    return {
        "name": event.name,
        "cat": event.cat,
        "ph": event.ph,
        "ts": event.ts_us,
        "dur": event.dur_us,
        "rank": event.rank,
        "thread": event.thread,
        "tick": event.tick,
        "args": dict(event.args),
    }


def iter_lines(tracer: SpanTracer | NullTracer) -> Iterator[str]:
    """Canonical one-line serialisations, in deterministic emission order."""
    for event in tracer.events:
        yield json.dumps(event_record(event), sort_keys=True)


def write_event_log(  # repro: obs-flush
    tracer: SpanTracer | NullTracer, path: str | Path
) -> Path:
    """Write the JSONL log to ``path``; the obs flush boundary."""
    path = Path(path)
    text = "\n".join(iter_lines(tracer))
    path.write_text(text + "\n" if text else "")
    return path


def read_event_log(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL event log back into record dicts.

    A line that is not JSON (or a file that is not text) raises
    :class:`AnalysisError` naming the file and line.
    """
    records: list[dict[str, Any]] = []
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise AnalysisError(f"{path}: not a JSONL event log: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"{path}:{lineno}: not a JSON record: {exc}") from exc
    return records


@dataclass(frozen=True)
class Divergence:
    """Where two event streams first disagree.

    ``index`` is the position in the (filtered) record sequence; one of
    ``a``/``b`` is None when a log is a strict prefix of the other.
    """

    index: int
    a: dict[str, Any] | None
    b: dict[str, Any] | None

    @property
    def tick(self) -> int:
        for rec in (self.a, self.b):
            if rec is not None:
                return int(rec.get("tick", -1))
        return -1

    @staticmethod
    def _label(rec: dict[str, Any]) -> str:
        """Short identity of one record: event name, or rollup/alert key."""
        if "name" in rec:
            return repr(rec.get("name"))
        kind = rec.get("kind", "record")
        return (
            f"{kind}[window={rec.get('window')}, scope={rec.get('scope')}, "
            f"shard={rec.get('shard')}]"
        )

    @staticmethod
    def _where(rec: dict[str, Any]) -> str:
        """Locator clause: tick/rank for events, window for rollups/alerts."""
        if "name" in rec:
            return f"tick {rec.get('tick')}, rank {rec.get('rank')}"
        return f"window {rec.get('window')}, t1={rec.get('t1_us', rec.get('t_us'))}us"

    def describe(self) -> str:
        if self.a is None:
            rec = self.b or {}
            return (
                f"log A ends at record {self.index}; B continues with "
                f"{self._label(rec)} ({self._where(rec)})"
            )
        if self.b is None:
            rec = self.a
            return (
                f"log B ends at record {self.index}; A continues with "
                f"{self._label(rec)} ({self._where(rec)})"
            )
        fields = sorted(
            k
            for k in {**self.a, **self.b}
            if self.a.get(k) != self.b.get(k)
        )
        return (
            f"first divergent record at index {self.index}: "
            f"A={self._label(self.a)} vs B={self._label(self.b)} "
            f"({self._where(self.a)}, "
            f"differing fields: {', '.join(fields)})"
        )


def first_divergence(
    a: list[dict[str, Any]],
    b: list[dict[str, Any]],
    name: str | None = None,
    kind: str | None = None,
) -> Divergence | None:
    """First record where the streams differ, or None when identical.

    With ``name`` set, both streams are first filtered to events of that
    name — e.g. ``name="tick"`` compares the partition-invariant per-tick
    summaries across runs with different rank counts.  With ``kind`` set,
    streams are filtered by the record ``kind`` tag instead — e.g.
    ``kind="rollup"`` or ``kind="alert"`` localises the first diverging
    telemetry record of a :mod:`repro.obs.live` stream (raw trace events
    carry no ``kind`` key and are filtered out).
    """
    if name is not None:
        a = [r for r in a if r.get("name") == name]
        b = [r for r in b if r.get("name") == name]
    if kind is not None:
        a = [r for r in a if r.get("kind") == kind]
        b = [r for r in b if r.get("kind") == kind]
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return Divergence(i, a[i], b[i])
    if len(a) != len(b):
        i = min(len(a), len(b))
        return Divergence(i, a[i] if i < len(a) else None, b[i] if i < len(b) else None)
    return None
