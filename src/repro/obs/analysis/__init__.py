"""Trace analytics: critical path, flame folding, imbalance.

``repro.obs.analysis`` is the layer that *interprets* what the
observability layer records (see ``docs/perf_analysis.md``):

* :mod:`~repro.obs.analysis.critical` — walks each tick's phase windows
  and names the binding rank/phase per tick ("who bounded the run");
* :mod:`~repro.obs.analysis.flame` — folds spans into a deterministic
  folded-stack format plus a self/total table;
* :mod:`~repro.obs.analysis.imbalance` — per-tick max/mean heatmap data
  keyed by partition-invariant section names.

Every analyzer consumes the JSONL event records of
:func:`repro.obs.jsonl.read_event_log` (or a live
:class:`~repro.obs.span.SpanTracer`), so reports are a pure function of
the deterministic event stream: two runs of one seed produce
byte-identical reports, and the sections keyed by partition-invariant
names are additionally identical across rank counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.errors import AnalysisError
from repro.obs.jsonl import event_record, read_event_log


def require_file(path: str | Path, kind: str) -> Path:
    """Validate that ``path`` names an existing, non-empty ``kind`` file.

    The analysis CLI's analogue of ``_positive_int`` argument validation:
    a missing or empty input is a usage error (typed
    :class:`~repro.errors.AnalysisError`, exit code 2), never a traceback
    or a silently empty report.
    """
    path = Path(path)
    if not path.exists():
        raise AnalysisError(f"no such {kind} file: {path}")
    if not path.is_file():
        raise AnalysisError(f"{kind} path is not a file: {path}")
    if path.stat().st_size == 0:
        raise AnalysisError(f"{kind} file is empty: {path}")
    return path


def load_events(source: Any) -> list[dict[str, Any]]:
    """Event records from a tracer, a record list, or a JSONL log path.

    Paths are validated with :func:`require_file`; a log that parses to
    zero records is rejected the same way (nothing to analyze).
    """
    if isinstance(source, (str, Path)):
        records = read_event_log(require_file(source, "event log"))
        if not records:
            raise AnalysisError(f"event log has no records: {source}")
        return records
    if hasattr(source, "events"):  # SpanTracer / NullTracer
        return [event_record(e) for e in source.events]
    return list(source)


from repro.obs.analysis.critical import (  # noqa: E402
    CriticalPath,
    TickCritical,
    analyze_report,
    critical_path,
    format_critical_report,
    invariant_section,
)
from repro.obs.analysis.flame import (  # noqa: E402
    flame_table,
    fold_stacks,
    folded_lines,
    format_folded,
    write_folded,
)
from repro.obs.analysis.imbalance import (  # noqa: E402
    ImbalanceRow,
    format_imbalance_report,
    imbalance_heatmap,
)

__all__ = [
    "AnalysisError",
    "CriticalPath",
    "ImbalanceRow",
    "TickCritical",
    "analyze_report",
    "critical_path",
    "flame_table",
    "fold_stacks",
    "folded_lines",
    "format_critical_report",
    "format_folded",
    "format_imbalance_report",
    "imbalance_heatmap",
    "invariant_section",
    "load_events",
    "require_file",
    "write_folded",
]
