"""Per-tick load-imbalance heatmaps from span traces.

Generalizes the end-of-run max/mean factors of
:mod:`repro.core.profiling` to a *per-tick* view computed from the trace
alone: for every phase attribute the tick loop records, the max/mean
ratio across ranks at each tick.  Rows are keyed by partition-invariant
section names (``phase/metric`` — never rank ids), so heatmaps from
1-rank and 4-rank layouts of the same model are comparable row by row
even though the values legitimately differ.

Hot ticks — ticks whose imbalance is a robust outlier against the row's
own history — are flagged with :func:`repro.util.stats.robust_outlier`
(median/MAD, relative tolerance for short rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.perf.report import format_table
from repro.util.stats import max_over_mean, median, robust_outlier

#: Span attributes surfaced per phase (must be integer counts).
PHASE_METRICS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("compute", ("active_axons", "fired", "local_spikes", "remote_spikes")),
    ("sync", ("sent", "expected")),
    ("network", ("messages", "spikes_received", "bytes_received",
                 "local_delivered")),
)


@dataclass(frozen=True)
class ImbalanceRow:
    """One heatmap row: a ``phase/metric`` section across all ticks."""

    section: str
    #: (tick, max/mean ratio) in tick order.
    ticks: tuple[tuple[int, float], ...]
    #: Ticks whose ratio is a robust outlier against the row.
    hot_ticks: tuple[int, ...]

    @property
    def mean_imbalance(self) -> float:
        ratios = [r for _, r in self.ticks]
        return sum(ratios) / len(ratios) if ratios else 1.0

    @property
    def worst(self) -> tuple[int, float]:
        """(tick, ratio) of the most imbalanced tick (first on ties)."""
        if not self.ticks:
            return (-1, 1.0)
        ratio, neg_tick = max((r, -t) for t, r in self.ticks)
        return (-neg_tick, ratio)


def imbalance_heatmap(events: list[dict[str, Any]]) -> list[ImbalanceRow]:
    """Per-tick max/mean imbalance rows, one per ``phase/metric`` section.

    Sections with no recorded data (e.g. ``bytes_received`` in a trace
    without network attributes) are omitted rather than padded, so the
    row set itself stays a function of what the trace contains.
    """
    # (phase, metric, tick) -> per-rank values.
    values: dict[tuple[str, str, int], list[int]] = {}
    metric_names = dict(PHASE_METRICS)
    for rec in events:
        name = rec.get("name")
        if rec.get("ph") != "X" or name not in metric_names:
            continue
        tick = int(rec.get("tick", -1))
        args = rec.get("args") or {}
        for metric in metric_names[name]:
            value = args.get(metric)
            if isinstance(value, (int, float)):
                values.setdefault((name, metric, tick), []).append(int(value))

    series: dict[str, list[tuple[int, float]]] = {}
    for (phase, metric, tick), ranks in sorted(values.items()):
        series.setdefault(f"{phase}/{metric}", []).append(
            (tick, max_over_mean(ranks))
        )

    rows: list[ImbalanceRow] = []
    for section, ticks in sorted(series.items()):
        ratios = [r for _, r in ticks]
        hot = tuple(
            tick
            for tick, ratio in ticks
            if len(ratios) >= 4 and robust_outlier(ratio, ratios)
        )
        rows.append(ImbalanceRow(section=section, ticks=tuple(ticks),
                                 hot_ticks=hot))
    return rows


def format_imbalance_report(rows: list[ImbalanceRow]) -> str:
    """Deterministic summary table over the heatmap rows."""
    table_rows = []
    for row in rows:
        worst_tick, worst_ratio = row.worst
        ratios = [r for _, r in row.ticks]
        table_rows.append(
            (
                row.section,
                f"{row.mean_imbalance:.3f}",
                f"{median(ratios):.3f}" if ratios else "1.000",
                f"{worst_ratio:.3f}",
                worst_tick,
                len(row.hot_ticks),
            )
        )
    return format_table(
        ["section", "mean_imb", "median_imb", "worst_imb", "worst_tick",
         "hot_ticks"],
        table_rows,
        title="== per-tick imbalance (max/mean across ranks) ==",
    ) + "\n"
