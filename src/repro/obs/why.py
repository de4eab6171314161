"""``repro obs why``: automated cross-run root-cause.

Given two comparable measurements — two ``python3 -m bench --json``
files (the benchmark of record, see ``bench/README.md``) or two
deterministic trace event logs — rank what moved between them and name
the top contributor.

Bench mode reads each workload record two ways.  Its *outputs*
(``spike_digest``, ``sim_digest``, every ``counts`` entry, ``failed``,
``correct``) are hardware-independent: two runs of one command line on
one commit must agree, so any difference is ranked first and is what
``--fail-on-regression`` exits 1 on.  Its *rates* (``end_to_end`` plus
the measured ``per_layer`` values) are host-clock readings: ranked by
relative change (units differ across metrics) and labelled increased /
decreased, never enforced.  Trace diffs are ranked by share of the total
work-unit delta (one common unit).

Everything here is offline analysis of recorded artifacts; it never
runs a simulation and is deterministic given identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import AnalysisError

#: Record fields that are simulated outputs, not host-clock readings.
_OUTPUTS = ("spike_digest", "sim_digest", "failed", "correct")


@dataclass(frozen=True)
class WhyFinding:
    """One ranked contributor to a cross-run delta."""

    scope: str  # workload name, or flame root like "rank 0"
    metric: str  # metric name, or "phase;subphase" stack path
    old: float | str  # text on both sides: a simulated output (bench mode)
    new: float | str
    gated: bool  # enforced: growth (work units) or any difference (outputs)

    @property
    def delta(self) -> float:
        if isinstance(self.old, str):
            return float(self.old != self.new)
        return self.new - self.old

    @property
    def rel(self) -> float:
        """Relative change vs old (signed; inf when appearing from 0)."""
        if self.old and not isinstance(self.old, str):
            return self.delta / abs(self.old)
        return float("inf") if self.delta > 0 else (-float("inf") if self.delta < 0 else 0.0)

    @property
    def direction(self) -> str:
        if isinstance(self.old, str):
            return "differs" if self.delta else "unchanged"
        if self.delta > 0:
            return "regressed" if self.gated else "increased"
        if self.delta < 0:
            return "improved" if self.gated else "decreased"
        return "unchanged"


def _text(value: float | str) -> str:
    return value[:12] if isinstance(value, str) else f"{value:.6g}"


def _rel_text(finding: WhyFinding) -> str:
    if abs(finding.rel) != float("inf"):
        return f"{finding.rel:+.1%}"
    return "differs" if isinstance(finding.old, str) else "new"


@dataclass(frozen=True)
class WhyReport:
    """Ranked findings plus the share each takes of the total |delta|."""

    kind: str  # "bench" | "trace"
    findings: tuple[WhyFinding, ...]

    @property
    def top(self) -> WhyFinding | None:
        return self.findings[0] if self.findings else None

    @property
    def regressions(self) -> list[WhyFinding]:
        """What ``--fail-on-regression`` enforces, in rank order."""
        return [f for f in self.findings if f.gated and f.delta > 0]

    def shares(self) -> list[float]:
        """|delta| share per finding — comparable only in trace mode."""
        total = sum(abs(f.delta) for f in self.findings)
        if not total:
            return [0.0 for _ in self.findings]
        return [abs(f.delta) / total for f in self.findings]

    def format(self, limit: int = 20) -> str:
        from repro.perf.report import format_table

        lines = [f"# regression root-cause ({self.kind} diff)", ""]
        if not self.findings:
            lines.append("no comparable (scope, metric) pairs between the runs")
            return "\n".join(lines) + "\n"
        shares = self.shares()
        rows = []
        for finding, share in list(zip(self.findings, shares))[:limit]:
            rows.append(
                (
                    finding.scope,
                    finding.metric,
                    _text(finding.old),
                    _text(finding.new),
                    "" if isinstance(finding.old, str) else f"{finding.delta:+.6g}",
                    _rel_text(finding),
                    f"{share:.1%}",
                    finding.direction,
                )
            )
        title = "== contributors, ranked =="
        if len(self.findings) > limit:
            title += f" (top {limit} of {len(self.findings)})"
        lines.append(
            format_table(
                ["scope", "metric", "old", "new", "delta", "rel", "share", "status"],
                rows,
                title=title,
            )
        )
        lines.append("")
        top = self.top
        regressions = self.regressions
        if regressions:
            cause = regressions[0]
            lines.append(
                f"root cause: {cause.scope} / {cause.metric} "
                f"({_text(cause.old)} -> {_text(cause.new)}, {_rel_text(cause)})"
            )
        elif top is not None and top.delta != 0:
            lines.append(
                f"largest shift: {top.scope} / {top.metric} "
                f"({_text(top.old)} -> {_text(top.new)})"
            )
        else:
            lines.append("no regression: runs are metric-identical")
        return "\n".join(lines) + "\n"


def _flatten(prefix: str, value: Any, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}", value[key], out)
    else:
        out[prefix] = value


def _bench_values(records: list[dict[str, Any]]) -> dict[tuple[str, str], float | str]:
    """``(workload, metric) -> value`` of one ``bench --json`` file: outputs
    as text (compared for equality), rates as floats."""
    values: dict[tuple[str, str], float | str] = {}
    for record in records:
        scope = str(record["workload"])
        outputs = {key: record.get(key) for key in _OUTPUTS}
        _flatten("counts", record.get("counts") or {}, outputs)
        for metric, value in outputs.items():
            values[scope, metric] = str(value)
        rates = {**record["end_to_end"], **(record.get("per_layer") or {})}
        for metric, cell in rates.items():
            if cell["value"] is not None:  # null: the layer did not run here
                values[scope, metric] = float(cell["value"])
    return values


def why_bench(
    old_records: list[dict[str, Any]], new_records: list[dict[str, Any]]
) -> WhyReport:
    """Diff two ``python3 -m bench --json`` results metric by metric."""
    try:
        old = _bench_values(old_records)
        new = _bench_values(new_records)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(f"malformed bench record: {exc!r}") from exc
    common = sorted(set(old) & set(new))
    if not common:
        raise AnalysisError(
            "the two bench results share no (workload, metric) pairs"
        )
    findings = [
        WhyFinding(scope=key[0], metric=key[1], old=old[key], new=new[key],
                   gated=isinstance(old[key], str))
        for key in common
    ]
    # Differing outputs first, then everything by relative severity.
    ranked = sorted(
        findings,
        key=lambda f: (not (f.gated and f.delta), -abs(f.rel), f.scope, f.metric),
    )
    return WhyReport(kind="bench", findings=tuple(ranked))


def why_trace(
    old_events: list[dict[str, Any]], new_events: list[dict[str, Any]]
) -> WhyReport:
    """Diff two deterministic trace logs by folded work-unit stacks.

    Both sides share one unit (work units), so findings are ranked by
    absolute delta — share of the total shift — with the rank/cluster
    flame root as the scope.
    """
    from repro.obs.analysis.flame import fold_stacks

    old = fold_stacks(old_events)
    new = fold_stacks(new_events)
    findings = []
    for path in sorted(set(old) | set(new)):
        root, _, rest = path.partition(";")
        findings.append(
            WhyFinding(
                scope=root,
                metric=rest or root,
                old=float(old.get(path, 0)),
                new=float(new.get(path, 0)),
                gated=True,  # work units are uniformly lower-is-better
            )
        )
    if not findings:
        raise AnalysisError("neither trace contains phase spans to fold")
    ranked = tuple(
        sorted(
            findings,
            key=lambda f: (-abs(f.delta), f.scope, f.metric),
        )
    )
    return WhyReport(kind="trace", findings=ranked)


def load_side(path: str | Path) -> tuple[str, Any]:
    """Classify one ``repro obs why`` operand: bench result or trace log.

    Returns ``("bench", records)`` for a ``python3 -m bench --json`` file
    or ``("trace", events)`` for a ``.jsonl`` event log; raises
    :class:`AnalysisError` for anything unrecognizable.
    """
    from repro.obs.analysis import load_events, require_file

    path = require_file(path, "bench/trace")
    if path.suffix == ".jsonl":
        return "trace", load_events(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"{path}: not valid JSON: {exc}") from exc
    if (
        isinstance(payload, list)
        and payload
        and all(isinstance(r, dict) and "workload" in r and "end_to_end" in r for r in payload)
    ):
        return "bench", payload
    raise AnalysisError(
        f"{path}: not a bench result or trace log (expected the non-empty "
        "list of workload records `python3 -m bench --json` writes, or an "
        "events .jsonl)"
    )


def why_paths(old_path: str | Path, new_path: str | Path) -> WhyReport:
    """Dispatch ``repro obs why OLD NEW`` on the operand kinds."""
    old_kind, old_data = load_side(old_path)
    new_kind, new_data = load_side(new_path)
    if old_kind != new_kind:
        raise AnalysisError(
            f"cannot diff {old_kind} ({old_path}) against {new_kind} "
            f"({new_path}); both sides must be bench results or both traces"
        )
    if old_kind == "bench":
        return why_bench(old_data, new_data)
    return why_trace(old_data, new_data)
