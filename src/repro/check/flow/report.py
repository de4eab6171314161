"""FLOW findings, baseline gating, and the run driver.

A finding is one concrete source→sink flow with its witness path.  The
FLOW rule series mirrors the taint source kinds:

* FLOW201 — host-clock value reaches a rank-visible sink;
* FLOW202 — unseeded global-RNG value reaches a rank-visible sink;
* FLOW203 — environment / filesystem-order value reaches a sink;
* FLOW204 — unordered-iteration (set / dict-view) value reaches a sink;
* FLOW205 — object-identity (``id()`` / ``hash()``) value reaches a sink.

Baseline workflow: pre-existing findings live in a committed JSON file
(``src/repro/check/flow_baseline.json``) keyed by content fingerprints;
a run gates only on findings *not* covered by the baseline, and
``--bless`` rewrites the file to accept the current state.  Fingerprints
deliberately exclude line numbers, so unrelated edits shifting a file do
not invalidate the baseline.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.flow.callgraph import build_callgraph
from repro.check.flow.taint import KIND_RULES, SinkHit, analyze
from repro.check.serialize import CheckResult, FlowStep, RuleMeta
from repro.errors import CheckInputError

TOOL_NAME = "repro.check.flow"

FLOW_RULES = [
    RuleMeta("FLOW201", "HostClockFlow", "host-clock value reaches a rank-visible sink"),
    RuleMeta("FLOW202", "GlobalRngFlow", "unseeded RNG value reaches a rank-visible sink"),
    RuleMeta("FLOW203", "EnvOrderFlow", "environment/filesystem-order value reaches a sink"),
    RuleMeta("FLOW204", "UnorderedIterFlow", "unordered-iteration value reaches a sink"),
    RuleMeta("FLOW205", "ObjectIdentityFlow", "id()/hash() value reaches a sink"),
]

#: Strips "source[kind] "-style prefixes when building messages.
_NOTE_RE = re.compile(r"^source\[[a-z-]+\]\s+")


@dataclass(frozen=True)
class FlowFinding:
    """One source→sink flow at a sink call site."""

    rule_id: str
    path: str  #: sink file
    line: int
    col: int
    source_kind: str
    source_desc: str  #: e.g. "time.perf_counter()"
    source_path: str
    source_line: int
    sink_label: str  #: e.g. "mailbox send"
    sink_desc: str  #: e.g. ".isend()"
    witness: tuple[FlowStep, ...] = ()

    @property
    def message(self) -> str:
        return (
            f"{self.source_kind} value from {self.source_desc} "
            f"({self.source_path}:{self.source_line}) flows into "
            f"{self.sink_desc} [{self.sink_label}]"
        )

    @property
    def fingerprint(self) -> str:
        payload = "|".join(
            (
                self.rule_id,
                self.path,
                self.source_path,
                self.source_desc,
                self.sink_label,
                self.sink_desc,
            )
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def format(self) -> str:
        lines = [f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"]
        for i, step in enumerate(self.witness, start=1):
            lines.append(f"    {i}. {step.path}:{step.line} {step.note}")
        return "\n".join(lines)

    def to_result(self, baseline_state: str = "") -> CheckResult:
        return CheckResult(
            rule_id=self.rule_id,
            message=self.message,
            path=self.path,
            line=self.line,
            col=self.col,
            flow=self.witness,
            fingerprint=self.fingerprint,
            baseline_state=baseline_state,
        )


@dataclass
class FlowReport:
    """Outcome of one flow analysis."""

    findings: list[FlowFinding] = field(default_factory=list)
    files_checked: int = 0
    functions_analyzed: int = 0
    unresolved_calls: int = 0
    #: Findings not covered by the baseline (== findings when none given).
    new_findings: list[FlowFinding] = field(default_factory=list)
    baseline_path: str = ""
    #: Baselined occurrences that no finding used: the code they excused
    #: is gone, so the baseline should be re-blessed.
    stale_baseline: int = 0

    @property
    def passed(self) -> bool:
        return not self.new_findings

    def format(self) -> str:
        lines = [f.format() for f in self.new_findings]
        baselined = len(self.findings) - len(self.new_findings)
        tail = (
            f"{len(self.new_findings)} new flow finding(s) "
            f"({baselined} baselined) in {self.files_checked} file(s); "
            f"{self.functions_analyzed} function(s), "
            f"{self.unresolved_calls} unresolved call(s)"
        )
        if self.stale_baseline:
            tail += f"; {self.stale_baseline} stale baseline entries (re-bless)"
        lines.append(tail)
        return "\n".join(lines)

    def to_results(self) -> list[CheckResult]:
        new = {id(f) for f in self.new_findings}
        return [
            f.to_result("new" if id(f) in new else "unchanged")
            for f in self.findings
        ]


# -- baseline ---------------------------------------------------------------


def load_baseline(path: str | Path) -> dict[str, int]:
    """Read a baseline file into fingerprint -> allowed count."""
    p = Path(path)
    if not p.exists():
        raise CheckInputError(
            f"flow baseline not found: {p} (run with --bless to create it)"
        )
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckInputError(f"unreadable flow baseline {p}: {exc}") from exc
    counts = doc.get("fingerprints", {})
    if not isinstance(counts, dict):
        raise CheckInputError(f"malformed flow baseline {p}: 'fingerprints' not a map")
    return {str(k): int(v) for k, v in sorted(counts.items())}


def write_baseline(path: str | Path, findings: list[FlowFinding]) -> Path:  # repro: obs-flush
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
    doc = {
        "tool": TOOL_NAME,
        "version": 1,
        "fingerprints": dict(sorted(counts.items())),
    }
    p = Path(path)
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return p


def partition_findings(
    findings: list[FlowFinding], baseline: dict[str, int] | None
) -> list[FlowFinding]:
    """Findings beyond the baselined count per fingerprint, in order."""
    if baseline is None:
        return list(findings)
    remaining = dict(baseline)
    new: list[FlowFinding] = []
    for finding in findings:
        left = remaining.get(finding.fingerprint, 0)
        if left > 0:
            remaining[finding.fingerprint] = left - 1
        else:
            new.append(finding)
    return new


# -- driver -----------------------------------------------------------------


def _relpath(path: str) -> str:
    """Repo-relative POSIX path when possible (stable across machines)."""
    p = Path(path)
    try:
        return p.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return p.as_posix()


def _findings_from_hits(hits: list[SinkHit]) -> list[FlowFinding]:
    best: dict[tuple, FlowFinding] = {}
    for hit in hits:
        taint = hit.taint
        witness = tuple(
            FlowStep(_relpath(s.path), s.line, s.note) for s in taint.trace
        )
        finding = FlowFinding(
            rule_id=KIND_RULES[taint.kind],
            path=_relpath(hit.path),
            line=hit.line,
            col=hit.col,
            source_kind=taint.kind,
            source_desc=_NOTE_RE.sub("", taint.origin.note),
            source_path=_relpath(taint.origin.path),
            source_line=taint.origin.line,
            sink_label=hit.sink_label,
            sink_desc=hit.sink_desc,
            witness=witness,
        )
        key = (
            finding.rule_id,
            finding.path,
            finding.line,
            finding.col,
            finding.source_path,
            finding.source_line,
            finding.source_desc,
            finding.sink_desc,
        )
        cur = best.get(key)
        if cur is None or len(finding.witness) < len(cur.witness):
            best[key] = finding
    return sorted(best.values(), key=lambda f: f.sort_key())


def run_flow_sources(
    sources: dict[str, str], baseline: dict[str, int] | None = None
) -> FlowReport:
    """Analyze ``{path: source}`` (the testable core)."""
    graph = build_callgraph(sources)
    _, hits = analyze(graph)
    findings = _findings_from_hits(hits)
    new = partition_findings(findings, baseline)
    report = FlowReport(
        findings=findings,
        files_checked=len(sources),
        functions_analyzed=len(graph.functions),
        unresolved_calls=len(graph.unresolved),
        new_findings=new,
        stale_baseline=sum((baseline or {}).values()) - (len(findings) - len(new)),
    )
    return report


def run_flow(paths, baseline: dict[str, int] | None = None) -> FlowReport:
    """Analyze every python file under ``paths`` against the baseline."""
    from repro.check.lint import iter_python_files, read_source

    sources = {
        str(path): read_source(path) for path in iter_python_files(paths)
    }
    return run_flow_sources(sources, baseline=baseline)
