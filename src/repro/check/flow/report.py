"""FLOW findings and the run driver.

A finding is one concrete source→sink flow with its witness path.  The
FLOW rule series mirrors the taint source kinds:

* FLOW201 — host-clock value reaches a rank-visible sink;
* FLOW202 — unseeded global-RNG value reaches a rank-visible sink;
* FLOW203 — environment / filesystem-order value reaches a sink;
* FLOW204 — unordered-iteration (set / dict-view) value reaches a sink;
* FLOW205 — object-identity (``id()`` / ``hash()``) value reaches a sink.

Any finding fails the run.  A flow that is deterministic for a reason
the engine cannot see is accepted where it happens, with a reasoned
``# repro: allow[FLOW204]`` at the source or the sink line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.flow.callgraph import build_callgraph
from repro.check.flow.taint import KIND_RULES, SinkHit, analyze
from repro.check.serialize import CheckResult, FlowStep

TOOL_NAME = "repro.check.flow"

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

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def format(self) -> str:
        lines = [f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"]
        for i, step in enumerate(self.witness, start=1):
            lines.append(f"    {i}. {step.path}:{step.line} {step.note}")
        return "\n".join(lines)

    def to_result(self) -> CheckResult:
        return CheckResult(
            rule_id=self.rule_id,
            message=self.message,
            path=self.path,
            line=self.line,
            col=self.col,
            flow=self.witness,
        )


@dataclass
class FlowReport:
    """Outcome of one flow analysis."""

    findings: list[FlowFinding] = field(default_factory=list)
    files_checked: int = 0
    functions_analyzed: int = 0
    unresolved_calls: int = 0

    @property
    def passed(self) -> bool:
        return not self.findings

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        lines.append(
            f"{len(self.findings)} flow finding(s) in {self.files_checked} "
            f"file(s); {self.functions_analyzed} function(s), "
            f"{self.unresolved_calls} unresolved call(s)"
        )
        return "\n".join(lines)

    def to_results(self) -> list[CheckResult]:
        return [f.to_result() for f in self.findings]


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


def run_flow_sources(sources: dict[str, str]) -> FlowReport:
    """Analyze ``{path: source}`` (the testable core)."""
    graph = build_callgraph(sources)
    _, hits = analyze(graph)
    return FlowReport(
        findings=_findings_from_hits(hits),
        files_checked=len(sources),
        functions_analyzed=len(graph.functions),
        unresolved_calls=len(graph.unresolved),
    )


def run_flow(paths) -> FlowReport:
    """Analyze every python file under ``paths``."""
    from repro.check.lint import iter_python_files, read_source

    return run_flow_sources(
        {str(path): read_source(path) for path in iter_python_files(paths)}
    )
