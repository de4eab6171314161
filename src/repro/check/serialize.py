"""Shared machine-readable output for the checkers (JSON + SARIF 2.1.0).

``repro check lint``, ``repro check races``, and ``repro check flow``
all speak the same three formats through :func:`render`, so one CI
consumer handles every checker:

* ``text`` — each checker's existing human format (unchanged default);
* ``json`` — a stable envelope ``{"tool", "version", "summary",
  "findings"}`` with findings sorted and keys sorted, so repeated runs
  of a deterministic checker are byte-identical;
* ``sarif`` — SARIF 2.1.0 (the GitHub code-scanning / IDE interchange
  format), with witness paths rendered as ``codeFlows`` and baseline
  status as ``baselineState``.

Findings are normalized into :class:`CheckResult` records first; the
serializers only ever see those, which is what keeps the three checkers'
output shapes identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.version import __version__

#: Output format names accepted by the ``--format`` CLI flag.
FORMATS = ("text", "json", "sarif")

_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_INFO_URI = "https://github.com/compass-repro/compass-repro"


@dataclass(frozen=True)
class FlowStep:
    """One hop of a witness path, for SARIF codeFlows."""

    path: str
    line: int
    note: str

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class RuleMeta:
    """Metadata for one rule id, for the SARIF driver block."""

    rule_id: str
    name: str
    short_description: str


@dataclass(frozen=True)
class CheckResult:
    """One normalized finding from any checker."""

    rule_id: str
    message: str
    path: str = ""
    line: int = 0
    col: int = 0
    level: str = "error"  #: SARIF level: error | warning | note
    flow: tuple[FlowStep, ...] = ()
    fingerprint: str = ""
    baseline_state: str = ""  #: "" | "new" | "unchanged"
    extra: tuple[tuple[str, object], ...] = field(default=())

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def to_dict(self) -> dict:
        doc: dict = {
            "rule": self.rule_id,
            "level": self.level,
            "message": self.message,
        }
        if self.path:
            doc["path"] = self.path
            doc["line"] = self.line
            doc["col"] = self.col
        if self.flow:
            doc["witness"] = [s.to_dict() for s in self.flow]
        if self.fingerprint:
            doc["fingerprint"] = self.fingerprint
        if self.baseline_state:
            doc["baseline"] = self.baseline_state
        for key, value in self.extra:
            doc[key] = value
        return doc


def _dumps(doc: dict) -> str:
    """The one JSON encoder: sorted keys, fixed separators, newline at
    EOF — byte-identical output for identical findings."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_json(
    tool: str,
    results: list[CheckResult],
    summary: dict | None = None,
) -> str:
    ordered = sorted(results, key=lambda r: r.sort_key())
    doc = {
        "tool": tool,
        "version": __version__,
        "summary": dict(summary or {}),
        "findings": [r.to_dict() for r in ordered],
    }
    doc["summary"].setdefault("findings", len(ordered))
    return _dumps(doc)


def _sarif_location(path: str, line: int, col: int, note: str = "") -> dict:
    loc: dict = {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {
                "startLine": max(line, 1),
                "startColumn": max(col, 0) + 1,
            },
        }
    }
    if note:
        loc["message"] = {"text": note}
    return loc


def to_sarif(
    tool: str,
    rules: list[RuleMeta],
    results: list[CheckResult],
) -> str:
    ordered = sorted(results, key=lambda r: r.sort_key())
    used = {r.rule_id for r in ordered}
    driver_rules = [
        {
            "id": meta.rule_id,
            "name": meta.name,
            "shortDescription": {"text": meta.short_description},
        }
        for meta in sorted(rules, key=lambda m: m.rule_id)
        if meta.rule_id in used
    ]
    sarif_results = []
    for r in ordered:
        entry: dict = {
            "ruleId": r.rule_id,
            "level": r.level,
            "message": {"text": r.message},
        }
        if r.path:
            entry["locations"] = [_sarif_location(r.path, r.line, r.col)]
        if r.fingerprint:
            entry["partialFingerprints"] = {"reproFlow/v1": r.fingerprint}
        if r.baseline_state:
            entry["baselineState"] = r.baseline_state
        if r.flow:
            entry["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {
                                    "location": _sarif_location(
                                        s.path, s.line, 0, s.note
                                    )
                                }
                                for s in r.flow
                            ]
                        }
                    ]
                }
            ]
        sarif_results.append(entry)
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "version": __version__,
                        "informationUri": _INFO_URI,
                        "rules": driver_rules,
                    }
                },
                "results": sarif_results,
            }
        ],
    }
    return _dumps(doc)


def render(
    fmt: str,
    tool: str,
    rules: list[RuleMeta],
    results: list[CheckResult],
    summary: dict,
    text: str,
) -> str:
    """One checker's findings in the ``--format`` asked for.

    ``text`` is the checker's own human format; ``summary`` goes into
    the JSON envelope, ``rules`` into the SARIF driver block.
    """
    if fmt == "json":
        return to_json(tool, results, summary=summary)
    if fmt == "sarif":
        return to_sarif(tool, rules, results)
    return text


# -- adapters for the existing checkers -------------------------------------


def lint_rule_metas() -> list[RuleMeta]:
    from repro.check.rules import all_rules

    metas = [
        RuleMeta(rule.rule_id, type(rule).__name__, rule.title)
        for rule in all_rules()
    ]
    metas.append(
        RuleMeta("DET100", "SyntaxErrorRule", "file does not parse")
    )
    return metas


def lint_results(violations) -> list[CheckResult]:
    """Normalize :class:`repro.check.rules.base.Violation` records."""
    return [
        CheckResult(
            rule_id=v.rule_id,
            message=v.message,
            path=v.path,
            line=v.line,
            col=v.col,
        )
        for v in violations
    ]


RACE_RULES = [
    RuleMeta(
        "RACE100",
        "WildcardReceive",
        "wildcard receive with concurrent pending messages",
    ),
    RuleMeta(
        "RACE101",
        "SharedBufferConflict",
        "unsynchronized conflicting shared-buffer accesses",
    ),
]

_RACE_RULE_IDS = {"wildcard-recv": "RACE100", "shared-buffer": "RACE101"}


def race_results(report) -> list[CheckResult]:
    """Normalize a :class:`repro.check.races.RaceReport`.

    Races are execution findings, not source findings: they carry the
    vector-clock witness in the message and no file location.
    """
    results = []
    for race in report.races:
        witness = "; ".join(
            f"{label} {sorted(race.witness[label].items())}"
            for label in sorted(race.witness)
        )
        results.append(
            CheckResult(
                rule_id=_RACE_RULE_IDS.get(race.kind, "RACE100"),
                message=f"{race.detail} [witness: {witness}]",
                extra=(("actors", list(race.actors)), ("kind", race.kind)),
            )
        )
    return results
