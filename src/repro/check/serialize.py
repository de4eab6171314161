"""Shared machine-readable output for the checkers.

``repro check lint``, ``repro check races``, and ``repro check flow``
all speak the same two formats through :func:`render`, so one CI
consumer handles every checker:

* ``text`` — each checker's own human format (the default);
* ``json`` — a stable envelope ``{"tool", "version", "summary",
  "findings"}`` with findings sorted and keys sorted, so repeated runs
  of a deterministic checker are byte-identical.

Findings are normalized into :class:`CheckResult` records first; the
serializer only ever sees those, which is what keeps the three checkers'
output shapes identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.version import __version__

#: Output format names accepted by the ``--format`` CLI flag.
FORMATS = ("text", "json")


@dataclass(frozen=True)
class FlowStep:
    """One hop of a witness path."""

    path: str
    line: int
    note: str

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class CheckResult:
    """One normalized finding from any checker."""

    rule_id: str
    message: str
    path: str = ""
    line: int = 0
    col: int = 0
    level: str = "error"
    flow: tuple[FlowStep, ...] = ()
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
        for key, value in self.extra:
            doc[key] = value
        return doc


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
    # Sorted keys, fixed separators, newline at EOF: byte-identical
    # output for identical findings.
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render(
    fmt: str,
    tool: str,
    results: list[CheckResult],
    summary: dict,
    text: str,
) -> str:
    """One checker's findings in the ``--format`` asked for.

    ``text`` is the checker's own human format; ``summary`` goes into
    the JSON envelope.
    """
    if fmt == "json":
        return to_json(tool, results, summary=summary)
    return text


# -- adapters for the existing checkers -------------------------------------


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
