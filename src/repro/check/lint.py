"""The lint engine: walk source trees, apply determinism rules, report.

Usage::

    from repro.check.lint import run_lint
    report = run_lint(["src/repro"])
    for v in report.violations:
        print(v.format())

The engine decides per module whether it is **rank-visible** — on a
simulation path whose behaviour any rank can observe (``runtime``,
``core``, ``compiler``, ``arch``, ``cocomac``, ``util``, ``errors``) —
and applies the rules marked ``rank_visible_only`` only there.  Analysis
and reporting layers (``apps``, ``perf``, ``analysis``, the CLI, and
this package itself) get the universal rules (DET104, DET105) only;
DET108 and DET110 scope themselves by directory.
Files outside the ``repro`` package (e.g. lint-rule fixtures in tests)
are treated as rank-visible, i.e. checked at full strictness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.check.frontend import ModuleContext
from repro.check.rules import Rule, Violation, all_rules
from repro.errors import CheckInputError

#: Top-level ``repro`` members whose behaviour is *not* rank-visible:
#: they observe or present results but never feed simulation state.
_NON_RANK_VISIBLE = frozenset(
    {"apps", "perf", "analysis", "check", "cli", "version.py"}
)


def path_is_rank_visible(path: str | Path) -> bool:
    """Classify a module path; unknown paths default to strict (True)."""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            return parts[i + 1] not in _NON_RANK_VISIBLE
    return True


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` call."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        lines.append(
            f"{len(self.violations)} violation(s) in {self.files_checked} file(s)"
        )
        return "\n".join(lines)


def iter_python_files(paths) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises :class:`~repro.errors.CheckInputError` naming the offending
    path when it does not exist or is not a python file or directory.
    """
    found: set[Path] = set()
    for p in paths:
        path = Path(p)
        if not path.exists():
            raise CheckInputError(f"no such file or directory: {path}")
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
        else:
            raise CheckInputError(f"not a python file or directory: {path}")
    return sorted(found)


def read_source(path: Path) -> str:
    """Read one module's source, surfacing decode failures as typed
    errors with the offending path instead of a raw UnicodeDecodeError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CheckInputError(
            f"not valid UTF-8 (byte {exc.start}): {path}"
        ) from exc


def lint_source(
    source: str,
    path: str = "<string>",
    rules: list[Rule] | None = None,
    rank_visible: bool | None = None,
) -> list[Violation]:
    """Lint one module given as a source string (the testable core)."""
    if rank_visible is None:
        rank_visible = path_is_rank_visible(path)
    try:
        ctx = ModuleContext.from_source(path, source, rank_visible=rank_visible)
    except SyntaxError as exc:
        return [
            Violation(
                rule_id="DET100",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    violations: list[Violation] = []
    for rule in rules if rules is not None else all_rules():
        violations.extend(rule.run(ctx))
    return violations


def run_lint(paths, rules: list[Rule] | None = None) -> LintReport:
    """Lint every python file under ``paths`` with the given rules."""
    report = LintReport()
    rules = rules if rules is not None else all_rules()
    for path in iter_python_files(paths):
        report.violations.extend(
            lint_source(read_source(path), str(path), rules=rules)
        )
        report.files_checked += 1
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return report
