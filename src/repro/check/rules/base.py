"""Lint-rule infrastructure: violations, suppression, and the registry.

A rule is a small class that inspects one module's AST and yields
:class:`Violation` records.  Rules are registered with :func:`register`
so the engine (and the CLI's ``--rule`` filter) can enumerate them by
stable rule id.

Suppression
-----------
A violation is suppressed by a comment on the offending line::

    for name in table.values():  # repro: allow[DET103] layout-ordered

or, for wrapped expressions, on the line immediately above the
offending construct::

    # repro: allow[DET103] table is insertion-ordered by construction
    sizes = [hi - lo for (lo, hi) in table.values()]

The marker must name the rule id explicitly — there is no blanket
"allow everything" form, so each suppression documents exactly which
discipline it opts out of.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.errors import CheckInputError

#: Matches ``# repro: allow[DET103]`` (optionally followed by a reason).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z]+\d+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class ModuleContext:
    """Everything a rule may need to know about the module under check."""

    path: str
    source: str
    tree: ast.Module
    #: True when the module is on a simulation path whose behaviour is
    #: observable across ranks (runtime, core, compiler, arch, cocomac).
    rank_visible: bool = True
    #: line number -> set of rule ids suppressed on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str, rank_visible: bool = True) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        suppressions: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            for match in _SUPPRESS_RE.finditer(text):
                suppressions.setdefault(lineno, set()).add(match.group(1))
        return cls(
            path=path,
            source=source,
            tree=tree,
            rank_visible=rank_visible,
            suppressions=suppressions,
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Suppressed on the offending line or the line just above it."""
        return rule_id in self.suppressions.get(
            line, set()
        ) or rule_id in self.suppressions.get(line - 1, set())


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` / ``title`` / ``rationale`` and implement
    :meth:`check`, yielding violations.  ``rank_visible_only`` restricts
    a rule to simulation-path modules.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    rank_visible_only: bool = False

    def check(self, ctx: ModuleContext):
        raise NotImplementedError

    def run(self, ctx: ModuleContext) -> list[Violation]:
        if self.rank_visible_only and not ctx.rank_visible:
            return []
        return [
            v for v in self.check(ctx) if not ctx.suppressed(v.rule_id, v.line)
        ]

    def violation(self, ctx: ModuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: Stable registry: rule id -> rule class, in definition order.
_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in _REGISTRY.values()]


def rules_by_id(ids) -> list[Rule]:
    missing = [i for i in ids if i not in _REGISTRY]
    if missing:
        known = ", ".join(sorted(_REGISTRY))
        raise CheckInputError(f"unknown rule ids {missing}; known: {known}")
    return [_REGISTRY[i]() for i in ids]
