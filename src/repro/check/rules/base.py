"""Lint-rule infrastructure: violations and the registry.

A rule is a small class that inspects one module's AST and yields
:class:`Violation` records.  Rules are registered with :func:`register`
so the engine (and the CLI's ``--rule`` filter) can enumerate them by
stable rule id.  What a rule may ask about the module — its tree, its
``# repro: allow[...]`` suppressions, its imports — is
:class:`repro.check.frontend.ModuleContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.frontend import ModuleContext
from repro.errors import CheckInputError


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
