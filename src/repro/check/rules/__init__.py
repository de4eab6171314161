"""Lint rules for the determinism sanitizer.

Importing this package registers every rule; :func:`all_rules` then
returns fresh instances.  New rule modules must be imported here to be
picked up by the engine.
"""

from repro.check.rules import determinism  # noqa: F401  (registers rules)
from repro.check.rules.base import (
    Rule,
    Violation,
    all_rules,
    register,
    rules_by_id,
)

__all__ = [
    "Rule",
    "Violation",
    "all_rules",
    "register",
    "rules_by_id",
]
