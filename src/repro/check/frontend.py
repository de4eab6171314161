"""The module front end shared by the lint and flow engines.

Both static checkers ask the same questions of a source file before any
rule runs: what does it parse to, which lines carry a
``# repro: allow[DET103]`` suppression, is this ``def`` marked
``# repro: obs-flush``, and is ``np.random.rand`` really
``numpy.random.rand``?  :class:`ModuleContext` answers each of them
once, so the two engines cannot disagree about a module.

Suppression
-----------
A finding is suppressed by a comment on the offending line::

    for name in table.values():  # repro: allow[DET103] layout-ordered

or, for wrapped expressions, on the line immediately above the
offending construct::

    # repro: allow[DET103] table is insertion-ordered by construction
    sizes = [hi - lo for (lo, hi) in table.values()]

The comment must name the rule id explicitly — there is no blanket
"allow everything" form, so each suppression documents exactly which
discipline it opts out of.

Names
-----
:meth:`ModuleContext.qualify` expands a dotted expression through the
module's imports (``import m``, ``import m as a``, ``from m import f``,
``from m import f as g``, ``from pkg import m``, relative forms).  A
head name counts as a module only when an import binds it: a parameter
called ``time`` is not the ``time`` module, and qualifies to nothing.
The table is per module, not per scope — an import inside a function
binds the name for the whole file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Matches ``# repro: allow[DET103]`` (optionally followed by a reason).
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z]+\d+)\]")

#: Matches the name in ``# repro: obs-flush``.
_MARKER_RE = re.compile(r"#\s*repro:\s*([a-z]+(?:-[a-z]+)*)")


def attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when the base is not a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    Paths inside a ``repro`` package map to their real dotted name so
    cross-module imports resolve; anything else uses the file stem.
    """
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro":
            tail = list(parts[i:])
            tail[-1] = Path(tail[-1]).stem
            if tail[-1] == "__init__":
                tail.pop()
            return ".".join(tail)
    return Path(path).stem


def _import_aliases(tree: ast.Module, package: str) -> dict[str, str]:
    """Local name -> fully qualified dotted target ("numpy", "time.sleep",
    "repro.core.checkpoint", ...) for every import in a module of
    ``package``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: one dot is this package, each further
                # dot its parent.
                parts = package.split(".") if package else []
                parts = parts[: max(len(parts) - node.level + 1, 0)]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


@dataclass
class ModuleContext:
    """Everything either engine may ask about the module under check."""

    path: str
    source: str
    tree: ast.Module
    #: True when the module is on a simulation path whose behaviour is
    #: observable across ranks (runtime, core, compiler, arch, cocomac).
    rank_visible: bool = True
    #: Dotted module name (``repro.core.simulator``; the stem elsewhere).
    module: str = ""
    lines: list[str] = field(default_factory=list)
    #: line number -> set of rule ids suppressed on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: local name -> fully qualified dotted import target.
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str, rank_visible: bool = True) -> "ModuleContext":
        """Parse one module; a file that does not parse raises SyntaxError."""
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        suppressions: dict[int, set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            for match in _ALLOW_RE.finditer(text):
                suppressions.setdefault(lineno, set()).add(match.group(1))
        module = module_name_for(path)
        is_package = Path(path).stem == "__init__"
        return cls(
            path=path,
            source=source,
            tree=tree,
            rank_visible=rank_visible,
            module=module,
            lines=lines,
            suppressions=suppressions,
            aliases=_import_aliases(
                tree, module if is_package else module.rpartition(".")[0]
            ),
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Suppressed on the offending line or the line just above it."""
        return rule_id in self.suppressions.get(
            line, set()
        ) or rule_id in self.suppressions.get(line - 1, set())

    def marked(self, funcdef: ast.AST, marker: str) -> bool:
        """``# repro: <marker>`` on the ``def`` line or the line just above it."""
        for lineno in (funcdef.lineno, funcdef.lineno - 1):
            if 1 <= lineno <= len(self.lines) and marker in _MARKER_RE.findall(
                self.lines[lineno - 1]
            ):
                return True
        return False

    def qualify(self, expr: ast.AST) -> str:
        """Expand a dotted expression through the module's imports
        (``np.random.rand`` -> ``numpy.random.rand``).  Empty string when
        the base is not a name an import binds."""
        chain = attr_chain(expr)
        if not chain or chain[0] not in self.aliases:
            return ""
        return ".".join([self.aliases[chain[0]]] + chain[1:])
