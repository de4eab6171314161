"""Project-wide call-graph resolution from the AST.

The flow engine is *interprocedural*: a helper in ``apps/`` that reads
the host clock and returns the value must taint its callers.  That needs
a call graph, and building one for Python from the AST alone is
necessarily approximate — so this module is explicit about what it can
resolve and records everything it cannot (:attr:`CallGraph.unresolved`)
instead of silently dropping it.

Resolved call shapes:

* ``name(...)`` — a function defined in the same module, or a name bound
  by ``from mod import name`` when ``mod.name`` is a parsed function;
* ``self.method(...)`` — a method of the enclosing class;
* ``mod.attr(...)`` / ``pkg.mod.attr(...)`` — through ``import`` /
  ``import ... as`` / ``from pkg import mod`` aliases, including
  relative imports, when the target function was parsed.

Everything else (dynamic dispatch, calls through containers, methods on
non-``self`` receivers) lands in ``unresolved`` with its call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.frontend import ModuleContext, attr_chain
from repro.check.policy import OBS_FLUSH

#: Synthetic function name for a module's top-level statements.
MODULE_BODY = "<module>"


@dataclass
class FunctionInfo:
    """One parsed function (or module body) the engine can analyze."""

    qualname: str  #: e.g. ``repro.core.simulator.Compass.run``
    module: str
    path: str
    node: ast.AST  #: FunctionDef / AsyncFunctionDef, or Module for <module>
    params: tuple[str, ...] = ()
    class_name: str | None = None
    is_flush: bool = False  #: marked ``# repro: obs-flush``

    @property
    def body(self) -> list[ast.stmt]:
        if isinstance(self.node, ast.Module):
            # Top-level statements only; nested defs are their own entries.
            return [
                s
                for s in self.node.body
                if not isinstance(
                    s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
        return self.node.body

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass(frozen=True)
class UnresolvedCall:
    """A call site the resolver could not bind to a parsed function."""

    caller: str
    name: str
    path: str
    line: int


class CallGraph:
    """All parsed functions plus the machinery to resolve call sites."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.modules: dict[str, ModuleContext] = {}
        self.unresolved: list[UnresolvedCall] = []
        self._seen_unresolved: set[UnresolvedCall] = set()

    # -- construction ------------------------------------------------------

    def add_module(self, ctx: ModuleContext) -> None:
        module = ctx.module
        self.modules[module] = ctx
        self.functions[f"{module}.{MODULE_BODY}"] = FunctionInfo(
            qualname=f"{module}.{MODULE_BODY}",
            module=module,
            path=ctx.path,
            node=ctx.tree,
        )
        self._collect_functions(ctx.tree, ctx, prefix=module, class_name=None)

    def _collect_functions(
        self,
        node: ast.AST,
        ctx: ModuleContext,
        prefix: str,
        class_name: str | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                args = child.args
                params = tuple(
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                )
                self.functions.setdefault(
                    qualname,
                    FunctionInfo(
                        qualname=qualname,
                        module=ctx.module,
                        path=ctx.path,
                        node=child,
                        params=params,
                        class_name=class_name,
                        is_flush=ctx.marked(child, OBS_FLUSH),
                    ),
                )
                # Nested defs resolve only through their own qualname,
                # which bare-name calls never produce — by design: a
                # closure's taint environment is not modelled.
                self._collect_functions(
                    child, ctx, prefix=qualname, class_name=class_name
                )
            elif isinstance(child, ast.ClassDef):
                self._collect_functions(
                    child,
                    ctx,
                    prefix=f"{prefix}.{child.name}",
                    class_name=child.name,
                )

    # -- queries -----------------------------------------------------------

    def resolve(self, call: ast.Call, caller: FunctionInfo) -> FunctionInfo | None:
        """Bind a call site to a parsed function, or record it unresolved."""
        func = call.func
        qualified = self.modules[caller.module].qualify(func)
        target: str | None = None
        if isinstance(func, ast.Name):
            for candidate in (qualified, f"{caller.module}.{func.id}"):
                if candidate in self.functions:
                    target = candidate
                    break
        elif isinstance(func, ast.Attribute):
            chain = attr_chain(func)
            if chain and chain[0] == "self" and caller.class_name and len(chain) == 2:
                candidate = f"{caller.module}.{caller.class_name}.{chain[1]}"
                if candidate in self.functions:
                    target = candidate
            if target is None and qualified in self.functions:
                target = qualified
        if target is not None:
            return self.functions[target]
        name = ".".join(attr_chain(func)) or "<dynamic>"
        record = UnresolvedCall(
            caller=caller.qualname,
            name=name,
            path=caller.path,
            line=getattr(call, "lineno", 0),
        )
        if record not in self._seen_unresolved:
            self._seen_unresolved.add(record)
            self.unresolved.append(record)
        return None

    def sorted_functions(self) -> list[FunctionInfo]:
        """Deterministic iteration order for the fixpoint passes."""
        return [self.functions[q] for q in sorted(self.functions)]


def build_callgraph(sources: dict[str, str]) -> CallGraph:
    """Parse ``{path: source}`` into a call graph; syntax errors are
    skipped here (the lint engine reports them as DET100)."""
    graph = CallGraph()
    for path in sorted(sources):
        try:
            ctx = ModuleContext.from_source(path, sources[path])
        except SyntaxError:
            continue
        graph.add_module(ctx)
    return graph
