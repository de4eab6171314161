"""Interprocedural nondeterminism taint tracking.

**Sources** are expressions whose value depends on something outside the
(model, seed, ticks) triple: host-clock reads, unseeded global RNG
draws, environment/filesystem-order reads, unordered ``set``/``dict``
view iteration, and ``id()``/``hash()`` of objects.  **Sinks** are the
rank-visible boundaries where such a value would poison the headline
byte-identity claim: mailbox/collective sends, checkpoint capture,
metric/trace emission, and report writers.  Both are the rows of
:mod:`repro.check.policy`, shared with the lint.  **Sanitizers** kill taint in
between: ``sorted()`` pins an order, ``util.hostclock.host_perf_counter``
is the audited host-clock accessor, explicitly seeded streams are not
sources at all, functions marked ``# repro: obs-flush`` are the declared
observation boundary, and a ``# repro: allow[...]`` lint suppression at
a source site documents why that site is deterministic.

The engine runs in two phases over the call graph:

1. a **summary fixpoint** — for every function, which parameters flow
   to its return value, which source taints it may return, and which
   parameters reach a sink inside it (transitively);
2. a **reporting pass** — re-analyze each function with the stable
   summaries and emit a finding for every concrete source→sink flow,
   carrying the full witness path.

Both phases walk functions in sorted-qualname order and keep taint sets
normalized, so repeated runs are byte-identical.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check import policy
from repro.check.flow.callgraph import CallGraph, FunctionInfo
from repro.check.flow.cfg import BasicBlock, build_cfg, fixpoint
from repro.check.frontend import attr_chain

#: Longest witness path kept; extensions past this are dropped (keeping
#: the taint itself) so recursive call chains still reach a fixpoint.
MAX_TRACE = 10

#: The audited host-clock accessor — calling it is sanctioned (HOST-ONLY
#: measurement contract, see util/hostclock.py), so it seeds no taint.
_SANITIZER_FUNCS = frozenset({"repro.util.hostclock.host_perf_counter"})
_SANITIZER_NAMES = frozenset({"host_perf_counter"})

#: Builtins that launder nothing but also carry no payload forward.
_CLEAN_BUILTINS = frozenset({"len", "isinstance", "hasattr", "callable", "range"})

#: Source kind -> FLOW rule id.
KIND_RULES = {
    "host-clock": "FLOW201",
    "rng": "FLOW202",
    "env": "FLOW203",
    "fs-order": "FLOW203",
    "order": "FLOW204",
    "ident": "FLOW205",
}

#: A lint suppression at the source site that documents determinism also
#: kills the flow taint (the reason given there covers the whole flow):
#: kind -> the FLOW rule and every DET rule that flags a site of it.
_SOURCE_SITE_RULES = {
    kind: {flow_rule}
    | {row.lint for row in policy.SOURCES if row.kind == kind and row.lint}
    for kind, flow_rule in KIND_RULES.items()
}


# --------------------------------------------------------------------------
# Taint values
# --------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Step:
    """One hop of a witness path."""

    path: str
    line: int
    note: str


@dataclass(frozen=True, order=True)
class Taint:
    """A tainted value: either a concrete source or a parameter symbol."""

    kind: str  #: source kind, or "param"
    param: str  #: parameter name when kind == "param", else ""
    origin: Step
    trace: tuple[Step, ...] = ()

    @property
    def key(self):
        return (self.kind, self.param, self.origin)

    def extend(self, *steps: Step) -> "Taint":
        if len(self.trace) + len(steps) > MAX_TRACE:
            return self
        return Taint(self.kind, self.param, self.origin, self.trace + steps)


def _norm(taints) -> frozenset[Taint]:
    """Deduplicate by source identity, keeping the shortest witness —
    bounded sets keep the interprocedural fixpoint convergent."""
    best: dict = {}
    for t in taints:
        cur = best.get(t.key)
        if cur is None or (len(t.trace), t.trace) < (len(cur.trace), cur.trace):
            best[t.key] = t
    return frozenset(best.values())


@dataclass(frozen=True, order=True)  # ordered: reports sort hits
class SinkHit:
    """A tainted value reaching a sink call."""

    taint: Taint
    sink_label: str
    sink_desc: str  #: e.g. ".isend()"
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class Summary:
    """What a function does with taint, as seen from its callers."""

    returns: frozenset[Taint] = frozenset()
    sink_hits: frozenset[SinkHit] = frozenset()


_EMPTY_SUMMARY = Summary()


# --------------------------------------------------------------------------
# The per-function analyzer
# --------------------------------------------------------------------------

Env = dict  #: variable name -> frozenset[Taint]


def _join_env(a: Env, b: Env) -> Env:
    out = dict(a)
    for name in sorted(b):
        if name in out:
            out[name] = _norm(out[name] | b[name])
        else:
            out[name] = b[name]
    return out


class _Analyzer:
    """Runs the CFG fixpoint for one function against current summaries."""

    def __init__(
        self,
        graph: CallGraph,
        func: FunctionInfo,
        summaries: dict[str, Summary],
    ) -> None:
        self.graph = graph
        self.func = func
        self.ctx = graph.modules[func.module]
        self.summaries = summaries
        self.returns: set[Taint] = set()
        self.hits: set[SinkHit] = set()

    # -- helpers -----------------------------------------------------------

    def _source(self, node: ast.AST) -> frozenset[Taint] | None:
        """Fresh taint when ``node`` is a site of a flow source row (none
        when the site is suppressed); None when it is no site at all."""
        hit = policy.match_source(self.ctx, node)
        if hit is None or hit[0].kind is None:
            return None
        kind, line = hit[0].kind, getattr(node, "lineno", 0)
        if any(self.ctx.suppressed(r, line) for r in _SOURCE_SITE_RULES[kind]):
            return frozenset()
        origin = Step(self.func.path, line, f"source[{kind}] {hit[1]}")
        return frozenset({Taint(kind, "", origin, (origin,))})

    # -- expression evaluation ---------------------------------------------

    def eval(self, node: ast.AST, env: Env) -> frozenset[Taint]:
        if node is None:
            return frozenset()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        # Default: union of child expression taints.
        out: set[Taint] = set()
        for child in ast.iter_child_nodes(node):
            out |= self.eval(child, env)
        return _norm(out)

    def _eval_Constant(self, node, env):
        return frozenset()

    def _eval_Name(self, node, env):
        if node.id in env:
            return env[node.id]
        return self._source(node) or frozenset()

    def _eval_Attribute(self, node, env):
        source = self._source(node)
        if source is not None:
            return source
        chain = attr_chain(node)
        if chain and chain[0] == "self" and len(chain) == 2:
            return env.get(f"self.{chain[1]}", frozenset())
        return self.eval(node.value, env)

    def _eval_Subscript(self, node, env):
        return _norm(self.eval(node.value, env) | self.eval(node.slice, env))

    def _eval_Set(self, node, env):
        inner = set()
        for elt in node.elts:
            inner |= self.eval(elt, env)
        return _norm(inner | self._source(node))

    def _eval_SetComp(self, node, env):
        return _norm(self._comp(node, env) | self._source(node))

    def _eval_ListComp(self, node, env):
        return self._comp(node, env)

    def _eval_GeneratorExp(self, node, env):
        return self._comp(node, env)

    def _eval_DictComp(self, node, env):
        return self._comp(node, env, dict_comp=True)

    def _comp(self, node, env, dict_comp: bool = False) -> frozenset[Taint]:
        scope = dict(env)
        out: set[Taint] = set()
        for gen in node.generators:
            # Iterating a set or dict view carries its order taint.
            self._bind(gen.target, self.eval(gen.iter, scope), scope)
            for cond in gen.ifs:
                self.eval(cond, scope)
        if dict_comp:
            out |= self.eval(node.key, scope) | self.eval(node.value, scope)
        else:
            out |= self.eval(node.elt, scope)
        return _norm(out)

    def _eval_Lambda(self, node, env):
        return frozenset()

    def _eval_Call(self, node: ast.Call, env: Env) -> frozenset[Taint]:
        func = node.func
        # sorted() pins an order AND is treated as the universal flow
        # sanitizer (args are still scanned for nested sink calls).
        if policy.pins_order(node):
            for arg in node.args:
                self.eval(arg, env)
            return frozenset()
        if self.ctx.qualify(func) in _SANITIZER_FUNCS or (
            isinstance(func, ast.Name) and func.id in _SANITIZER_NAMES
        ):
            return frozenset()

        arg_taints = [self.eval(a, env) for a in node.args]
        kw_taints = [(kw.arg, self.eval(kw.value, env)) for kw in node.keywords]
        recv_taint = (
            self.eval(func.value, env)
            if isinstance(func, ast.Attribute)
            else frozenset()
        )
        all_args = _norm(
            set().union(frozenset(), *arg_taints, *(t for _, t in kw_taints))
        )

        source = self._source(node)
        if source is not None:
            return source

        self._check_sink(node, arg_taints, kw_taints)

        callee = self.graph.resolve(node, self.func)
        if callee is not None:
            return self._apply_summary(node, callee, arg_taints, kw_taints)

        if isinstance(func, ast.Name) and func.id in _CLEAN_BUILTINS:
            return frozenset()
        # Unresolved calls propagate argument + receiver taint: `str(t)`,
        # `copy.deepcopy(t)`, `t.total_seconds()` all stay tainted.
        return _norm(all_args | recv_taint)

    def _check_sink(self, node: ast.Call, arg_taints, kw_taints) -> None:
        if self.func.is_flush:
            return  # declared observation boundary: flows here are audited
        hit = policy.match_sink(self.ctx, node)
        if hit is None:
            return
        label, desc = hit[0].label, hit[1]
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        sink_step = Step(self.func.path, line, f"argument to {desc} [{label}]")
        for taints in list(arg_taints) + [t for _, t in kw_taints]:
            for taint in taints:
                self.hits.add(
                    SinkHit(
                        taint=taint.extend(sink_step),
                        sink_label=label,
                        sink_desc=desc,
                        path=self.func.path,
                        line=line,
                        col=col,
                    )
                )

    def _apply_summary(
        self, node: ast.Call, callee: FunctionInfo, arg_taints, kw_taints
    ) -> frozenset[Taint]:
        summary = self.summaries.get(callee.qualname, _EMPTY_SUMMARY)
        line = getattr(node, "lineno", 0)
        # Map call arguments onto callee parameter names.
        params = list(callee.params)
        if (
            params
            and params[0] in ("self", "cls")
            and isinstance(node.func, ast.Attribute)
        ):
            params = params[1:]
        by_param: dict[str, frozenset[Taint]] = {}
        for i, taints in enumerate(arg_taints):
            if i < len(params):
                by_param[params[i]] = taints
        for name, taints in kw_taints:
            if name is not None:
                by_param[name] = taints

        short = callee.qualname.split(".", 1)[-1]
        out: set[Taint] = set()
        call_step = Step(self.func.path, line, f"call {short}()")
        for taint in summary.returns:
            if taint.kind == "param":
                for arg_taint in by_param.get(taint.param, frozenset()):
                    out.add(
                        arg_taint.extend(
                            Step(
                                self.func.path,
                                line,
                                f"argument '{taint.param}' into {short}()",
                            ),
                            *taint.trace,
                        )
                    )
            else:
                out.add(
                    taint.extend(
                        Step(self.func.path, line, f"returned by {short}()")
                    )
                )
        if not self.func.is_flush and not callee.is_flush:
            for hit in summary.sink_hits:
                if hit.taint.kind != "param":
                    continue  # concrete flows are reported inside the callee
                for arg_taint in by_param.get(hit.taint.param, frozenset()):
                    self.hits.add(
                        SinkHit(
                            taint=arg_taint.extend(call_step, *hit.taint.trace),
                            sink_label=hit.sink_label,
                            sink_desc=hit.sink_desc,
                            path=hit.path,
                            line=hit.line,
                            col=hit.col,
                        )
                    )
        return _norm(out)

    # -- statement transfer --------------------------------------------------

    def _bind(self, target: ast.AST, taints: frozenset[Taint], env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taints
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taints, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taints, env)
        elif isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                env[f"self.{chain[1]}"] = taints
        elif isinstance(target, ast.Subscript):
            # t[k] = tainted: conservatively taint the container variable.
            base = target.value
            existing = self.eval(base, env)
            self._bind(base, _norm(existing | taints), env)

    def transfer(self, block: BasicBlock, env_in: Env) -> Env:
        env = dict(env_in)
        for stmt in block.stmts:
            self._transfer_stmt(stmt, env)
        return env

    def _transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, taints, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            taints = self.eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                existing = env.get(stmt.target.id, frozenset())
                env[stmt.target.id] = _norm(existing | taints)
            else:
                self._bind(stmt.target, taints, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.eval(stmt.iter, env), env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                ret = self.eval(stmt.value, env)
                line = getattr(stmt, "lineno", 0)
                for taint in ret:
                    self.returns.add(
                        taint.extend(Step(self.func.path, line, "returned"))
                    )
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Import/Global/Nonlocal/Pass: no taint effect.

    # -- driver --------------------------------------------------------------

    def run(self) -> Summary:
        env0: Env = {}
        for param in self.func.params:
            origin = Step(
                self.func.path, self.func.lineno, f"parameter '{param}'"
            )
            env0[param] = frozenset({Taint("param", param, origin)})
        cfg = build_cfg(self.func.body)
        fixpoint(cfg, env0, self.transfer, _join_env)
        return Summary(
            returns=_norm(self.returns), sink_hits=frozenset(self.hits)
        )


# --------------------------------------------------------------------------
# Interprocedural driver
# --------------------------------------------------------------------------

#: Passes over the call graph before giving up on convergence; deep call
#: chains converge in (depth + 1) passes, and MAX_TRACE bounds the rest.
MAX_PASSES = 12


def analyze(graph: CallGraph) -> tuple[dict[str, Summary], list[SinkHit]]:
    """Run the two-phase analysis; returns (summaries, concrete hits)."""
    summaries: dict[str, Summary] = {}
    for _ in range(MAX_PASSES):
        changed = False
        for func in graph.sorted_functions():
            summary = _Analyzer(graph, func, summaries).run()
            if summaries.get(func.qualname) != summary:
                summaries[func.qualname] = summary
                changed = True
        if not changed:
            break
    hits: list[SinkHit] = []
    for func in graph.sorted_functions():
        summary = summaries.get(func.qualname, _EMPTY_SUMMARY)
        for hit in sorted(summary.sink_hits):
            if hit.taint.kind == "param":
                continue  # only meaningful through a tainted caller
            rule = KIND_RULES[hit.taint.kind]
            if graph.modules[func.module].suppressed(rule, hit.line):
                continue
            hits.append(hit)
    return summaries, hits
