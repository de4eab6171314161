"""The determinism lint rules (DET101–DET112).

Each rule enforces one discipline that keeps the simulator
bit-deterministic across rank counts and thread interleavings — the
property behind the paper's one-to-one spike correspondence claim:

* DET101 — no wall-clock reads in simulation paths;
* DET102 — no module-level (globally seeded) RNG in simulation paths;
* DET103 — no iteration over unordered ``set`` / ``dict.values()`` /
  ``dict.keys()`` in rank-visible code without ``sorted()``;
* DET104 — no mutable default arguments;
* DET105 — no bare or broad exception handlers;
* DET106 — no host-clock waits or timeouts in recovery/simulation paths
  (``time.sleep``, ``signal.alarm``, socket timeouts, blocking-call
  ``timeout=`` arguments): failure detection and recovery backoff must
  advance on the simulated clock (:mod:`repro.runtime.timing`), or a
  faulted run's result would depend on host scheduling;
* DET107 — no file writes in rank-visible code outside a declared flush
  boundary: exporting is an observation, not a simulation effect, so
  every write must happen inside a function marked ``# repro: obs-flush``
  (on the ``def`` line or the line above) — the discipline that keeps
  tracing/metrics emission side-effect-free on the simulation path;
* DET108 — no nondeterministic scheduling-order sources in the serving
  layers (``repro.serve`` and the ``repro.shard`` fleet tier): heap
  pushes must carry an explicit tuple entry with a monotonic tie-break
  field, and ``dict.items()`` iteration that can feed queue, batch, or
  routing order must be ``sorted()``;
* DET109 — no environment or filesystem-order reads in rank-visible
  paths: ``os.environ`` / ``os.getenv`` values differ between hosts and
  launches, and ``os.listdir`` / ``os.scandir`` / ``Path.iterdir`` /
  ``.glob`` return entries in OS-dependent order — wrap listings in
  ``sorted()`` or suppress with a documented reason;
* DET110 — no implicit-clock telemetry emission in the serving layers
  (``repro.serve``, ``repro.shard``, ``repro.obs.live``): tracer calls
  must pass an explicit simulated timestamp (``ts_us=``), and the
  phase-window emitters (``span``/``begin``/``end``/``tick_summary``),
  whose timestamps come from the tracer's internal per-tick phase
  counters, are banned there outright — serving-layer events live on
  the service's own simulated clock, and an implicit timestamp would
  silently interleave them with core-simulator phase windows;
* DET111 — no profiler introspection in rank-visible code:
  ``tracemalloc`` calls, ``sys._current_frames``, ``sys.settrace`` /
  ``setprofile`` and ``resource.getrusage`` measure the host, and
  nothing in the package has a reason to (host time is read by
  ``python3 -m bench`` from outside; ``docs/profiling.md``);
* DET112 — no host-parallel nondeterminism in rank-visible code:
  ``os.cpu_count()`` / ``multiprocessing.cpu_count()`` reads, the fork
  start method (``get_context("fork")``, ``set_start_method("fork")``,
  ``os.fork``), and argless (host-entropy-seeded) RNG construction — the
  discipline that keeps the :mod:`repro.exec` pool's simulated results
  independent of the machine they ran on.

DET101, DET102, DET103, DET109 and the ``.items()`` half of DET108 carry
no tables of their own: their sites are the source rows of
:mod:`repro.check.policy` that name them, matched on import-resolved
names, and DET107's file writers are that module's ``FILE_WRITERS``.

``time.perf_counter`` is explicitly allowed: host-time measurement is
observational (it feeds metrics, never rank-visible state).  Likewise
``np.random.default_rng`` and friends are allowed — they construct
explicitly seeded generators, which is exactly the discipline DET102
exists to push code towards.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check import policy
from repro.check.frontend import ModuleContext, attr_chain
from repro.check.rules.base import Rule, register


def unsorted_iterables(tree: ast.AST):
    """Every node inside a ``for`` / comprehension iterable, skipping
    subtrees already wrapped in ``sorted()`` (which fixes the order)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            stack = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            stack = [gen.iter for gen in node.generators]
        else:
            continue
        while stack:
            inner = stack.pop()
            if policy.pins_order(inner):
                continue
            yield inner
            stack.extend(ast.iter_child_nodes(inner))


def calls_outside(ctx: ModuleContext, marker: str, node: ast.AST | None = None):
    """Every call not inside a function marked ``# repro: <marker>`` (on
    the ``def`` line or the line above); nested functions inherit it."""
    for child in ast.iter_child_nodes(ctx.tree if node is None else node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ctx.marked(child, marker):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from calls_outside(ctx, marker, child)


class SourceSiteRule(Rule):
    """A rule whose sites are the policy's source rows that name it."""

    rank_visible_only = True

    def check(self, ctx: ModuleContext):
        rows = [
            row
            for row in policy.SOURCES
            if row.lint == self.rule_id and row.in_scope(ctx.path)
        ]
        for position, nodes in (
            (policy.ANYWHERE, ast.walk),
            (policy.ITERABLE, unsorted_iterables),
        ):
            wanted = [row for row in rows if row.position == position]
            if not wanted:
                continue
            for node in nodes(ctx.tree):
                hit = policy.match_source(ctx, node)
                if hit is not None and hit[0] in wanted:
                    row, site = hit
                    lead = "iteration over " if position == policy.ITERABLE else ""
                    yield self.violation(ctx, node, f"{lead}{site} {row.why}")


@register
class WallClockRule(SourceSiteRule):
    rule_id = "DET101"
    title = "wall-clock read in a simulation path"
    rationale = (
        "time.time()/datetime.now() make behaviour depend on when the "
        "simulation runs; simulated time must come from the tick counter "
        "and the timing model.  time.perf_counter() is allowed for host "
        "metrics."
    )


@register
class GlobalRngRule(SourceSiteRule):
    rule_id = "DET102"
    title = "module-level RNG in a simulation path"
    rationale = (
        "random.* and np.random.* draw from hidden global state shared "
        "across the process, so results depend on call order and on "
        "unrelated code; use an explicitly seeded np.random.default_rng "
        "or repro.util.rng streams."
    )


@register
class UnorderedIterationRule(SourceSiteRule):
    rule_id = "DET103"
    title = "iteration over an unordered collection in rank-visible code"
    rationale = (
        "set iteration order is not specified, and dict view order "
        "encodes insertion history that may differ across ranks; wrap "
        "the iterable in sorted() or suppress with a comment explaining "
        "why the order is deterministic."
    )


_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


@register
class MutableDefaultRule(Rule):
    rule_id = "DET104"
    title = "mutable default argument"
    rationale = (
        "a mutable default is shared across calls, so one call's state "
        "leaks into the next — hidden cross-call (and cross-rank) "
        "coupling; default to None and construct inside the function."
    )

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        ctx, default, f"mutable default argument in {name}()"
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES
        )


@register
class BroadExceptRule(Rule):
    rule_id = "DET105"
    title = "bare or broad exception handler"
    rationale = (
        "except Exception swallows programming errors (TypeError, "
        "KeyError) along with expected failures, letting a silently "
        "corrupted rank diverge; catch the specific ReproError subclasses "
        "from repro.errors and let the rest propagate."
    )

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            if self._reraises(node):
                continue
            what = "bare except:" if node.type is None else f"except {node.type.id}"
            yield self.violation(
                ctx,
                node,
                f"{what} without re-raise; catch specific repro.errors types",
            )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """True when the handler body contains a bare ``raise``."""
        return any(
            isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(handler)
        )


#: Calls that arm host-clock timers.
_HOST_TIMER_CALLS = frozenset({"signal.alarm", "signal.setitimer"})

#: Attribute calls that install host-clock deadlines on I/O objects.
_HOST_TIMEOUT_METHODS = frozenset({"settimeout", "setdefaulttimeout"})


@register
class HostClockWaitRule(Rule):
    rule_id = "DET106"
    title = "host-clock wait or timeout in a recovery/simulation path"
    rationale = (
        "time.sleep(), signal.alarm()/setitimer(), socket timeouts, and "
        "timeout= arguments gate progress on the host scheduler, so a "
        "faulted run's behaviour (which retry fires, which rank is "
        "declared dead first) would vary run to run; recovery backoff "
        "and failure detection must advance on the simulated clock "
        "(repro.runtime.timing / the tick counter)."
    )
    rank_visible_only = True

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualify(node.func)
            if qualified == "time.sleep":
                yield self.violation(
                    ctx, node, "time.sleep() blocks on the host clock; model the "
                    "wait in simulated seconds instead"
                )
            elif qualified in _HOST_TIMER_CALLS:
                yield self.violation(
                    ctx, node, f"{qualified}() arms a host-clock timer; use "
                    "a simulated-time deadline (runtime.collectives.phase_timeout)"
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _HOST_TIMEOUT_METHODS
            ):
                yield self.violation(
                    ctx, node, f".{node.func.attr}() installs a host-clock "
                    "deadline; failure detection must use simulated time"
                )
            else:
                yield from self._timeout_kwarg(ctx, node)

    def _timeout_kwarg(self, ctx: ModuleContext, node: ast.Call):
        for kw in node.keywords:
            if kw.arg != "timeout":
                continue
            if isinstance(kw.value, ast.Constant) and kw.value.value is None:
                continue  # timeout=None means "wait forever", not a deadline
            yield self.violation(
                ctx, node, "timeout= gates a blocking call on the host clock; "
                "derive deadlines from the simulated timing model"
            )


@register
class FlushBoundaryRule(Rule):
    rule_id = "DET107"
    title = "file write outside an observability flush boundary"
    rationale = (
        "simulation-path code must stay side-effect-free: exporting "
        "traces, metrics, models, or checkpoints is an *observation* and "
        "belongs in a function explicitly marked '# repro: obs-flush' (on "
        "the def line or the line above), so every byte leaving the "
        "process goes through a declared, auditable flush boundary."
    )
    rank_visible_only = True

    def check(self, ctx: ModuleContext):
        for node in calls_outside(ctx, policy.OBS_FLUSH):
            yield from self._check_call(ctx, node)

    def _check_call(self, ctx: ModuleContext, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) >= 2 else None
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if mode is None:
                return  # default mode "r" only reads
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and not any(c in mode.value for c in "wax+")
            ):
                return  # provably read-only
            yield self.violation(
                ctx,
                node,
                "open() for writing outside an obs-flush function; mark the "
                "enclosing function '# repro: obs-flush' or route output "
                "through the repro.obs exporters",
            )
            return
        hit = policy.match_sink(ctx, node)
        if hit is not None and hit[0] is policy.FILE_WRITERS:
            yield self.violation(
                ctx, node, f"{hit[1]} writes a file outside an obs-flush function"
            )


#: heapq mutators whose entry argument decides pop order.
_HEAP_PUSH_CALLS = frozenset(
    {"heapq.heappush", "heapq.heappushpop", "heapq.heapreplace"}
)


@register
class SchedulingOrderRule(SourceSiteRule):
    rule_id = "DET108"
    title = "nondeterministic scheduling source in the serving layer"
    rationale = (
        "the service's schedule IS its output: a heap entry without an "
        "explicit tuple carrying a monotonic tie-break field falls back "
        "to comparing payload objects (or raises on ties), and dict "
        ".items() order encodes insertion history — either can reorder "
        "equal-priority jobs between runs.  Push (priority, ..., seq) "
        "tuples and wrap .items() iteration in sorted()."
    )
    rank_visible_only = False  # scoped by directory instead

    def check(self, ctx: ModuleContext):
        if policy.SERVING_DIRS.isdisjoint(Path(ctx.path).parts):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_heap_push(ctx, node)
        yield from super().check(ctx)

    def _check_heap_push(self, ctx: ModuleContext, node: ast.Call):
        qualified = ctx.qualify(node.func)
        if qualified not in _HEAP_PUSH_CALLS or len(node.args) < 2:
            return
        entry = node.args[1]
        if isinstance(entry, ast.Tuple) and len(entry.elts) >= 2:
            return
        yield self.violation(
            ctx,
            node,
            f"{qualified.split('.')[-1]}() entry is not an explicit tuple with "
            "a tie-break field; push (priority, ..., seq, payload) so "
            "equal-priority pops are deterministic",
        )


@register
class EnvFsOrderRule(SourceSiteRule):
    rule_id = "DET109"
    title = "environment or filesystem-order read in a rank-visible path"
    rationale = (
        "os.environ / os.getenv values vary across hosts and launches, "
        "and os.listdir / os.scandir / Path.iterdir / .glob yield "
        "entries in OS-dependent order, so any rank-visible value "
        "derived from them differs run to run; sort directory listings "
        "with sorted() and keep environment reads out of simulation "
        "paths (or suppress with a documented reason)."
    )


@register
class ExplicitTimestampRule(Rule):
    rule_id = "DET110"
    title = "implicit-clock telemetry emission in the serving layer"
    rationale = (
        "serving-layer events (queue, batch, route, rollup, alert) live "
        "on the service's simulated clock, but the tracer's span/begin/"
        "end/tick_summary methods stamp events from internal per-tick "
        "phase counters — an implicit timestamp would interleave service "
        "events with core-simulator phase windows and break byte-"
        "identical traces across rank layouts.  Emit with instant/"
        "complete/flow and pass ts_us= explicitly."
    )

    @staticmethod
    def _in_scope(path: str) -> bool:
        """Modules that emit on the service clock: the single-cluster
        service, the fleet tier, and the live-telemetry pipeline
        (``repro/obs/live`` — matched as the consecutive pair so the
        post-hoc ``repro/obs`` analysis modules stay out of scope)."""
        parts = Path(path).parts
        if not policy.SERVING_DIRS.isdisjoint(parts):
            return True
        return any(a == "obs" and b == "live" for a, b in zip(parts, parts[1:]))

    def check(self, ctx: ModuleContext):
        if not self._in_scope(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if len(chain) < 2:
                continue
            receiver, method = chain[:-1], chain[-1]
            if not any("tracer" in part.lower() for part in receiver):
                continue
            if method in policy.TRACER_PHASE_EMITTERS:
                yield self.violation(
                    ctx,
                    node,
                    f".{method}() stamps events from the tracer's phase "
                    "counters; serving-layer code must emit instant/"
                    "complete/flow with an explicit ts_us=",
                )
            elif method in policy.TRACER_POINT_EMITTERS:
                ts = next(
                    (kw.value for kw in node.keywords if kw.arg == "ts_us"), None
                )
                if ts is None or (
                    isinstance(ts, ast.Constant) and ts.value is None
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f".{method}() without an explicit simulated "
                        "timestamp; pass ts_us= from the service clock",
                    )


#: Calls that introspect host execution state (with any
#: ``tracemalloc.*`` call).
_HOST_INTROSPECTION_CALLS = frozenset(
    {
        "sys._current_frames",
        "sys.settrace",
        "sys.setprofile",
        "resource.getrusage",
    }
)


@register
class HostIntrospectionRule(Rule):
    rule_id = "DET111"
    title = "profiler introspection in rank-visible code"
    rationale = (
        "tracemalloc reads, sys._current_frames(), and resource.getrusage "
        "measure the host interpreter — values that differ between "
        "machines and runs, and an instrument that slows what it measures "
        "(tracemalloc: 3x).  Rank-visible code never touches them; host "
        "time is attributed from outside the program by the bench ladder."
    )
    rank_visible_only = True

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualify(node.func)
            if qualified.startswith("tracemalloc."):
                yield self.violation(
                    ctx, node, f"{qualified}() reads host allocator state"
                )
            elif qualified in _HOST_INTROSPECTION_CALLS:
                yield self.violation(
                    ctx, node, f"{qualified}() introspects host execution"
                )


#: Call-chain tails that read the host core count.
_CPU_COUNT_TAILS = frozenset({"cpu_count", "process_cpu_count"})


@register
class HostParallelRule(Rule):
    rule_id = "DET112"
    title = "host-parallel nondeterminism in rank-visible code"
    rationale = (
        "Host-core counts, the fork start method, and unseeded per-worker "
        "RNG construction make simulated results depend on the machine the "
        "run landed on.  Worker counts come from the layout, not from "
        "os.cpu_count()/multiprocessing.cpu_count(); the fork start method "
        "(get_context('fork'), set_start_method('fork'), os.fork) inherits "
        "parent interpreter state workers must not see — the pool backends "
        "spawn; and every worker-side RNG must be constructed from an "
        "explicit model-derived seed."
    )
    rank_visible_only = True

    def check(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    @staticmethod
    def _forks(node: ast.Call) -> bool:
        """First argument is the string constant ``"fork"``/``"forkserver"``."""
        args = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg == "method"
        ]
        return any(
            isinstance(a, ast.Constant) and a.value in ("fork", "forkserver")
            for a in args
        )

    def _check_call(self, ctx: ModuleContext, node: ast.Call):
        chain = attr_chain(node.func)
        if not chain:
            return
        tail = chain[-1]
        if len(chain) >= 2 and tail in _CPU_COUNT_TAILS:
            yield self.violation(
                ctx,
                node,
                f"{'.'.join(chain)}() reads the host core count; derive "
                "worker counts from the layout, not the machine",
            )
        elif ctx.qualify(node.func) == "os.fork":
            yield self.violation(
                ctx,
                node,
                "os.fork() clones live interpreter state into the child; "
                "pool workers must spawn",
            )
        elif tail in ("get_context", "set_start_method") and self._forks(node):
            yield self.violation(
                ctx,
                node,
                f"{'.'.join(chain)}() selects the fork start method — "
                "forked workers inherit parent RNG and buffer state; use "
                "'spawn'",
            )
        elif tail in policy.SEEDABLE_RNGS and not node.args and not node.keywords:
            yield self.violation(
                ctx,
                node,
                f"{'.'.join(chain)}() constructs an unseeded RNG — per-"
                "worker streams must be seeded from the model "
                "(network seed + rank), never from host entropy",
            )
