"""The one policy table behind the lint rules and the flow analysis.

What counts as a nondeterminism **source**, what counts as a
rank-visible **sink**, what writes a file, and which comment markers
declare a boundary are stated here once; ``rules/determinism.py`` and
``flow/taint.py`` only read the rows.

A :class:`Source` row says what the flow engine calls a value that comes
from it (``kind``), what the lint thinks of the bare site — the DET rule
that flags it (``lint``), where (``position`` — anywhere, or only as an
unsorted ``for`` / comprehension iterable) and in which directories
(``scope``) — and how a site is recognised (``calls`` … ``literals``).
The two engines do not agree on everything, and the rows show where:

* ``lint=None`` is a **flow-only** row.  ``time.perf_counter`` is fine at
  the site (host-time measurement is observational) and a finding only
  when the value reaches a sink; likewise ``id()`` / ``hash()``.
* ``kind=None`` is a **lint-only** row.  ``random.Random(seed)`` is a
  seeded stream, so the flow engine lets it through, but DET102 still
  steers rank-visible code to ``repro.util.rng``.
* ``.items()`` taints everywhere for the flow engine, but the lint asks
  for ``sorted()`` only where the order can become a schedule
  (``serve`` / ``shard``, DET108).

Qualified names are matched after :meth:`ModuleContext.qualify`, so every
import spelling of a name is the same site and a parameter that happens
to be called ``time`` is none.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.check.frontend import ModuleContext

#: ``# repro: obs-flush`` declares an observability flush boundary: file
#: writes inside are sanctioned (DET107) and sinks inside are audited
#: (flow).
OBS_FLUSH = "obs-flush"

#: Directory names whose modules carry scheduling state: the
#: single-cluster service (repro.serve) and the fleet tier above it
#: (repro.shard) — ring walks, routing, and autoscale decisions are
#: schedule-defining in exactly the same way queue pops are.
SERVING_DIRS = frozenset({"serve", "shard"})

#: RNG constructors that take their seed as an argument: not draws from
#: a hidden global stream (DET102), but built argless they seed from
#: host entropy (DET112).
SEEDABLE_RNGS = frozenset(
    {"default_rng", "Random", "SeedSequence", "PCG64", "Philox", "SFC64", "MT19937"}
)

ANYWHERE = "anywhere"
ITERABLE = "iterable"


@dataclass(frozen=True, eq=False)  # a row is itself, not its fields
class Source:
    """One way a value can depend on something outside (model, seed, ticks)."""

    #: Flow taint kind, or None for a row only the lint reads.
    kind: str | None
    #: DET rule flagging the bare site, or None for a flow-only row.
    lint: str | None = None
    position: str = ANYWHERE
    #: Directory names the lint row is limited to; empty = no limit.
    scope: frozenset[str] = frozenset()
    #: Tail of the lint message, after the site's description.
    why: str = ""
    # How a site is recognised:
    calls: frozenset[str] = frozenset()  #: qualified function names
    #: modules every call into which is a site, but for ``unless``
    members: frozenset[str] = frozenset()
    unless: frozenset[str] = frozenset()
    attrs: frozenset[str] = frozenset()  #: qualified attribute reads
    methods: frozenset[str] = frozenset()  #: ``.name()`` on any receiver
    builtins: frozenset[str] = frozenset()  #: bare-name calls
    literals: frozenset[str] = frozenset()  #: AST node type names

    def in_scope(self, path: str) -> bool:
        return not self.scope or not self.scope.isdisjoint(Path(path).parts)


_RNG_ADVICE = "use an explicitly seeded default_rng or a repro.util.rng stream"

SOURCES: tuple[Source, ...] = (
    Source(
        "host-clock",
        lint="DET101",
        why="reads the wall clock in a simulation path; simulated time "
        "comes from the tick counter and the timing model",
        calls=frozenset(
            {
                "time.time",
                "time.time_ns",
                "time.monotonic",
                "time.monotonic_ns",
                "time.localtime",
                "time.gmtime",
                "datetime.datetime.now",
                "datetime.datetime.utcnow",
                "datetime.datetime.today",
                "datetime.date.today",
            }
        ),
    ),
    Source(
        "host-clock",
        calls=frozenset(
            {
                "time.perf_counter",
                "time.perf_counter_ns",
                "time.process_time",
                "time.process_time_ns",
            }
        ),
    ),
    Source(
        "rng",
        lint="DET102",
        why=f"draws from the process-global RNG; {_RNG_ADVICE}",
        members=frozenset({"random", "numpy.random"}),
        unless=SEEDABLE_RNGS | {"Generator"},
    ),
    Source(
        None,
        lint="DET102",
        why=f"builds a stdlib generator; {_RNG_ADVICE}",
        calls=frozenset({"random.Random"}),
    ),
    Source(
        "env",
        lint="DET109",
        why="read in a rank-visible path; environment state differs across "
        "hosts and launches",
        calls=frozenset({"os.getenv"}),
        attrs=frozenset({"os.environ", "os.environb"}),
    ),
    Source(
        "fs-order",
        lint="DET109",
        position=ITERABLE,
        why="is OS-order-dependent; wrap it in sorted()",
        calls=frozenset({"os.listdir", "os.scandir"}),
        methods=frozenset({"iterdir", "glob", "rglob"}),
    ),
    Source(
        "order",
        lint="DET103",
        position=ITERABLE,
        why="is in hash order (sets) or insertion order (dict views), which "
        "can differ across ranks; use sorted() or suppress with a reason",
        methods=frozenset({"keys", "values"}),
        builtins=frozenset({"set", "frozenset"}),
        literals=frozenset({"Set", "SetComp"}),
    ),
    Source(
        "order",
        lint="DET108",
        position=ITERABLE,
        scope=SERVING_DIRS,
        why="encodes insertion history and can feed the schedule; wrap it "
        "in sorted()",
        methods=frozenset({"items"}),
    ),
    Source("ident", builtins=frozenset({"id", "hash"})),
)


@dataclass(frozen=True, eq=False)
class Sink:
    """A rank-visible boundary a nondeterministic value must not reach."""

    label: str  #: appears in findings
    methods: frozenset[str] = frozenset()  #: ``.name()`` on any receiver
    calls: frozenset[str] = frozenset()  #: qualified function names
    functions: frozenset[str] = frozenset()  #: bare function names


_CHECKPOINT_FUNCS = frozenset({"capture_state", "restore_state", "save_checkpoint"})

#: Tracer emitters that accept an explicit simulated timestamp
#: (``ts_us=``), tracer emitters stamped by the tracer's internal phase
#: counters (DET110 bans these from the serving layers), and the metric
#: instruments' mutators.  Together: the emission sink.
#: tests/unit/test_check_policy.py reads all three off the classes.
TRACER_POINT_EMITTERS = frozenset({"instant", "complete", "flow"})
TRACER_PHASE_EMITTERS = frozenset({"span", "begin", "end", "tick_summary"})
INSTRUMENT_MUTATORS = frozenset({"inc", "set", "observe", "observe_row"})

#: Calls that write a file: DET107's subject (with ``open`` for writing)
#: and the flow engine's "report writer" sink.
FILE_WRITERS = Sink(
    "report writer",
    methods=frozenset({"write_text", "write_bytes"}),
    calls=frozenset(
        {
            "json.dump",
            "pickle.dump",
            "numpy.save",
            "numpy.savez",
            "numpy.savez_compressed",
            "numpy.savetxt",
        }
    ),
)

SINKS: tuple[Sink, ...] = (
    Sink("mailbox send", methods=frozenset({"send", "isend", "put", "deliver"})),
    Sink(
        "collective",
        methods=frozenset(
            {"reduce_scatter", "reduce_scatter_contribute", "contribute"}
        ),
    ),
    Sink("checkpoint capture", methods=_CHECKPOINT_FUNCS, functions=_CHECKPOINT_FUNCS),
    Sink(
        "metric/trace emission",
        methods=TRACER_POINT_EMITTERS | TRACER_PHASE_EMITTERS | INSTRUMENT_MUTATORS,
    ),
    FILE_WRITERS,
)


def pins_order(node: ast.AST) -> bool:
    """``sorted(...)``: fixes an iteration order, and kills any taint."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _index(field: str) -> dict[str, Source]:
    return {name: row for row in SOURCES for name in getattr(row, field)}


_SOURCE_CALLS = _index("calls")
_SOURCE_MEMBERS = _index("members")
_SOURCE_ATTRS = _index("attrs")
_SOURCE_METHODS = _index("methods")
_SOURCE_BUILTINS = _index("builtins")
_SOURCE_LITERALS = _index("literals")


def match_source(ctx: ModuleContext, node: ast.AST) -> tuple[Source, str] | None:
    """The source row ``node`` is a site of, and how to name the site."""
    if isinstance(node, ast.Call):
        func = node.func
        qualified = ctx.qualify(func)
        if qualified:
            row = _SOURCE_CALLS.get(qualified)
            if row is None:
                module, _, member = qualified.rpartition(".")
                row = _SOURCE_MEMBERS.get(module)
                if row is not None and member in row.unless:
                    row = None
            if row is not None:
                return row, f"{qualified}()"
        if isinstance(func, ast.Attribute):
            row = _SOURCE_METHODS.get(func.attr)
            if row is not None:
                return row, f".{func.attr}()"
        elif isinstance(func, ast.Name):
            row = _SOURCE_BUILTINS.get(func.id)
            if row is not None:
                return row, f"{func.id}()"
    elif isinstance(node, (ast.Attribute, ast.Name)):
        qualified = ctx.qualify(node)
        row = _SOURCE_ATTRS.get(qualified)
        if row is not None:
            return row, qualified
    else:
        row = _SOURCE_LITERALS.get(type(node).__name__)
        if row is not None:
            return row, "a set"
    return None


_SINK_METHODS = {name: sink for sink in SINKS for name in sink.methods}
_SINK_CALLS = {name: sink for sink in SINKS for name in sink.calls}
_SINK_FUNCTIONS = {name: sink for sink in SINKS for name in sink.functions}


def match_sink(ctx: ModuleContext, call: ast.Call) -> tuple[Sink, str] | None:
    """The sink row ``call`` is a site of, and how to name the site."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _SINK_METHODS:
        return _SINK_METHODS[func.attr], f".{func.attr}()"
    qualified = ctx.qualify(func)
    if qualified in _SINK_CALLS:
        return _SINK_CALLS[qualified], f"{qualified}()"
    if isinstance(func, ast.Name) and func.id in _SINK_FUNCTIONS:
        return _SINK_FUNCTIONS[func.id], f"{func.id}()"
    return None
