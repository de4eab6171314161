"""The static checkers' shared front end and policy table.

The lint and the flow analysis read one table (``repro.check.policy``)
through one parsed-module record (``repro.check.frontend``).  The cases
here are generated *from the table*: every source row, under every
import spelling of every name in it, must get the row's verdict from
both engines — so a row cannot be added for one engine only, and an
import spelling cannot slip past one of them.
"""

import ast
import inspect

import pytest

from repro.check import policy
from repro.check.flow import run_flow_sources
from repro.check.flow.taint import KIND_RULES
from repro.check.frontend import ModuleContext, attr_chain
from repro.check.lint import lint_source
from repro.obs.registry import Counter, Gauge, Histogram
from repro.obs.span import NullTracer

# -- the front end ------------------------------------------------------------


def context(source: str, path: str = "src/repro/core/x.py") -> ModuleContext:
    return ModuleContext.from_source(path, source)


def qualify(ctx: ModuleContext, expr: str) -> str:
    return ctx.qualify(ast.parse(expr, mode="eval").body)


class TestAliasTable:
    @pytest.mark.parametrize(
        "imports, expr, expected",
        [
            ("import time", "time.time", "time.time"),
            ("import time as t", "t.time", "time.time"),
            ("import numpy as np", "np.random.rand", "numpy.random.rand"),
            ("import os.path", "os.path.join", "os.path.join"),
            ("import numpy.random as npr", "npr.rand", "numpy.random.rand"),
            ("from time import time", "time", "time.time"),
            ("from time import time as now", "now", "time.time"),
            ("from numpy import random", "random.rand", "numpy.random.rand"),
            ("from datetime import datetime as dt", "dt.now", "datetime.datetime.now"),
            ("def f():\n    import os", "os.environ", "os.environ"),
        ],
    )
    def test_every_import_spelling_qualifies(self, imports, expr, expected):
        assert qualify(context(imports + "\n"), expr) == expected

    def test_relative_imports_climb_from_the_module(self):
        ctx = context(
            "from . import checkpoint\n"
            "from .simulator import Compass as C\n"
            "from .. import util\n"
            "from ..util.rng import stream\n",
            path="src/repro/core/x.py",
        )
        assert ctx.module == "repro.core.x"
        assert qualify(ctx, "checkpoint.save") == "repro.core.checkpoint.save"
        assert qualify(ctx, "C.run") == "repro.core.simulator.Compass.run"
        assert qualify(ctx, "util.rng.stream") == "repro.util.rng.stream"
        assert qualify(ctx, "stream") == "repro.util.rng.stream"

    def test_relative_import_from_a_package_init(self):
        ctx = context("from .frontend import attr_chain\n", path="src/repro/check/__init__.py")
        assert ctx.module == "repro.check"
        assert qualify(ctx, "attr_chain") == "repro.check.frontend.attr_chain"

    def test_unbound_head_qualifies_to_nothing(self):
        ctx = context("import os\n\ndef f(time, np):\n    pass\n")
        assert qualify(ctx, "time.time") == ""
        assert qualify(ctx, "np.random.rand") == ""
        assert qualify(ctx, "self.clock.now") == ""
        assert qualify(ctx, "make().time") == ""

    def test_star_import_binds_nothing(self):
        assert context("from os import *\n").aliases == {}

    def test_attr_chain(self):
        assert attr_chain(ast.parse("a.b.c", mode="eval").body) == ["a", "b", "c"]
        assert attr_chain(ast.parse("a().b", mode="eval").body) == []


class TestMarkersAndSuppressions:
    SRC = (
        "def a():  # repro: obs-flush\n    pass\n\n"
        "# repro: obs-flush\n"
        "def b():\n    pass\n\n"
        "def c():\n    # repro: obs-flush\n    pass\n"
        "x = 1  # repro: allow[DET103] reason\n"
        "y = 2\n"
        "z = 3\n"
    )

    def test_marked_on_the_def_line_or_the_line_above(self):
        ctx = context(self.SRC)
        a, b, c = (n for n in ctx.tree.body if isinstance(n, ast.FunctionDef))
        assert ctx.marked(a, policy.OBS_FLUSH) and ctx.marked(b, policy.OBS_FLUSH)
        assert not ctx.marked(a, "host-prof")  # a marker is its name
        # A marker inside the body marks nothing.
        assert not ctx.marked(c, policy.OBS_FLUSH)

    def test_suppressed_on_the_line_or_the_line_above(self):
        ctx = context(self.SRC)
        assert ctx.suppressed("DET103", 11) and ctx.suppressed("DET103", 12)
        assert not ctx.suppressed("DET103", 13)
        assert not ctx.suppressed("DET101", 11)


# -- every source row, every spelling, both engines -----------------------------

RANK_VISIBLE = "src/repro/core/x.py"


def spellings(qualified: str):
    """(import statement, expression) for every way to write a dotted name."""
    head, _, rest = qualified.partition(".")
    first, _, tail = rest.partition(".")
    dot_tail = f".{tail}" if tail else ""
    yield f"import {head}", qualified
    yield f"import {head} as zz", f"zz.{rest}"
    yield f"from {head} import {first}", f"{first}{dot_tail}"
    yield f"from {head} import {first} as zz", f"zz{dot_tail}"
    if tail:  # ``head.first`` may itself be a module: from pkg import m
        yield f"import {head}.{first} as zz", f"zz.{tail}"


def sites(row: policy.Source):
    """(imports, site expression) for every way to write a site of ``row``."""
    for name in sorted(row.calls):
        for imports, expr in spellings(name):
            yield imports, f"{expr}(1)"
    for module in sorted(row.members):
        for imports, expr in spellings(f"{module}.sample"):
            yield imports, f"{expr}(1)"
    for name in sorted(row.attrs):
        yield from spellings(name)
    for name in sorted(row.methods):
        yield "", f"x.{name}()"
    for name in sorted(row.builtins):
        yield "", f"{name}(x)"
    for name in sorted(row.literals):
        yield "", {"Set": "{x, 1}", "SetComp": "{v for v in x}"}[name]


SITES = [
    pytest.param(row, imports, site, id=f"{row.lint or row.kind}-{imports or 'plain'}-{site}")
    for row in policy.SOURCES
    for imports, site in sites(row)
]


def lint_ids(body: str, imports: str, path: str):
    return [v.rule_id for v in lint_source(f"{imports}\n\ndef f(x):\n{body}", path=path)]


@pytest.mark.parametrize("row, imports, site", SITES)
def test_lint_flags_the_site_where_the_row_says(row, imports, site):
    path = f"src/repro/{sorted(row.scope)[0]}/x.py" if row.scope else RANK_VISIBLE
    bare = lint_ids(f"    v = {site}\n", imports, path)
    looped = lint_ids(f"    for v in {site}:\n        pass\n", imports, path)
    comprehended = lint_ids(f"    return [v for v in {site}]\n", imports, path)
    ordered = lint_ids(f"    for v in sorted({site}):\n        pass\n", imports, path)
    if row.lint is None:  # flow-only: fine at the site
        assert bare == looped == comprehended == ordered == []
    elif row.position == policy.ITERABLE:
        assert bare == ordered == []
        assert looped == comprehended == [row.lint]
    else:
        assert bare == looped == comprehended == ordered == [row.lint]
    if row.scope:  # a matter for those directories only
        assert lint_ids(f"    for v in {site}:\n        pass\n", imports, RANK_VISIBLE) == []


@pytest.mark.parametrize("row, imports, site", SITES)
@pytest.mark.parametrize("sink", policy.SINKS, ids=lambda sink: sink.label)
def test_flow_reports_the_rows_kind_at_every_sink(row, imports, site, sink):
    method = sorted(sink.methods)[0]
    src = f"{imports}\n\ndef f(out, x):\n    v = {site}\n    out.{method}(v)\n"
    findings = run_flow_sources({RANK_VISIBLE: src}).findings
    if row.kind is None:  # lint-only: not a flow source
        assert findings == []
        return
    (finding,) = findings
    assert finding.source_kind == row.kind
    assert finding.rule_id == KIND_RULES[row.kind]
    assert finding.sink_label == sink.label
    assert finding.sink_desc == f".{method}()"


SHADOWED = sorted(
    {
        (name.partition(".")[0], f"{name}(1)" if name not in row.attrs else name)
        for row in policy.SOURCES
        for name in row.calls | row.attrs | {f"{m}.sample" for m in row.members}
    }
)


@pytest.mark.parametrize("head, site", SHADOWED)
def test_a_parameter_or_local_named_like_the_module_is_clean(head, site):
    as_param = f"def f(out, {head}):\n    v = {site}\n    out.send(v)\n"
    as_local = f"def f(out, x):\n    {head} = x\n    v = {site}\n    out.send(v)\n"
    for src in (as_param, as_local):
        assert lint_source(src, path=RANK_VISIBLE) == []
        assert run_flow_sources({RANK_VISIBLE: src}).findings == []


def test_seeded_constructors_are_not_draws():
    for name in sorted(policy.SEEDABLE_RNGS - {"Random"}):
        src = (
            "import numpy as np\n\n"
            f"def f(out, seed):\n    out.send(np.random.{name}(seed))\n"
        )
        assert lint_source(src, path=RANK_VISIBLE) == []
        assert run_flow_sources({RANK_VISIBLE: src}).findings == []


# -- the sink rows ----------------------------------------------------------------


def public_methods(cls) -> set[str]:
    return {
        name
        for name, member in vars(cls).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }


def test_every_tracer_emitter_is_in_the_emission_sink():
    """The sink row is read off the class, so it cannot fall behind it."""
    emitters = public_methods(NullTracer) - {"begin_tick", "count"}
    assert emitters == policy.TRACER_POINT_EMITTERS | policy.TRACER_PHASE_EMITTERS


def test_every_instrument_mutator_is_in_the_emission_sink():
    mutators = {
        name
        for cls in (Counter, Gauge, Histogram)
        for name in public_methods(cls) - {"restore"}  # checkpoint rollback, not emission
        if inspect.signature(getattr(cls, name)).return_annotation in (None, "None")
    }
    assert mutators == policy.INSTRUMENT_MUTATORS


def test_three_emitters_added_since_the_row_was_written():
    src = (
        "import time\n\n"
        "def f(h, g, tr):\n"
        "    t = time.time()\n"
        "    h.observe_row(0, [t])\n"
        "    g.set(0, t)\n"
        "    tr.complete('x', 0, ts_us=t)\n"
    )
    findings = run_flow_sources({RANK_VISIBLE: src}).findings
    assert [f.rule_id for f in findings] == ["FLOW201"] * 3
    assert [f.sink_desc for f in findings] == [".observe_row()", ".set()", ".complete()"]


def test_file_writers_are_one_list_for_both_engines():
    """DET107 flags exactly the calls the flow engine's writer sink lists."""
    assert policy.FILE_WRITERS in policy.SINKS
    for method in sorted(policy.FILE_WRITERS.methods):
        src = f"def f(p, text):\n    p.{method}(text)\n"
        assert [v.rule_id for v in lint_source(src, path=RANK_VISIBLE)] == ["DET107"]
    for name in sorted(policy.FILE_WRITERS.calls):
        for imports, expr in spellings(name):
            src = f"{imports}\n\ndef f(obj, fh):\n    {expr}(obj, fh)\n"
            assert [v.rule_id for v in lint_source(src, path=RANK_VISIBLE)] == ["DET107"]
            tainted = (
                f"{imports}\nimport time as clock\n\n"
                f"def f(fh):\n    {expr}(clock.time(), fh)\n"
            )
            (finding,) = run_flow_sources({RANK_VISIBLE: tainted}).findings
            assert finding.sink_label == policy.FILE_WRITERS.label
