"""The CLI's parsed surface is pinned: same commands, same arguments.

``cli_surface.txt`` is what ``surface_lines`` below prints; a refactor of
the shell must leave every line of it unchanged, and a deliberate change
to the surface shows as a diff of that file.  Regenerate on purpose with::

    PYTHONPATH=src python tests/unit/test_cli_surface.py > tests/unit/cli_surface.txt
"""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.config import CompassConfig
from repro.serve.server import ServeConfig
from repro.shard.router import FleetConfig

ROOT = Path(__file__).parents[2]
SNAPSHOT = Path(__file__).with_name("cli_surface.txt")


def surface_lines(parser=None, path=()):
    """One line per argument of every command, sorted.

    Option order only shows in ``--help``; positional order is what the
    command line means, so positionals carry their index.
    """
    parser = parser or build_parser()
    lines, positionals = [], 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                lines.extend(surface_lines(sub, path + (name,)))
            continue
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        kind = getattr(action.type, "__name__", action.type)
        flags = "/".join(action.option_strings)
        if not flags:
            flags, positionals = f"<pos{positionals}>", positionals + 1
        lines.append(
            f"{' '.join(path) or '-'} | {flags} "
            f"| dest={action.dest} action={type(action).__name__} type={kind} "
            f"default={action.default!r} choices={action.choices!r} "
            f"nargs={action.nargs!r} required={action.required}"
        )
    if not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions):
        lines.append(f"{' '.join(path)} | <leaf>")
    return sorted(lines)


LEAVES = sorted(
    line.split(" | ")[0]
    for line in SNAPSHOT.read_text().splitlines()
    if line.endswith("| <leaf>")
)


def test_parsed_surface_matches_snapshot():
    assert surface_lines() == SNAPSHOT.read_text().splitlines()


def test_surface_delta_of_pr_23():
    """What the regenerated snapshot changed, and nothing else did:
    ``obs prof`` (a leaf and 15 arguments) is gone; ``exec run`` lost
    ``--pgas`` (it could never win over ``--backend``) and its
    ``--workers`` defaults to None, so giving it to a backend without
    workers can be refused."""
    lines = SNAPSHOT.read_text().splitlines()
    assert not [line for line in lines if line.startswith("obs prof |")]
    exec_run = {
        line.split(" | ")[1]: line for line in lines if line.startswith("exec run |")
    }
    assert "--pgas" not in exec_run and "--backend" in exec_run
    assert "default=None" in exec_run["--workers"]
    # Cut since, each covered by a leaf that stays (docs/internals.md).
    cut = {"exec info", "info", "macaque", "obs metrics", "resilience report", "serve submit"}
    assert not cut & set(LEAVES)
    assert len(LEAVES) == 20


DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")
]
_INVOCATION = re.compile(
    r"^\s*(?:\$ )?(?:repro-compass|repro|python3? -m repro\.cli) (.*)$"
)


def documented_invocations():
    """Every ``repro …`` command line inside a fenced block of the docs.

    Backslash continuations are joined; usage synopses (``[--flag]``,
    ``...``) are not command lines and are skipped.
    """
    for path in DOC_FILES:
        fenced, pending = False, None
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, None
                continue
            if not fenced:
                continue
            if pending is not None:
                where, text = pending[0], f"{pending[1]} {line.strip()}"
            else:
                match = _INVOCATION.match(line)
                if not match:
                    continue
                where, text = f"{path.name}:{lineno}", match.group(1)
            if text.endswith("\\"):
                pending = (where, text[:-1].rstrip())
                continue
            pending = None
            text = re.split(r"\s+#\s", text)[0].strip()
            if "[" not in text and "..." not in text:
                yield pytest.param(text, id=where)


DOCUMENTED = list(documented_invocations())


def test_the_docs_still_show_command_lines():
    # Guards the extractor: 31 at 74d4b77; zero would pass the test below.
    assert len(DOCUMENTED) >= 31


@pytest.mark.parametrize("command_line", DOCUMENTED)
def test_documented_invocation_parses(command_line):
    args = build_parser().parse_args(shlex.split(command_line))
    assert callable(args.func)


LEDGER = ROOT / "docs" / "internals.md"
_LEDGER_ROW = re.compile(r"^\| `([^`]+)` \| (.*) \|$")


def _ledger_table(title):
    """``{row name: [its other cells]}`` of the table under ``### title``,
    up to the next heading."""
    section = LEDGER.read_text().split(f"### {title}")[1]
    rows = [_LEDGER_ROW.match(line) for line in re.split(r"\n##+ ", section)[0].splitlines()]
    return {m.group(1): [cell.strip() for cell in m.group(2).split(" | ")] for m in rows if m}


def _without_reader(readers):
    """The rows of ``{row name: reader cells}`` in which no cell names a reader.

    ``—`` (with or without a note after it) names none, and neither does a
    test of the row's refusal only.
    """
    return [
        name
        for name, cells in readers.items()
        if all(cell.startswith("—") or "(its refusal only)" in cell for cell in cells)
    ]


def ledger_rows():
    """``{leaf: doc-workflow cell}`` of the who-reads-it table (ROADMAP item 6)."""
    return {leaf: cells[0] for leaf, cells in _ledger_table("Who reads each command's output").items()}


def test_every_leaf_has_a_ledger_row_and_every_row_a_leaf():
    assert sorted(ledger_rows()) == LEAVES
    assert _without_reader(_ledger_table("Who reads each command's output")) == []


def test_ledger_doc_workflows_exist():
    """A row that names ``X.md`` as its doc workflow: X.md shows that leaf."""
    shown = {
        (param.id.split(":")[0], leaf)
        for param in DOCUMENTED
        for leaf in LEAVES
        if shlex.split(param.values[0])[: len(leaf.split())] == leaf.split()
    }
    for leaf, cell in ledger_rows().items():
        for doc in re.findall(r"[\w.]+\.md", cell.split("(")[0]):
            assert (doc, leaf) in shown, f"{doc} shows no `{leaf}` command line"


CONFIGS = (CompassConfig, ServeConfig, FleetConfig)


def test_every_config_field_has_a_ledger_row():
    """One row per field of each config object, no row for a field that is
    gone, and a reader of each (the cells after "set by")."""
    rows = _ledger_table("Who sets each configuration field")
    fields = [f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in dataclasses.fields(cls)]
    assert list(rows) == fields
    assert _without_reader({name: cells[1:] for name, cells in rows.items()}) == []


if __name__ == "__main__":
    print("\n".join(surface_lines()))
