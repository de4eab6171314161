"""``check lint|flow|races|model`` — the determinism sanitizer.

Lint rules, the nondeterminism taint analysis, the race detector on a
live run, the model checker (``docs/checker.md``).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import repro
from repro.check import serialize
from repro.check.flow.report import TOOL_NAME, run_flow
from repro.check.lint import run_lint
from repro.check.model import check_model
from repro.check.rules import rules_by_id
from repro.cli import common
from repro.cli.common import command
from repro.compiler.coreobject import CoreObject
from repro.compiler.pcc import ParallelCompassCompiler
from repro.core.simulator import Compass


def _finish(args: argparse.Namespace, passed: bool, *document) -> int:
    """Render a checker's ``document`` as ``--format``; print it, copy to ``--out``."""
    text = serialize.render(args.format, *document)
    common.write_out(text, args.out, f"{args.format} report")
    print(text, end="" if text.endswith("\n") else "\n")
    return 0 if passed else 1


def _paths(args: argparse.Namespace) -> list:
    """The paths given, else the installed package itself."""
    return args.paths or [Path(repro.__file__).parent]


def _cmd_lint(args: argparse.Namespace) -> int:
    """run the determinism lint rules"""
    rules = rules_by_id(args.rule) if args.rule else None
    report = run_lint(_paths(args), rules=rules)
    return _finish(
        args,
        report.passed,
        "repro.check.lint",
        serialize.lint_results(report.violations),
        {"files_checked": report.files_checked},
        report.format(),
    )


def _cmd_races(args: argparse.Namespace) -> int:
    """run a sanitized simulation and report races"""
    network = common.network_from(args)
    config = common.layout_from(args).compass_config()
    sim = Compass(network, config, sanitize=True)
    sim.run(args.ticks)
    report = sim.race_report()
    return _finish(
        args,
        report.passed,
        "repro.check.races",
        serialize.race_results(report),
        {
            "ticks": args.ticks,
            "processes": args.processes,
            "threads": args.threads,
            "model": args.model,
            "cores": network.n_cores,
        },
        f"ran {args.ticks} sanitized ticks on {args.processes} ranks x "
        f"{args.threads} threads ({args.model}, {network.n_cores} cores)\n"
        + report.format(),
    )


def _cmd_flow(args: argparse.Namespace) -> int:
    """interprocedural nondeterminism taint analysis"""
    report = run_flow(_paths(args))
    return _finish(
        args,
        report.passed,
        TOOL_NAME,
        report.to_results(),
        {
            "files_checked": report.files_checked,
            "functions_analyzed": report.functions_analyzed,
            "unresolved_calls": report.unresolved_calls,
        },
        report.format(),
    )


def _cmd_model(args: argparse.Namespace) -> int:
    """model-check a CoreObject compile"""
    obj = CoreObject.from_json(args.coreobject)
    # The compiler's own check is off so a failing model still gets the
    # full diagnostic listing below instead of the first raised error.
    compiled = ParallelCompassCompiler(model_check=False).compile(obj)
    report = check_model(compiled)
    print(report.format())
    return 0 if report.passed else 1


def _add_paths(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*", help="files/directories (default: repro pkg)")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=serialize.FORMATS,
        default="text",
        help="output format (default: text)",
    )
    p.add_argument("--out", metavar="FILE", help="also write the report to FILE")


def register(sub: argparse._SubParsersAction) -> None:
    check_sub = common.family(
        sub, "check", "determinism sanitizer (lint, flow, races, model)"
    )

    q = command(check_sub, "lint", _cmd_lint)
    _add_paths(q)
    q.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="restrict to specific rule ids (repeatable, e.g. --rule DET103)",
    )
    _add_format(q)

    q = command(check_sub, "flow", _cmd_flow)
    _add_paths(q)
    _add_format(q)

    q = command(check_sub, "races", _cmd_races)
    common.add_layout(q, ticks=50, processes=4, threads=4)
    common.add_model(q, quickstart_cores=16)
    _add_format(q)

    q = command(check_sub, "model", _cmd_model)
    q.add_argument("coreobject", help="path to a CoreObject .json")
