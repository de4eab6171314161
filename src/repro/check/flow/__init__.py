"""Interprocedural nondeterminism taint analysis (the FLOW series).

The per-module lint rules (DET101–DET112) flag nondeterminism *at the
call site*; this package proves — or refutes — the whole-program
property behind them: no value derived from a nondeterminism source
(host clock, unseeded RNG, environment/filesystem order, unordered
iteration, object identity) ever reaches a rank-visible sink (mailbox
sends, collectives, checkpoint capture, metric/trace emission, report
writers) without passing a sanitizer.

Pipeline: :mod:`callgraph` resolves a project-wide call graph from the
AST (unresolved calls are recorded, never dropped); :mod:`cfg` builds
per-function control-flow graphs with a deterministic worklist fixpoint;
:mod:`taint` runs the interprocedural source→sink tracking with function
summaries; :mod:`report` emits FLOW findings with full witness paths.
What is a source and what is a sink is :mod:`repro.check.policy`.

Exposed as ``repro check flow`` (see docs/checker.md, "Flow analysis").
"""

from repro.check.flow.callgraph import CallGraph, build_callgraph
from repro.check.flow.cfg import build_cfg, fixpoint
from repro.check.flow.report import (
    FlowFinding,
    FlowReport,
    run_flow,
    run_flow_sources,
)
from repro.check.flow.taint import KIND_RULES, Summary, Taint, analyze

__all__ = [
    "CallGraph",
    "FlowFinding",
    "FlowReport",
    "KIND_RULES",
    "Summary",
    "Taint",
    "analyze",
    "build_callgraph",
    "build_cfg",
    "fixpoint",
    "run_flow",
    "run_flow_sources",
]
