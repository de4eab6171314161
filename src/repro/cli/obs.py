"""``obs trace|metrics|diff|journey|analyze|flame|why`` — observability.

Span traces, metrics, log diffs and job journeys
(``docs/observability.md``); trace analytics (``docs/perf_analysis.md``);
cross-run root cause (``docs/profiling.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import common
from repro.cli.common import command, emit, write_out
from repro.errors import AnalysisError, ExecError
from repro.exec import make_adapter
from repro.obs import Observability, analysis, perfetto, prometheus
from repro.obs.jsonl import first_divergence, read_event_log, write_event_log
from repro.obs.live import find_traces, reconstruct_journey
from repro.obs.why import why_paths
from repro.resilience import FaultSchedule
from repro.util.argtypes import positive_int


def _run(args: argparse.Namespace, obs: Observability, faults: bool = False) -> None:
    """Run the configured simulation under ``obs``.

    With ``faults`` (the command took the faults group) and explicit
    events given, the run goes through the recovery driver so the trace
    carries fault/checkpoint/recovery instants; otherwise the simulator
    runs directly on the chosen backend.
    """
    network = common.network_from(args, obs)
    layout = common.layout_from(args)
    events = common.fault_events(args) if faults else []
    if events:
        if args.pgas:
            raise ExecError("fault injection requires the MPI backend (drop --pgas)")
        schedule = FaultSchedule(events)
        common.resilient_runner(args, network, layout, schedule, obs).run(args.ticks)
    else:
        sim = make_adapter(common.backend_from(args), obs=obs)
        sim.prepare(network, layout).run(args.ticks)


def _cmd_trace(args: argparse.Namespace) -> int:
    """run with span tracing; export Perfetto/JSONL/Prometheus"""
    obs = Observability.with_tracing()
    _run(args, obs, faults=True)
    tr = obs.tracer
    errors = perfetto.validate_chrome_trace(perfetto.to_chrome_trace(tr))
    if errors:
        for err in errors:
            print(f"error: invalid trace: {err}", file=sys.stderr)
        return 1
    print(
        f"traced {args.ticks} ticks on {args.processes} processes "
        f"({common.backend_from(args)}): "
        f"{len(tr.events)} events ({tr.count(ph='X')} spans, "
        f"{tr.count(ph='i')} instants)"
    )
    path = perfetto.write_chrome_trace(tr, args.out)
    print(f"wrote chrome trace: {path} (load in ui.perfetto.dev)")
    if args.jsonl:
        path = write_event_log(tr, args.jsonl)
        print(f"wrote event log: {path}")
    if args.prom:
        path = prometheus.write_textfile(obs.registry, args.prom)
        print(f"wrote prometheus textfile: {path}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """run with the metric registry; export Prometheus text"""
    # Metrics need only the registry; the tracer stays the null tracer,
    # which is also the zero-overhead configuration being demonstrated.
    obs = Observability.off()
    _run(args, obs, faults=True)
    if args.out:
        print(
            f"ran {args.ticks} ticks on {args.processes} processes: "
            f"{len(obs.registry)} instruments"
        )
    emit(prometheus.render_textfile(obs.registry), args.out, "prometheus textfile")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """first divergence between two JSONL event logs"""
    a = read_event_log(args.log_a)
    b = read_event_log(args.log_b)
    div = first_divergence(a, b, name=args.name, kind=args.kind)
    if div is None:
        if args.name:
            n = sum(1 for r in a if r.get("name") == args.name)
            scope = f" named {args.name!r}"
        elif args.kind:
            n = sum(1 for r in a if r.get("kind") == args.kind)
            scope = f" of kind {args.kind!r}"
        else:
            n, scope = len(a), ""
        print(f"logs are identical: {n} records{scope}")
        return 0
    print(div.describe())
    return 1


def _cmd_journey(args: argparse.Namespace) -> int:
    """reconstruct one job's causal chain from a JSONL event log"""
    records = read_event_log(args.events)
    traces = find_traces(
        records, job=args.job, tenant=args.tenant, trace=args.trace
    )
    if not traces:
        selectors = " ".join(
            f"{k}={v!r}"
            for k, v in (
                ("job", args.job), ("tenant", args.tenant), ("trace", args.trace)
            )
            if v is not None
        )
        raise AnalysisError(
            f"no job traces match {selectors or 'the log'} (was the run traced?)"
        )
    if len(traces) > 1:
        # Per-shard job ids collide across shards; without --tenant the
        # selector can match one journey per shard.
        print(
            f"note: {len(traces)} traces match (per-shard job ids collide "
            f"across shards); showing the first — disambiguate with "
            f"--tenant or --trace"
        )
    print(reconstruct_journey(records, traces[0]).format())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """critical-path + imbalance report from a JSONL event log"""
    report = analysis.analyze_report(analysis.load_events(args.events))
    emit(report, args.out, "analysis report")
    return 0


def _cmd_flame(args: argparse.Namespace) -> int:
    """folded flame stacks + self/total table from a JSONL event log"""
    events = analysis.load_events(args.events)
    table = analysis.flame_table(events, limit=args.limit)
    if args.folded:
        path = analysis.write_folded(events, args.folded)
        print(f"wrote folded flame stacks: {path}")
    emit(table, args.out, "flame table")
    return 0


def _cmd_why(args: argparse.Namespace) -> int:
    """cross-run regression root-cause: rank metric/phase deltas"""
    report = why_paths(args.old, args.new)
    text = report.format(limit=args.limit)
    write_out(text, args.out, "root-cause report")
    print(text, end="")
    return 1 if args.fail_on_regression and report.regressions else 0


def _add_run(p: argparse.ArgumentParser) -> None:
    """What ``trace`` and ``metrics`` run: model + layout."""
    common.add_model(p, quickstart_cores=16)
    common.add_layout(p, ticks=20, processes=2, threads=1, pgas=True)


def _add_limit(p: argparse.ArgumentParser, default: int, rows: str) -> None:
    p.add_argument("--limit", type=positive_int, default=default, help=rows)


def register(sub: argparse._SubParsersAction) -> None:
    obs_sub = common.family(
        sub, "obs", "deterministic span tracing and metrics export"
    )

    q = command(obs_sub, "trace", _cmd_trace)
    _add_run(q)
    common.add_faults(q)
    q.add_argument("--out", default="trace.json", help="chrome-trace output path")
    q.add_argument("--jsonl", help="also write the JSONL event log")
    q.add_argument("--prom", help="also write a Prometheus textfile")

    q = command(obs_sub, "metrics", _cmd_metrics)
    _add_run(q)
    common.add_faults(q)
    q.add_argument("--out", help="write Prometheus text here (default: stdout)")

    q = command(obs_sub, "diff", _cmd_diff)
    q.add_argument("log_a", help="baseline event log (.jsonl)")
    q.add_argument("log_b", help="comparison event log (.jsonl)")
    q.add_argument(
        "--name",
        help="compare only events with this name (e.g. 'tick' for the "
        "partition-invariant per-tick summaries)",
    )
    q.add_argument(
        "--kind",
        choices=("rollup", "alert"),
        help="compare only telemetry records of this kind (rollup/alert "
        "streams from 'shard run --slo')",
    )

    q = command(obs_sub, "journey", _cmd_journey)
    q.add_argument("events", help="JSONL event log (e.g. 'shard run --events')")
    q.add_argument("--job", type=int, help="job id (per shard)")
    q.add_argument("--tenant", help="tenant name, to disambiguate job ids")
    q.add_argument("--trace", help="exact 16-hex trace id")

    q = command(obs_sub, "analyze", _cmd_analyze)
    q.add_argument("events", help="JSONL event log (from 'obs trace --jsonl')")
    q.add_argument("--out", help="write the report here (default: stdout)")

    q = command(obs_sub, "flame", _cmd_flame)
    q.add_argument("events", help="JSONL event log (from 'obs trace --jsonl')")
    q.add_argument("--folded", help="write folded stacks here (flamegraph.pl)")
    q.add_argument("--out", help="write the self/total table here")
    _add_limit(q, 40, "rows in the self/total table")

    q = command(obs_sub, "why", _cmd_why)
    q.add_argument(
        "old",
        help="baseline: a `python3 -m bench --json` file or an events .jsonl",
    )
    q.add_argument("new", help="comparison side, same kind as OLD")
    _add_limit(q, 20, "ranked rows to print")
    q.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when a bench output (digest, count, failed, correct) "
        "differs or a trace's work units grew",
    )
    q.add_argument("--out", help="also write the report to this file")
