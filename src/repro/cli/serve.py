"""``serve run|submit|report`` and ``shard run|report`` — the service tiers.

The deterministic multi-tenant service under seeded load, and the
sharded fleet over it — routing, spill-over, autoscaling, live
telemetry — each with its SLO report (``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

from repro.cli import common
from repro.cli.common import command, write_out
from repro.obs import Observability
from repro.obs.jsonl import write_event_log
from repro.obs.live import SLO, TelemetryConfig
from repro.resilience import FaultSchedule
from repro.serve import loadgen
from repro.serve.jobs import DONE, JobSpec
from repro.serve.server import ServeConfig, SimServer
from repro.shard.autoscale import AutoscalePolicy
from repro.shard.fleet import FleetReport, build_fleet_report
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter
from repro.util.argtypes import non_negative_float, positive_float, positive_int


def serve_config(args: argparse.Namespace) -> ServeConfig:
    """Build a validated ServeConfig from the server flags."""
    crashes = common.crash_events(args)
    return ServeConfig(
        workers=args.workers,
        processes=args.processes,
        backend=common.backend_from(args),
        max_batch_size=args.max_batch,
        max_batch_delay_us=args.batch_delay_us,
        queue_capacity=args.queue_capacity,
        fault_schedule=FaultSchedule(crashes) if crashes else None,
    )


def job_stream(args: argparse.Namespace) -> dict:
    """The keyword arguments every load generator takes from the flags."""
    return dict(
        model=args.model,
        cores=args.cores,
        ticks_lo=args.ticks_lo,
        ticks_hi=args.ticks_hi,
        deadline_us=args.deadline_us,
        seed=args.seed,
        model_seed=args.model_seed,
    )


def _cmd_serve_run(args: argparse.Namespace) -> int:
    """run a seeded load and print the SLO latency report"""
    server = SimServer(serve_config(args))
    tenants = tuple(f"tenant-{chr(ord('a') + i)}" for i in range(args.tenants))
    if args.mode == "open":
        loadgen.open_loop_load(
            server,
            rate_per_s=args.rate,
            jobs=args.jobs,
            tenants=tenants,
            **job_stream(args),
        )
    else:
        loadgen.ClosedLoopLoad(
            server,
            clients=args.clients,
            jobs_per_client=args.jobs_per_client,
            think_us=args.think_us,
            tenants=tenants,
            **job_stream(args),
        ).start()
    server.run()
    report = loadgen.build_report(server)
    text = report.format()
    print(text)
    write_out(text + "\n", args.out, "latency report")
    write_out(report.to_json() + "\n", args.json, "json report")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """submit one job to a fresh service and report it"""
    server = SimServer(serve_config(args))
    spec = JobSpec(
        tenant=args.tenant,
        model=args.model,
        cores=args.cores,
        ticks=args.ticks,
        priority=args.priority,
        seed=args.model_seed,
        deadline_us=args.deadline_us,
    )
    jid = server.submit(spec, at_us=0.0)
    server.run()
    job = server.jobs[jid]
    if job.status != DONE:
        print(f"job {jid} rejected: {job.reject_reason}", file=sys.stderr)
        return 1
    deadline = (
        "missed" if job.deadline_missed
        else ("met" if spec.deadline_us is not None else "none")
    )
    print(
        f"job {jid} done: latency={job.latency_us:.1f}us "
        f"(wait={job.wait_us:.1f}us run={job.run_us:.1f}us), "
        f"batch={job.batch_id} size={job.batch_size}, deadline={deadline}"
    )
    return 0


def _jsonl_sink(stack: ExitStack, path: str):  # repro: obs-flush
    """A record-per-line JSONL sink on ``path``; ``stack`` closes the file."""
    fh = stack.enter_context(open(path, "w"))
    return lambda record: fh.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_shard_run(args: argparse.Namespace) -> int:
    """run a seeded fleet-scale load and print the FleetReport"""
    # Shard servers account for completions in fleet hooks, so per-job
    # records are dropped as they finish: memory stays O(latencies).
    serve = replace(serve_config(args), keep_records=False)
    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(
            interval_us=args.scale_interval_us,
            high_depth_per_worker=args.scale_high,
            low_depth_per_worker=args.scale_low,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            cooldown_intervals=args.scale_cooldown,
        )
    telemetry = None
    if args.slo or args.rollups or args.alerts:
        target = args.slo_target_us or args.deadline_us or 100_000.0
        telemetry = TelemetryConfig(
            window_us=args.window_us,
            slos=(SLO("latency", target, args.slo_budget),),
        )
    config = FleetConfig(
        shards=args.shards,
        spill=args.spill,
        hot_depth=args.hot_depth,
        serve=serve,
        autoscale=autoscale,
        fault_shard=args.fault_shard if serve.fault_schedule is not None else -1,
        telemetry=telemetry,
    )
    router = ShardRouter(
        config, obs=Observability.with_tracing() if args.events else None
    )
    streams = []
    with ExitStack() as stack:
        if router.telemetry is not None:
            if args.rollups:
                router.telemetry.rollup_sink = _jsonl_sink(stack, args.rollups)
                streams.append(("rollup stream", args.rollups))
            if args.alerts:
                router.telemetry.alert_sink = _jsonl_sink(stack, args.alerts)
                streams.append(("alert log", args.alerts))
        load = fleet_open_loop(
            router,
            rate_per_s=args.rate,
            jobs=args.jobs,
            tenants=args.tenants,
            hot_fraction=args.hot_fraction,
            hot_tenants=args.hot_tenants,
            **job_stream(args),
        )
        router.run()
    for label, path in streams:
        print(f"wrote {label}: {path}")
    report = build_fleet_report(router)
    text = report.format()
    print(f"offered={load.offered} routed={load.routed} "
          f"fleet_rejected={load.fleet_rejected}\n")
    print(text)
    if args.events:
        path = write_event_log(router.obs.tracer, args.events)
        print(f"wrote event log: {path} (inspect with 'repro obs journey')")
    write_out(text + "\n", args.out, "fleet report")
    write_out(report.to_json() + "\n", args.json, "json report")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """pretty-print a JSON report written by 'run --json'"""
    kind = {"serve": loadgen.LatencyReport, "shard": FleetReport}[args.command]
    text = Path(args.report).read_bytes()
    print(kind.from_json(text, source=args.report).format())
    return 0


def add_server_flags(q: argparse.ArgumentParser, ticks: int | None = None) -> None:
    """One service's layout, batching policy, job model and armed crash."""
    q.add_argument("--workers", type=positive_int, default=2)
    common.add_layout(q, ticks=ticks, processes=1, pgas=True)
    q.add_argument(
        "--max-batch",
        type=positive_int,
        default=8,
        help="launch as soon as this many compatible jobs wait",
    )
    q.add_argument(
        "--batch-delay-us",
        type=non_negative_float,
        default=0.0,
        help="hold the queue head up to this long (simulated us) "
        "waiting for batch companions",
    )
    q.add_argument("--queue-capacity", type=positive_int, default=256)
    common.add_model(q, cores=8, seed=False)
    q.add_argument("--model-seed", type=int, default=42)
    q.add_argument(
        "--deadline-us",
        type=positive_float,
        default=None,
        help="SLO deadline per job (simulated us; default: no SLO)",
    )
    common.add_crash_at(
        q,
        help="inject a rank crash into the first launched batch "
        "(repeatable; mpi backend only)",
    )


def register(sub: argparse._SubParsersAction) -> None:
    serve_sub = common.family(
        sub, "serve", "deterministic multi-tenant simulation service"
    )

    q = command(serve_sub, "run", _cmd_serve_run)
    add_server_flags(q)
    q.add_argument("--mode", choices=("open", "closed"), default="open")
    common.add_load(q, tenants=2, rate=100.0, jobs=50)
    q.add_argument("--clients", type=positive_int, default=4)
    q.add_argument("--jobs-per-client", type=positive_int, default=8)
    q.add_argument("--think-us", type=non_negative_float, default=1000.0)
    common.add_report_out(q)

    q = command(serve_sub, "submit", _cmd_submit)
    add_server_flags(q, ticks=20)
    q.add_argument("--tenant", default="tenant-a")
    q.add_argument(
        "--priority", type=int, default=4, help="0 (urgent) .. 9 (batch)"
    )

    shard_sub = common.family(
        sub, "shard", "sharded multi-cluster fleet over the serve tier"
    )

    q = command(shard_sub, "run", _cmd_shard_run)
    add_server_flags(q)
    q.add_argument("--shards", type=positive_int, default=4)
    q.add_argument(
        "--spill",
        type=int,
        default=1,
        help="clockwise neighbor shards a hot shard may overflow onto "
        "(0 disables spill-over)",
    )
    q.add_argument(
        "--hot-depth",
        type=positive_int,
        default=32,
        help="queue depth at which the home shard counts as hot",
    )
    q.add_argument(
        "--fault-shard",
        type=int,
        default=0,
        help="shard whose server arms --crash-at faults",
    )
    q.add_argument(
        "--autoscale",
        action="store_true",
        help="enable per-shard watermark autoscaling",
    )
    q.add_argument("--scale-interval-us", type=positive_float, default=50_000.0)
    q.add_argument(
        "--scale-high",
        type=positive_float,
        default=4.0,
        help="grow watermark: queue depth per worker",
    )
    q.add_argument(
        "--scale-low",
        type=non_negative_float,
        default=1.0,
        help="shrink watermark: queue depth per worker",
    )
    q.add_argument("--min-workers", type=positive_int, default=1)
    q.add_argument("--max-workers", type=positive_int, default=8)
    q.add_argument("--scale-cooldown", type=positive_int, default=2)
    common.add_load(
        q,
        tenants=100,
        rate=400.0,
        jobs=400,
        tenants_help="synthetic tenant population size (names t0..tN-1)",
    )
    q.add_argument(
        "--hot-fraction",
        type=non_negative_float,
        default=0.0,
        help="fraction of traffic concentrated on the first "
        "--hot-tenants tenants (popularity skew)",
    )
    q.add_argument("--hot-tenants", type=positive_int, default=1)
    q.add_argument(
        "--slo",
        action="store_true",
        help="enable live telemetry: windowed rollups + burn-rate alerting",
    )
    q.add_argument(
        "--window-us",
        type=positive_float,
        default=50_000.0,
        help="rollup window length (simulated us)",
    )
    q.add_argument(
        "--slo-target-us",
        type=positive_float,
        default=None,
        help="SLO latency target (default: --deadline-us, else 100000)",
    )
    q.add_argument(
        "--slo-budget",
        type=positive_float,
        default=0.05,
        help="SLO error budget (fraction of jobs allowed over target)",
    )
    q.add_argument("--rollups", help="stream rollup records here (.jsonl)")
    q.add_argument("--alerts", help="stream the alert log here (.jsonl)")
    q.add_argument(
        "--events",
        help="trace the run and write the JSONL event log here "
        "(enables causal job traces; see 'repro obs journey')",
    )
    common.add_report_out(q)

    for tier in (serve_sub, shard_sub):
        q = command(tier, "report", _cmd_report)
        q.add_argument("report", help="JSON report file")
