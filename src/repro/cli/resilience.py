"""``resilience inject`` — run under a fault schedule and recover.

It prints the recovery-overhead table (``docs/resilience.md``) and, with
``--verify``, checks the recovered spike raster and per-tick run record
against an uninterrupted run.
"""

from __future__ import annotations

import argparse

from repro.cli import common
from repro.cli.common import command
from repro.exec import make_adapter
from repro.resilience import FaultSchedule, spike_digest
from repro.util.argtypes import non_negative_int

#: The random-faults group: fault kind → default count in a seeded schedule.
RANDOM_FAULTS = {"crashes": 1, "drops": 0, "duplicates": 0, "corruptions": 0}


def _cmd_inject(args: argparse.Namespace) -> int:
    """run under a fault schedule; recover, report the overhead, verify"""
    events = common.fault_events(args)
    schedule = FaultSchedule(events) if events else FaultSchedule.random(
        seed=args.fault_seed,
        ticks=args.ticks,
        n_ranks=args.processes,
        **{kind: getattr(args, kind) for kind in RANDOM_FAULTS},
    )
    network = common.network_from(args)
    config = common.layout_from(args, record_spikes=True)
    runner = common.resilient_runner(args, network, config, schedule)
    result = runner.run(args.ticks)
    inj = runner.injector
    print(
        f"ran {args.ticks} ticks on {args.processes} ranks under "
        f"{len(runner.schedule)} fault event(s) (policy={args.policy}, "
        f"interval={args.interval})"
    )
    print(
        f"faults: {len(inj.crashes)} crash(es), {inj.dropped} dropped, "
        f"{inj.duplicated} duplicated, {inj.corrupted} corrupted; "
        f"{len(runner.report.failures)} recovery(ies), "
        f"{runner.report.lost_ticks} lost tick(s)"
    )
    print(runner.report.format())
    digest = spike_digest(result.spikes)
    print(f"spike digest: {digest}")
    if args.verify:
        clean = make_adapter("mpi").prepare(network, config).run(args.ticks)
        ok = spike_digest(clean.spikes) == digest and (
            clean.metrics.per_tick == result.metrics.per_tick
        )
        print(f"verify vs uninterrupted run: {'MATCH' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    res_sub = common.family(
        sub, "resilience", "fault injection and checkpoint-based recovery"
    )
    q = command(res_sub, "inject", _cmd_inject)
    common.add_layout(q, ticks=60, processes=2)
    common.add_model(q, quickstart_cores=8)
    common.add_faults(q)
    q.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for a random schedule (when no explicit events given)",
    )
    for kind, default in RANDOM_FAULTS.items():
        q.add_argument(
            f"--{kind}",
            type=non_negative_int,
            default=default,
            help=f"{kind} in the random schedule",
        )
    q.add_argument(
        "--verify",
        action="store_true",
        help="also run uninterrupted and compare spike digests and per-tick records",
    )
