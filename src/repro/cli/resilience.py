"""``resilience inject|report`` — run under a fault schedule and recover.

``inject`` verifies the recovered spike raster against an uninterrupted
run; ``report`` prints the recovery-overhead table
(``docs/resilience.md``).
"""

from __future__ import annotations

import argparse

from repro.cli import common
from repro.cli.common import command
from repro.resilience import FaultSchedule, spike_digest
from repro.util.argtypes import non_negative_int

#: The random-faults group: fault kind → default count in a seeded schedule.
RANDOM_FAULTS = {"crashes": 1, "drops": 0, "duplicates": 0, "corruptions": 0}


def _run(args: argparse.Namespace):
    """The faulted run both commands start from: (runner, result)."""
    events = common.fault_events(args)
    schedule = FaultSchedule(events) if events else FaultSchedule.random(
        seed=args.fault_seed,
        ticks=args.ticks,
        n_ranks=args.processes,
        **{kind: getattr(args, kind) for kind in RANDOM_FAULTS},
    )
    config = common.layout_from(args, record_spikes=True)
    runner = common.resilient_runner(
        args, common.network_from(args), config, schedule
    )
    return runner, runner.run(args.ticks)


def _cmd_inject(args: argparse.Namespace) -> int:
    """run under a fault schedule; recover and verify the raster"""
    runner, result = _run(args)
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
    digest = spike_digest(result.spikes)
    print(f"spike digest: {digest}")
    if args.verify:
        clean = runner.factory().run(args.ticks)
        ok = spike_digest(clean.spikes) == digest
        print(f"verify vs uninterrupted run: {'MATCH' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """run under a fault schedule; print the recovery-overhead report"""
    runner, result = _run(args)
    print(runner.report.format())
    sim_total = result.metrics.simulated.total
    if sim_total > 0:
        frac = runner.report.overhead_fraction(sim_total)
        print(f"\noverhead fraction of simulated run time: {frac:.1%}")
    return 0


def _add_run(q: argparse.ArgumentParser) -> None:
    """What both commands run: layout, model, faults, random faults."""
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


def register(sub: argparse._SubParsersAction) -> None:
    res_sub = common.family(
        sub, "resilience", "fault injection and checkpoint-based recovery"
    )
    q = command(res_sub, "inject", _cmd_inject)
    _add_run(q)
    q.add_argument(
        "--verify",
        action="store_true",
        help="also run uninterrupted and compare spike digests",
    )
    q = command(res_sub, "report", _cmd_report)
    _add_run(q)
