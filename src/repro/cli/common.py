"""What every command family shares: flags, run requests, report output.

* A flag that more than one command takes is defined in exactly one
  ``add_*`` group; a command takes the group by calling it and states
  its own defaults there.
* ``network_from`` / ``layout_from`` / ``backend_from`` /
  ``resilient_runner`` turn parsed groups into what a run needs.  They
  validate nothing: a layout or model that cannot exist is refused,
  typed, by whoever decides it (``Partition``, ``cores_per_region``, the
  loaders), and ``main`` prints every ``ReproError`` the same way.
* ``write_out`` is the only writer behind ``--out``-style flags.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import resilience
from repro.arch.network import CoreNetwork
from repro.core.config import CompassConfig
from repro.exec import make_adapter
from repro.obs import Observability
from repro.serve.jobs import MODELS
from repro.serve.server import load_network
from repro.util.argtypes import crash_spec, message_spec, positive_float, positive_int

#: ``--cores`` default of the macaque model wherever ``--model`` picks it.
MACAQUE_CORES = 128

#: The message faults of the faults group: flag → (event, verb of its help).
MESSAGE_FAULTS = {
    "--drop-at": (resilience.MessageDrop, "drop"),
    "--dup-at": (resilience.MessageDuplicate, "duplicate"),
    "--corrupt-at": (resilience.MessageCorruption, "corrupt"),
}


# -- the argument vocabulary -------------------------------------------------


def family(sub: argparse._SubParsersAction, name: str, help: str):
    """A command that only groups subcommands; returns where they hang."""
    group = sub.add_parser(name, help=help)
    return group.add_subparsers(dest=f"{name}_command", required=True)


def command(
    sub: argparse._SubParsersAction, name: str, func, help: str | None = None
) -> argparse.ArgumentParser:
    """A leaf command bound to its handler ``func(args) -> exit code``.

    The first line of the handler's docstring is the command's help.
    """
    p = sub.add_parser(name, help=help or (func.__doc__ or "").partition("\n")[0])
    p.set_defaults(func=func)
    return p


def add_layout(
    p: argparse.ArgumentParser,
    *,
    processes: int,
    ticks: int | None = None,
    threads: int | None = None,
    pgas: bool = False,
) -> None:
    """The layout group: ``--ticks --processes --threads --pgas``.

    The values are this command's defaults; a flag left at ``None`` /
    ``False`` is one the command does not take.
    """
    if ticks is not None:
        p.add_argument("--ticks", type=positive_int, default=ticks)
    p.add_argument("--processes", type=positive_int, default=processes)
    if threads is not None:
        p.add_argument("--threads", type=positive_int, default=threads)
    if pgas:
        p.add_argument("--pgas", action="store_true", help="use the PGAS backend")


def add_model(
    p: argparse.ArgumentParser,
    *,
    cores: int | None = None,
    quickstart_cores: int | None = None,
    kinds: bool = True,
    seed: bool = True,
) -> None:
    """The model group: ``--model --cores --seed``.

    A command gives ``--cores`` either one default (``cores``) or, when
    the right size depends on the model kind, ``quickstart_cores`` (the
    macaque default is :data:`MACAQUE_CORES`); ``network_from`` resolves
    it.  ``kinds=False`` / ``seed=False`` leave ``--model`` / ``--seed``
    out for commands that fix the kind or name their seed otherwise.
    """
    if kinds:
        p.add_argument("--model", choices=MODELS, default="quickstart")
    size = "network size"
    if cores is None:
        size += f" (default: {quickstart_cores} quickstart, {MACAQUE_CORES} macaque)"
        p.set_defaults(quickstart_cores=quickstart_cores)
    p.add_argument("--cores", type=positive_int, default=cores, help=size)
    if seed:
        p.add_argument("--seed", type=int, default=0, help="model seed")


def add_crash_at(
    p: argparse.ArgumentParser, help: str = "kill RANK at TICK (repeatable)"
) -> None:
    p.add_argument(
        "--crash-at", action="append", type=crash_spec, metavar="TICK:RANK", help=help
    )


def add_faults(p: argparse.ArgumentParser) -> None:
    """The faults group: explicit fault events and how to recover."""
    add_crash_at(p)
    for flag, (_, verb) in MESSAGE_FAULTS.items():
        p.add_argument(
            flag,
            action="append",
            type=message_spec,
            metavar="TICK:SRC:DEST",
            help=f"{verb} the first SRC→DEST message at/after TICK (repeatable)",
        )
    p.add_argument(
        "--interval", type=positive_int, default=10, help="checkpoint every N ticks"
    )
    p.add_argument("--policy", choices=("restart", "spare"), default="restart")


def add_load(
    p: argparse.ArgumentParser,
    *,
    tenants: int,
    rate: float,
    jobs: int,
    tenants_help: str | None = None,
) -> None:
    """The load group: the seeded open-loop job stream of a service run."""
    p.add_argument("--seed", type=int, default=0, help="load-generator seed")
    p.add_argument("--tenants", type=positive_int, default=tenants, help=tenants_help)
    p.add_argument(
        "--rate", type=positive_float, default=rate, help="open-loop jobs/s"
    )
    p.add_argument(
        "--jobs", type=positive_int, default=jobs, help="open-loop job count"
    )
    p.add_argument("--ticks-lo", type=positive_int, default=10)
    p.add_argument("--ticks-hi", type=positive_int, default=40)


def add_report_out(p: argparse.ArgumentParser) -> None:
    """The report-out group of a service run: ``--out`` and ``--json``."""
    p.add_argument("--out", help="write the text report here")
    p.add_argument("--json", help="write the JSON report here")


# -- the run request ---------------------------------------------------------


def network_from(
    args: argparse.Namespace, obs: Observability | None = None
) -> CoreNetwork:
    """The model group → the network (macaque compiles under ``obs``)."""
    cores = args.cores or (
        MACAQUE_CORES if args.model == "macaque" else args.quickstart_cores
    )
    return load_network(args.model, cores, args.seed, obs)


def layout_from(args: argparse.Namespace, record_spikes: bool = False) -> CompassConfig:
    """The layout group → the run's :class:`CompassConfig`."""
    return CompassConfig(
        n_processes=args.processes,
        threads_per_process=vars(args).get("threads", 1),
        record_spikes=record_spikes,
    )


def backend_from(args: argparse.Namespace) -> str:
    """``--backend`` where the command has one and it was given, else ``--pgas``."""
    backend = vars(args).get("backend")
    if backend is not None:
        return backend
    return "pgas" if args.pgas else "mpi"


def crash_events(args: argparse.Namespace) -> list:
    return [resilience.RankCrash(tick=t, rank=r) for t, r in args.crash_at or ()]


def fault_events(args: argparse.Namespace) -> list:
    """The faults group → its explicit events (empty when none were given)."""
    events = crash_events(args)
    for flag, (kind, _) in MESSAGE_FAULTS.items():
        specs = getattr(args, flag[2:].replace("-", "_")) or ()
        events += [kind(tick=t, source=s, dest=d) for t, s, d in specs]
    return events


def resilient_runner(
    args: argparse.Namespace,
    network: CoreNetwork,
    config: CompassConfig,
    schedule: resilience.FaultSchedule,
    obs: Observability | None = None,
) -> resilience.ResilientRunner:
    """The faults group → a recovery driver over a fresh MPI simulator."""
    return resilience.ResilientRunner(
        make_adapter("mpi", obs=obs).prepare(network, config),
        schedule=schedule,
        checkpoint_interval=args.interval,
        policy=resilience.RecoveryPolicy(kind=args.policy),
    )


# -- the report path ---------------------------------------------------------


def write_out(text: str, out: str | None, label: str) -> bool:  # repro: obs-flush
    """Write ``text`` to the file a flag named and say so; False without one."""
    if not out:
        return False
    Path(out).write_text(text)
    print(f"wrote {label}: {out}")
    return True


def emit(text: str, out: str | None, label: str) -> None:
    """Write ``text`` to ``--out`` and say so, else print it."""
    if not write_out(text, out, label):
        print(text, end="")
