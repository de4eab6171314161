"""``compile``, ``run``, ``exec run``, ``export``, ``figures``.

Build a model and run it once: the PCC, a simulation on the default or a
chosen execution backend (``docs/execution.md``), the macaque model's
export, and the paper's evaluation tables.
"""

from __future__ import annotations

import argparse

from repro.analysis.stats import spike_train_stats
from repro.cli import common
from repro.cli.common import command, family
from repro.cocomac.export import export_model
from repro.cocomac.model import build_macaque_coreobject
from repro.compiler.coreobject import CoreObject
from repro.compiler.diskmodel import write_model_file
from repro.compiler.pcc import ParallelCompassCompiler
from repro.core.profiling import profile_report
from repro.errors import ExecError
from repro.exec import make_adapter
from repro.perf import FIGURE_TABLES
from repro.serve.server import load_network
from repro.util.argtypes import positive_int

FIGURES = ("fig4a", "fig4b", "fig5", "fig6", "fig7", "headline")

#: Host processes ``exec run`` gives the pool when ``--workers`` is left out.
_POOL_WORKERS = 2

#: Cores of ``run quickstart``: the 4-core ring of examples/quickstart.py.
_QUICKSTART_CORES = 4


def _cmd_compile(args: argparse.Namespace) -> int:
    """compile a CoreObject JSON file"""
    obj = CoreObject.from_json(args.coreobject)
    compiled = ParallelCompassCompiler().compile(obj)
    m = compiled.metrics
    print(
        f"compiled {obj.name!r}: {compiled.network.n_cores} cores, "
        f"{m.total_connections} connections "
        f"({m.white_matter_connections} white / {m.gray_matter_connections} gray) "
        f"in {m.wall_seconds:.2f}s, {m.exchange_messages} wiring exchanges"
    )
    if args.output:
        n = write_model_file(compiled.network, args.output)
        print(f"wrote explicit model: {args.output} ({n} bytes)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """simulate a model

    Serves ``run`` and ``exec run``; the latter adds ``--backend --workers``.
    """
    # A model file carries its own size and seed.
    cores = common.MACAQUE_CORES if args.model == "macaque" else _QUICKSTART_CORES
    network = load_network(args.model, cores=cores, seed=42)
    backend = common.backend_from(args)
    host = {}
    if backend == "pool":
        host["workers"] = args.workers or _POOL_WORKERS
    elif vars(args).get("workers") is not None:
        raise ExecError(
            f"--workers sets the pool's host processes; backend {backend!r} has none"
        )
    config = common.layout_from(args, record_spikes=args.stats)
    with make_adapter(backend, **host) as sim:
        sim.prepare(network, config)
        result = sim.run(args.ticks)
        print(
            f"ran {args.ticks} ticks on {args.processes} processes ({backend}): "
            f"{result.total_spikes} spikes, {result.mean_rate_hz:.2f} Hz, "
            f"{sim.metrics.messages_per_tick():.1f} msgs/tick, "
            f"host {sim.metrics.host.total:.2f}s"
        )
        if hasattr(sim, "host_utilization"):
            u = sim.host_utilization()
            print(
                f"host cores: {u['workers']} worker(s), "
                f"cpu {u['cpu_s']:.2f}s / wall {u['wall_s']:.2f}s = "
                f"{u['utilization']:.2f}x core utilization"
            )
        if args.stats:
            s = spike_train_stats(sim.recorder, network.n_neurons, args.ticks)
            print(
                f"stats: isi_cv={s.isi_cv:.2f} synchrony={s.synchrony:.2f} "
                f"active={s.active_fraction:.0%}"
            )
        if args.profile:
            print(profile_report(sim.sim))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """export the synthetic CoCoMac model (GraphML/CSV/JSON)"""
    model = build_macaque_coreobject(total_cores=args.cores, seed=args.seed)
    for path in export_model(model, args.directory):
        print(f"wrote {path}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    """regenerate paper evaluation tables"""
    wanted = FIGURES if args.name == "all" else (args.name,)
    print("\n\n".join(FIGURE_TABLES[name]() for name in wanted))
    return 0


def _add_run_args(p: argparse.ArgumentParser, pgas: bool) -> None:
    p.add_argument(
        "model",
        help=f"explicit model .npz, 'quickstart' ({_QUICKSTART_CORES} cores) "
        f"or 'macaque' ({common.MACAQUE_CORES} cores)",
    )
    common.add_layout(p, ticks=100, processes=1, threads=1, pgas=pgas)
    p.add_argument("--stats", action="store_true", help="spike-train statistics")
    p.add_argument("--profile", action="store_true", help="per-rank load profile")


def register(sub: argparse._SubParsersAction) -> None:
    p = command(sub, "compile", _cmd_compile)
    p.add_argument("coreobject", help="path to a CoreObject .json")
    p.add_argument("-o", "--output", help="write the explicit model (.npz)")

    _add_run_args(command(sub, "run", _cmd_run), pgas=True)

    exec_sub = family(
        sub,
        "exec",
        "execution backends: adapter-driven runs (see docs/execution.md)",
    )
    q = command(
        exec_sub, "run", _cmd_run, "simulate a model on an explicitly chosen backend"
    )
    _add_run_args(q, pgas=False)  # said as --backend pgas here
    q.add_argument(
        "--backend",
        default="sequential",
        help="execution backend name (see docs/execution.md; default: sequential)",
    )
    q.add_argument(
        "--workers",
        type=positive_int,
        help=f"host worker processes (pool only; default: {_POOL_WORKERS})",
    )

    p = command(sub, "export", _cmd_export)
    p.add_argument("directory", help="output directory")
    common.add_model(p, cores=1024, kinds=False)

    p = command(sub, "figures", _cmd_figures)
    p.add_argument("name", choices=FIGURES + ("all",), nargs="?", default="all")
