"""OpenMP thread scaling reproduction — Fig 6 and the §VI-D trade-off.

Fig 6: a fixed 64M-core CoCoMac model on 65536 CPUs (4096 nodes, four
racks), one MPI process per node, sweeping the OpenMP team size; speed-up
is reported against the one-thread baseline (15 of 16 CPU cores idle).
Perfect scaling is prevented by the critical section in the Network phase
receive loop.

§VI-D also reports that trading MPI processes for OpenMP threads within a
node changes little: a smaller communicator shrinks the Reduce-Scatter,
but wider shared-memory regions pay more false sharing.
:func:`procs_threads_tradeoff` reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cocomac.model import build_macaque_coreobject
from repro.core.metrics import PhaseTimes
from repro.perf.costmodel import phase_times_mpi, run_times
from repro.perf.report import format_table
from repro.perf.traffic import CocomacTraffic
from repro.runtime.machine import BLUE_GENE_Q, MachineConfig, MachineSpec

FIXED_CORES = 64 * 2**20  #: 64M TrueNorth cores
NODES = 4096  #: four racks
DEFAULT_THREADS = (1, 2, 4, 8, 16, 32)
TICKS = 500


@dataclass
class ThreadScalingPoint:
    threads: int
    procs_per_node: int
    times: PhaseTimes
    speedup_total: float = 1.0
    speedup_synapse: float = 1.0
    speedup_neuron: float = 1.0
    speedup_network: float = 1.0


def thread_scaling_series(
    total_cores: int = FIXED_CORES,
    nodes: int = NODES,
    threads: tuple[int, ...] = DEFAULT_THREADS,
    ticks: int = TICKS,
    machine: MachineSpec = BLUE_GENE_Q,
    seed: int = 0,
) -> list[ThreadScalingPoint]:
    """The Fig 6 sweep: one process per node, growing OpenMP teams."""
    model = build_macaque_coreobject(total_cores, seed=seed)
    traffic = CocomacTraffic(model)
    ts = traffic.summary(n_processes=nodes)
    points: list[ThreadScalingPoint] = []
    for t in threads:
        mc = MachineConfig(machine, nodes=nodes, procs_per_node=1, threads_per_proc=t)
        per_tick = phase_times_mpi(ts, mc)
        points.append(
            ThreadScalingPoint(
                threads=t, procs_per_node=1, times=run_times(per_tick, ticks)
            )
        )
    base = points[0].times
    for p in points:
        p.speedup_total = base.total / p.times.total
        p.speedup_synapse = base.synapse / p.times.synapse
        p.speedup_neuron = base.neuron / p.times.neuron
        p.speedup_network = base.network / p.times.network
    return points


def procs_threads_tradeoff(
    total_cores: int = FIXED_CORES,
    nodes: int = NODES,
    configs: tuple[tuple[int, int], ...] = ((1, 32), (2, 16), (4, 8), (8, 4), (16, 2)),
    ticks: int = TICKS,
    machine: MachineSpec = BLUE_GENE_Q,
    seed: int = 0,
) -> list[ThreadScalingPoint]:
    """§VI-D: (processes per node × threads per process) combinations.

    The paper observes near-identical totals for 1×32 and 16×2: the smaller
    Reduce-Scatter communicator of the wide-team configuration is offset by
    its false-sharing penalty.
    """
    model = build_macaque_coreobject(total_cores, seed=seed)
    traffic = CocomacTraffic(model)
    points: list[ThreadScalingPoint] = []
    for ppn, tpp in configs:
        ts = traffic.summary(n_processes=nodes * ppn)
        mc = MachineConfig(machine, nodes=nodes, procs_per_node=ppn, threads_per_proc=tpp)
        per_tick = phase_times_mpi(ts, mc)
        points.append(
            ThreadScalingPoint(
                threads=tpp, procs_per_node=ppn, times=run_times(per_tick, ticks)
            )
        )
    base = points[0].times
    for p in points:
        p.speedup_total = base.total / p.times.total
    return points


def fig6_table(series: list[ThreadScalingPoint] | None = None) -> str:
    """Fig 6 as text: total and per-phase speed-up per OpenMP team size."""
    rows = [
        (
            p.threads,
            round(p.times.total, 1),
            f"{p.speedup_total:.2f}x",
            f"{p.speedup_synapse:.2f}x",
            f"{p.speedup_neuron:.2f}x",
            f"{p.speedup_network:.2f}x",
        )
        for p in series or thread_scaling_series()
    ]
    return format_table(
        ["threads", "total_s", "speedup", "synapse", "neuron", "network"],
        rows,
        title="Fig 6: thread scaling, 64M cores on 4096 nodes "
        "(paper: excellent but sub-linear; Network limited by a critical section)",
    )
