"""Strong scaling reproduction — Fig 5.

"... we fixed the CoCoMac model size at 32M TrueNorth cores (8.2B neurons)
while increasing the available Blue Gene/Q CPU count.  Simulating 32M
cores takes 324 seconds on 16384 Blue Gene/Q CPUs (1 rack; the baseline),
47 seconds on 131072 CPUs (8 racks; a speed-up of 6.9×), and 37 seconds on
262144 CPUs (16 racks; a speed-up of 8.8×)."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cocomac.model import build_macaque_coreobject
from repro.core.metrics import PhaseTimes
from repro.perf.costmodel import phase_times_mpi, run_times
from repro.perf.report import format_table
from repro.perf.traffic import CocomacTraffic
from repro.runtime.machine import BLUE_GENE_Q, MachineConfig, MachineSpec

FIXED_CORES = 32 * 2**20  #: 32M TrueNorth cores
DEFAULT_RACKS = (1, 2, 4, 8, 16)
TICKS = 500


@dataclass
class StrongScalingPoint:
    racks: float
    nodes: int
    cpus: int
    cores_per_node: float
    times: PhaseTimes
    speedup: float = 1.0  #: vs the 1-rack baseline, filled by the series


def strong_scaling_series(
    total_cores: int = FIXED_CORES,
    racks: tuple[int, ...] = DEFAULT_RACKS,
    ticks: int = TICKS,
    threads: int = 32,
    machine: MachineSpec = BLUE_GENE_Q,
    seed: int = 0,
) -> list[StrongScalingPoint]:
    """The full Fig 5 sweep over a fixed model size."""
    model = build_macaque_coreobject(total_cores, seed=seed)
    traffic = CocomacTraffic(model)
    points: list[StrongScalingPoint] = []
    for r in racks:
        nodes = machine.nodes_per_rack * r
        ts = traffic.summary(n_processes=nodes)
        mc = MachineConfig(
            machine, nodes=nodes, procs_per_node=1, threads_per_proc=threads
        )
        per_tick = phase_times_mpi(ts, mc)
        points.append(
            StrongScalingPoint(
                racks=nodes / machine.nodes_per_rack,
                nodes=nodes,
                cpus=nodes * machine.cpu_cores_per_node,
                cores_per_node=total_cores / nodes,
                times=run_times(per_tick, ticks),
            )
        )
    baseline = points[0].times.total
    for p in points:
        p.speedup = baseline / p.times.total
    return points


def fig5_table(series: list[StrongScalingPoint] | None = None) -> str:
    """Fig 5 as text: phase breakdown and speed-up per rack count."""
    rows = [
        (
            f"{p.racks:g}",
            p.cpus,
            f"{p.cores_per_node:.0f}",
            round(p.times.synapse, 1),
            round(p.times.neuron, 1),
            round(p.times.network, 1),
            round(p.times.total, 1),
            f"{p.speedup:.1f}x",
        )
        for p in series or strong_scaling_series()
    ]
    return format_table(
        ["racks", "cpus", "cores/node", "synapse_s", "neuron_s", "network_s", "total_s", "speedup"],
        rows,
        title="Fig 5: strong scaling, fixed 32M cores, 500 ticks "
        "(paper: 324 s baseline; 6.9x @ 8 racks; 8.8x @ 16 racks)",
    )
