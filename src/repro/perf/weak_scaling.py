"""Weak scaling reproduction — Fig 4(a) and Fig 4(b).

"Figure 4 shows the results of experiments in which we increased the
CoCoMac model size when increasing the available Blue Gene/Q CPU count,
while at the same time fixing the count of simulated TrueNorth cores per
node at 16384.  We ran with 1 MPI process per node and 32 OpenMP threads
per MPI process."  500 simulated ticks per point; the largest point is
256M cores on 16384 nodes (262144 CPUs), taking 194 s = 388× real time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cocomac.model import build_macaque_coreobject
from repro.core.metrics import PhaseTimes
from repro.perf.costmodel import phase_times_mpi, run_times
from repro.perf.report import format_table
from repro.perf.traffic import CocomacTraffic
from repro.runtime.machine import BLUE_GENE_Q, MachineConfig, MachineSpec

#: The paper's sweep: 1, 2, 4, 8, 16 racks of Blue Gene/Q.
DEFAULT_RACKS = (1, 2, 4, 8, 16)
CORES_PER_NODE = 16384
TICKS = 500


@dataclass
class WeakScalingPoint:
    """One point of the Fig 4 sweep."""

    racks: float
    nodes: int
    cpus: int
    cores: int
    neurons: int
    ticks: int
    times: PhaseTimes  #: whole-run phase breakdown (Fig 4a)
    messages_per_tick: float  #: Fig 4b, message series
    spikes_per_tick: float  #: Fig 4b, white-matter spike series
    bytes_per_tick: float
    mean_rate_hz: float

    @property
    def slowdown(self) -> float:
        """Wall time over simulated time (388× at the largest point)."""
        return self.times.total / (self.ticks * 1e-3)


def weak_scaling_point(
    nodes: int,
    cores_per_node: int = CORES_PER_NODE,
    ticks: int = TICKS,
    threads: int = 32,
    machine: MachineSpec = BLUE_GENE_Q,
    seed: int = 0,
) -> WeakScalingPoint:
    """Evaluate one weak-scaling configuration through the model."""
    total_cores = nodes * cores_per_node
    model = build_macaque_coreobject(total_cores, seed=seed)
    traffic = CocomacTraffic(model)
    ts = traffic.summary(n_processes=nodes)
    mc = MachineConfig(machine, nodes=nodes, procs_per_node=1, threads_per_proc=threads)
    per_tick = phase_times_mpi(ts, mc)
    return WeakScalingPoint(
        racks=nodes / machine.nodes_per_rack,
        nodes=nodes,
        cpus=nodes * machine.cpu_cores_per_node,
        cores=total_cores,
        neurons=total_cores * 256,
        ticks=ticks,
        times=run_times(per_tick, ticks),
        messages_per_tick=ts.messages,
        spikes_per_tick=ts.white_spikes,
        bytes_per_tick=ts.bytes_per_tick,
        mean_rate_hz=traffic.mean_rate_hz,
    )


def weak_scaling_series(
    racks: tuple[int, ...] = DEFAULT_RACKS,
    cores_per_node: int = CORES_PER_NODE,
    ticks: int = TICKS,
    threads: int = 32,
    machine: MachineSpec = BLUE_GENE_Q,
    seed: int = 0,
) -> list[WeakScalingPoint]:
    """The full Fig 4 sweep."""
    return [
        weak_scaling_point(
            machine.nodes_per_rack * r, cores_per_node, ticks, threads, machine, seed
        )
        for r in racks
    ]


def fig4a_table(series: list[WeakScalingPoint] | None = None) -> str:
    """Fig 4(a) as text: total runtime and its phase breakdown per point."""
    rows = [
        (
            f"{p.racks:g}",
            p.cpus,
            f"{p.cores/2**20:.0f}M",
            round(p.times.synapse, 1),
            round(p.times.neuron, 1),
            round(p.times.network, 1),
            round(p.times.total, 1),
            f"{p.slowdown:.0f}x",
        )
        for p in series or weak_scaling_series()
    ]
    return format_table(
        ["racks", "cpus", "cores", "synapse_s", "neuron_s", "network_s", "total_s", "slowdown"],
        rows,
        title="Fig 4(a): weak scaling, 16384 cores/node, 500 ticks "
        "(paper: ~165 s -> 194 s; 388x at 256M cores)",
    )


def fig4b_table(series: list[WeakScalingPoint] | None = None) -> str:
    """Fig 4(b) as text: MPI messages, white-matter spikes and bytes per tick."""
    rows = [
        (
            f"{p.racks:g}",
            p.cpus,
            f"{p.messages_per_tick/1e6:.2f}M",
            f"{p.spikes_per_tick/1e6:.2f}M",
            f"{p.bytes_per_tick/1e9:.2f}",
            f"{p.messages_per_tick/p.nodes:.0f}",
        )
        for p in series or weak_scaling_series()
    ]
    return format_table(
        ["racks", "cpus", "msgs/tick", "spikes/tick", "GB/tick", "msgs/proc"],
        rows,
        title="Fig 4(b): messaging per tick "
        "(paper: ~22M spikes = 0.44 GB at 16 racks; sub-linear message growth)",
    )
