"""PGAS vs MPI real-time comparison — Fig 7 (§VII).

The paper's protocol: find the largest system simulable in real time on
four Blue Gene/P racks (81K cores under PGAS), then strong-scale the same
system down to one rack, reporting for each point the best-performing
thread configuration per implementation.  The reported result: PGAS runs
1000 ticks in 1 second on four racks; MPI takes 2.1× as long.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import PhaseTimes
from repro.perf.costmodel import phase_times_mpi, phase_times_pgas
from repro.perf.report import format_table
from repro.perf.traffic import SyntheticTraffic
from repro.runtime.machine import BLUE_GENE_P, MachineConfig, MachineSpec

#: Fig 7's system size: 81K TrueNorth cores.
REALTIME_CORES = 81920
DEFAULT_RACKS = (1, 2, 4)
TICKS = 1000

#: Candidate (procs_per_node, threads_per_proc) configurations on BG/P.
MPI_CONFIGS = ((1, 4), (2, 2), (4, 1))
#: "For all configurations, we show the result for the PGAS implementation
#: with four UPC instances (each having one thread) per node."
PGAS_CONFIGS = ((4, 1),)


@dataclass
class RealtimePoint:
    backend: str
    racks: float
    nodes: int
    cpus: int
    procs_per_node: int
    threads_per_proc: int
    seconds: float  #: wall time for TICKS ticks
    per_tick: PhaseTimes

    @property
    def realtime(self) -> bool:
        """1000 ticks within one second = real time."""
        return self.seconds <= TICKS * 1e-3 * 1.05  # 5% measurement slack


def _evaluate(
    backend: str,
    traffic: SyntheticTraffic,
    machine: MachineSpec,
    nodes: int,
    ppn: int,
    tpp: int,
    ticks: int,
) -> RealtimePoint:
    ts = traffic.summary(nodes, ppn)
    mc = MachineConfig(machine, nodes=nodes, procs_per_node=ppn, threads_per_proc=tpp)
    per_tick = phase_times_mpi(ts, mc) if backend == "mpi" else phase_times_pgas(ts, mc)
    return RealtimePoint(
        backend=backend,
        racks=nodes / machine.nodes_per_rack,
        nodes=nodes,
        cpus=nodes * machine.cpu_cores_per_node,
        procs_per_node=ppn,
        threads_per_proc=tpp,
        seconds=per_tick.total * ticks,
        per_tick=per_tick,
    )


def realtime_series(
    n_cores: int = REALTIME_CORES,
    racks: tuple[int, ...] = DEFAULT_RACKS,
    machine: MachineSpec = BLUE_GENE_P,
    rate_hz: float = 10.0,
    local_fraction: float = 0.75,
    ticks: int = TICKS,
) -> list[RealtimePoint]:
    """Fig 7: best-config MPI and PGAS times per rack count."""
    traffic = SyntheticTraffic(n_cores, rate_hz, local_fraction)
    points: list[RealtimePoint] = []
    for r in racks:
        nodes = machine.nodes_per_rack * r
        best_mpi = min(
            (
                _evaluate("mpi", traffic, machine, nodes, ppn, tpp, ticks)
                for ppn, tpp in MPI_CONFIGS
            ),
            key=lambda p: p.seconds,
        )
        best_pgas = min(
            (
                _evaluate("pgas", traffic, machine, nodes, ppn, tpp, ticks)
                for ppn, tpp in PGAS_CONFIGS
            ),
            key=lambda p: p.seconds,
        )
        points.extend([best_pgas, best_mpi])
    return points


def max_realtime_cores(
    backend: str = "pgas",
    racks: int = 4,
    machine: MachineSpec = BLUE_GENE_P,
    rate_hz: float = 10.0,
    local_fraction: float = 0.75,
    tolerance: int = 1024,
) -> int:
    """Largest core count simulable in real time (bisection over sizes).

    The paper's protocol step one: "We began by finding the largest size
    of system we could simulate in real time on all four racks."
    """
    nodes = machine.nodes_per_rack * racks
    configs = PGAS_CONFIGS if backend == "pgas" else MPI_CONFIGS

    def tick_seconds(cores: int) -> float:
        traffic = SyntheticTraffic(cores, rate_hz, local_fraction)
        return min(
            _evaluate(backend, traffic, machine, nodes, ppn, tpp, 1).seconds
            for ppn, tpp in configs
        )

    lo, hi = tolerance, tolerance
    while tick_seconds(hi) <= 1e-3:
        lo, hi = hi, hi * 2
        if hi > 2**28:  # safety rail
            return hi
    while hi - lo > tolerance:
        mid = (lo + hi) // 2
        if tick_seconds(mid) <= 1e-3:
            lo = mid
        else:
            hi = mid
    return lo


def fig7_table(series: list[RealtimePoint] | None = None) -> str:
    """Fig 7 as text: best-config time per backend and rack count, plus
    the real-time frontier of each backend on four racks."""
    rows = [
        (
            p.backend.upper(),
            f"{p.racks:g}",
            p.cpus,
            f"{p.procs_per_node}x{p.threads_per_proc}",
            round(p.seconds, 2),
            "yes" if p.realtime else "no",
        )
        for p in series or realtime_series()
    ]
    table = format_table(
        ["impl", "racks", "cpus", "cfg", "sec/1000 ticks", "real-time"],
        rows,
        title="Fig 7: PGAS vs MPI, 81K cores on Blue Gene/P "
        "(paper: PGAS 1.0 s @ 4 racks, MPI 2.1x)",
    )
    return table + (
        f"\nreal-time frontier @ 4 racks: PGAS {max_realtime_cores('pgas', 4)} cores, "
        f"MPI {max_realtime_cores('mpi', 4)} cores (paper: 81K under PGAS)"
    )
