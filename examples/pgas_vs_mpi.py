#!/usr/bin/env python
"""PGAS vs MPI (§VII): functional equivalence plus the Fig 7 reproduction.

Part 1 runs the *same* network on both communication backends and checks
the spike rasters are identical — the property (§VII-A) that makes
one-sided communication legal.

Part 2 evaluates the calibrated Blue Gene/P model to regenerate Fig 7:
real-time simulation of 81K TrueNorth cores, strong-scaled over 1-4 racks,
best thread configuration per point.

Run:  python examples/pgas_vs_mpi.py
"""

import numpy as np

from repro import Compass, PgasCompass, build_quickstart_network
from repro.core.config import CompassConfig
from repro.perf.realtime import max_realtime_cores, realtime_series
from repro.perf.report import format_table


def functional_equivalence() -> None:
    net = build_quickstart_network(n_cores=8, seed=3)
    mpi = Compass(net, CompassConfig(n_processes=4, record_spikes=True))
    pgas = PgasCompass(net, CompassConfig(n_processes=4, record_spikes=True))
    mpi.run(100)
    pgas.run(100)
    same = all(
        np.array_equal(a, b)
        for a, b in zip(mpi.recorder.to_arrays(), pgas.recorder.to_arrays())
    )
    print("functional equivalence (identical rasters): "
          f"{'OK' if same else 'FAIL'}")
    print(f"  MPI backend:  {mpi.metrics.total_messages} messages, "
          f"{mpi.tick} reduce-scatters")
    print(f"  PGAS backend: {pgas.metrics.total_messages} one-sided puts, "
          f"{pgas.cluster.epoch} barriers")


def figure7() -> None:
    print("\nFig 7 reproduction: 81K cores, 1000 ticks, Blue Gene/P")
    rows = []
    for p in realtime_series():
        rows.append(
            (
                p.backend.upper(),
                f"{p.racks:g}",
                p.cpus,
                f"{p.procs_per_node}x{p.threads_per_proc}",
                round(p.seconds, 2),
                "yes" if p.realtime else "no",
            )
        )
    print(
        format_table(
            ["impl", "racks", "cpus", "cfg", "seconds", "real-time"],
            rows,
            title="(paper: PGAS 1.0 s at 4 racks; MPI 2.1x slower)",
        )
    )
    print(f"\nreal-time frontier at 4 racks: "
          f"PGAS {max_realtime_cores('pgas', 4)} cores, "
          f"MPI {max_realtime_cores('mpi', 4)} cores "
          f"(paper: 81K under PGAS)")


if __name__ == "__main__":
    functional_equivalence()
    figure7()
