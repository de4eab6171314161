"""Performance reproduction: regenerate every figure of §VI and §VII.

The functional simulator is exact but laptop-bound; the paper's evaluation
ran on up to 262144 CPUs.  This package reproduces the evaluation *shape*
by combining:

* the real CoCoMac-derived connection matrix (so message-count
  sub-linearity and regional imbalance emerge from the actual workload
  rather than from curve fitting) — :mod:`repro.perf.traffic`;
* the calibrated per-machine cost models of :mod:`repro.runtime.timing` —
  driven per region and per phase by :mod:`repro.perf.costmodel`;
* one driver per experiment: weak scaling (Fig 4a/4b), strong scaling
  (Fig 5), thread scaling (Fig 6), PGAS-vs-MPI real time (Fig 7), plus
  the headline scale table, PCC compile-time model, and the power
  estimate use-case.
"""

from repro.perf.traffic import CocomacTraffic, TrafficSummary, SyntheticTraffic
from repro.perf.costmodel import phase_times_mpi, phase_times_pgas
from repro.perf.weak_scaling import (
    weak_scaling_series,
    WeakScalingPoint,
    fig4a_table,
    fig4b_table,
)
from repro.perf.strong_scaling import strong_scaling_series, StrongScalingPoint, fig5_table
from repro.perf.thread_scaling import (
    thread_scaling_series,
    procs_threads_tradeoff,
    ThreadScalingPoint,
    fig6_table,
)
from repro.perf.realtime import (
    realtime_series,
    max_realtime_cores,
    RealtimePoint,
    fig7_table,
)
from repro.perf.headline import headline_summary, headline_table
from repro.perf.power import truenorth_power_watts, blue_gene_power_watts
from repro.perf.report import format_table

#: The one renderer per paper figure: ``repro figures NAME`` prints it and
#: ``benchmarks/`` compares it with the blessed table.
FIGURE_TABLES = {
    "fig4a": fig4a_table,
    "fig4b": fig4b_table,
    "fig5": fig5_table,
    "fig6": fig6_table,
    "fig7": fig7_table,
    "headline": headline_table,
}

__all__ = [
    "FIGURE_TABLES",
    "CocomacTraffic",
    "TrafficSummary",
    "SyntheticTraffic",
    "phase_times_mpi",
    "phase_times_pgas",
    "weak_scaling_series",
    "WeakScalingPoint",
    "strong_scaling_series",
    "StrongScalingPoint",
    "thread_scaling_series",
    "procs_threads_tradeoff",
    "ThreadScalingPoint",
    "realtime_series",
    "max_realtime_cores",
    "RealtimePoint",
    "headline_summary",
    "truenorth_power_watts",
    "blue_gene_power_watts",
    "format_table",
]
