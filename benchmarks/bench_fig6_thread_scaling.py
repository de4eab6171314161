"""E4 / Fig 6 + E9 / §VI-D: OpenMP thread scaling and the processes-vs-
threads trade-off.

Fig 6: fixed 64M-core model on 4096 nodes, one MPI process per node,
OpenMP team swept 1 -> 32; speed-up per phase over the one-thread
baseline.  §VI-D: (procs/node x threads) combinations perform near-equal.
"""

from repro.perf.report import format_table
from repro.perf.thread_scaling import (
    fig6_table,
    procs_threads_tradeoff,
    thread_scaling_series,
)


def test_fig6_thread_scaling(compare_result):
    series = thread_scaling_series()
    compare_result("fig6_thread_scaling", fig6_table(series))

    last = series[-1]
    assert 10 < last.speedup_total < 28
    assert last.speedup_network < last.speedup_neuron  # the serial bottleneck


def test_procs_threads_tradeoff(compare_result):
    points = procs_threads_tradeoff()
    rows = [
        (
            f"{p.procs_per_node}x{p.threads}",
            p.procs_per_node * 4096,
            round(p.times.total, 1),
            f"{p.speedup_total:.2f}",
        )
        for p in points
    ]
    table = format_table(
        ["cfg(procs x threads)", "mpi_ranks", "total_s", "vs_1x32"],
        rows,
        title="§VI-D: procs-per-node vs threads-per-proc trade-off "
        "(paper: 'yielded little change in performance')",
    )
    compare_result("vi_d_procs_threads_tradeoff", table)

    totals = [p.times.total for p in points]
    assert max(totals) / min(totals) < 1.4
