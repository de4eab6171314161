"""Cost-model validation: the calibrated constants vs first principles.

Not a paper figure — the repository's own due diligence.  Prints (a) the
recursive-halving derivation of the Reduce-Scatter's linear-in-P shape
against the calibrated model, (b) the memory-hierarchy factor across
working-set sizes, and (c) the effective-threads curve, so reviewers can
see exactly what the performance reproduction assumes.
"""

from repro.perf.report import format_table
from repro.runtime.collectives import (
    dissemination_barrier,
    reduce_scatter_recursive_halving,
    validate_against,
)
from repro.runtime.machine import BLUE_GENE_Q
from repro.runtime.threads import effective_threads


def test_reduce_scatter_shape(compare_result):
    cost = BLUE_GENE_Q.cost
    result = validate_against(cost)

    rows = []
    for p in (1024, 4096, 16384, 65536):
        derived = reduce_scatter_recursive_halving(p, 8.0, 2e-6, 1.8e9)
        calibrated = cost.reduce_scatter_time(p)
        barrier = dissemination_barrier(p, 1e-6)
        rows.append(
            (p, f"{derived*1e6:.1f}", f"{calibrated*1e6:.1f}", f"{barrier*1e6:.1f}")
        )
    table = format_table(
        ["ranks", "derived RS (us)", "calibrated RS (us)", "barrier (us)"],
        rows,
        title="Reduce-Scatter: recursive-halving derivation vs calibrated "
        "model (both linear in P; the gap is MPI software per-element "
        f"overhead, ~{result['implied_software_overhead']:.0f}x wire time)",
    )
    compare_result("validation_reduce_scatter", table)
    assert result["shape_mismatch"] < 0.6


def test_memory_and_thread_curves(compare_result):
    cost = BLUE_GENE_Q.cost
    mem_rows = [
        (f"{ws // 2**20} MiB", round(cost.memory_factor(ws), 2))
        for ws in (2**20 * m for m in (8, 16, 32, 64, 128, 512, 4096))
    ]
    thr_rows = [
        (t, round(effective_threads(t, 16), 2))
        for t in (1, 2, 4, 8, 16, 32, 64)
    ]
    table = format_table(
        ["node working set", "compute factor"],
        mem_rows,
        title="memory-hierarchy factor (BG/Q: 32 MiB cache, DRAM x3)",
    )
    table += "\n\n" + format_table(
        ["OpenMP threads", "effective parallelism"],
        thr_rows,
        title="thread model (16 cores, SMT yield, false sharing)",
    )
    compare_result("validation_model_curves", table)
    assert effective_threads(32, 16) < 32
