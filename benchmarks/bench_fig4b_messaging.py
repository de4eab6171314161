"""E2 / Fig 4(b): messaging and data-transfer analysis per simulated tick.

Regenerates the MPI-message-count and white-matter-spike-count series of
Fig 4(b), plus the §VI-B bandwidth argument (0.44 GB/tick at the largest
point, well below the 2 GB/s torus links).
"""

from repro.perf.weak_scaling import fig4b_table, weak_scaling_series
from repro.runtime.machine import BLUE_GENE_Q


def test_fig4b_messaging(compare_result):
    series = weak_scaling_series()
    compare_result("fig4b_messaging", fig4b_table(series))

    largest = series[-1]
    assert largest.bytes_per_tick < BLUE_GENE_Q.link_bandwidth  # §VI-B
    # Sub-linear per-process message growth.
    growth_pp = (largest.messages_per_tick / largest.nodes) / (
        series[0].messages_per_tick / series[0].nodes
    )
    assert growth_pp < largest.cores / series[0].cores
