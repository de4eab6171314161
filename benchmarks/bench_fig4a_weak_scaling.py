"""E1 / Fig 4(a): weak scaling — total runtime and phase breakdown.

Regenerates the paper's sweep (16384 cores per node, 1-16 racks of Blue
Gene/Q, 500 ticks): total wall-clock time and the Synapse / Neuron /
Network breakdown, through the traffic model + cost model over the real
CoCoMac matrix.
"""

from repro.perf.weak_scaling import fig4a_table, weak_scaling_series

PAPER_ANCHORS = {1: 165.0, 16: 194.0}  # seconds, read off Fig 4(a)


def test_fig4a_weak_scaling(compare_result):
    series = weak_scaling_series()
    compare_result("fig4a_weak_scaling", fig4a_table(series))

    by_racks = {p.racks: p for p in series}
    assert abs(by_racks[1].times.total - PAPER_ANCHORS[1]) / PAPER_ANCHORS[1] < 0.2
    assert abs(by_racks[16].times.total - PAPER_ANCHORS[16]) / PAPER_ANCHORS[16] < 0.2
