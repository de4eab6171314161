"""E3 / Fig 5: strong scaling of a fixed 32M-core CoCoMac model.

Paper anchors: 324 s on one rack (baseline), 47 s on 8 racks (6.9x),
37 s on 16 racks (8.8x).
"""

from repro.perf.strong_scaling import fig5_table, strong_scaling_series


def test_fig5_strong_scaling(compare_result):
    series = strong_scaling_series()
    compare_result("fig5_strong_scaling", fig5_table(series))

    assert abs(series[0].times.total - 324) / 324 < 0.15
    p8 = next(p for p in series if p.racks == 8)
    p16 = next(p for p in series if p.racks == 16)
    assert 5.0 < p8.speedup < 9.0
    assert p8.speedup < p16.speedup < 14.0
