"""E5 / Fig 7: PGAS vs MPI for real-time simulation on Blue Gene/P.

The Fig 7 reproduction via the calibrated Blue Gene/P model: 81K cores,
1000 ticks, racks 1/2/4, best thread configuration per point.  (That the
two functional backends agree spike for spike is tier-1's
``tests/integration/test_backend_differential.py``.)
"""

from repro.perf.realtime import fig7_table, max_realtime_cores, realtime_series


def test_fig7_series(compare_result):
    series = realtime_series()
    compare_result("fig7_pgas_vs_mpi", fig7_table(series))

    four = {p.backend: p for p in series if p.racks == 4}
    assert four["pgas"].realtime
    assert 1.5 < four["mpi"].seconds / four["pgas"].seconds < 3.0
    assert 60_000 < max_realtime_cores("pgas", 4) < 120_000
