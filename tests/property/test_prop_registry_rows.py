"""A row of ranks in one instrument call ≡ one call per rank, in order.

The simulator accounts a tick's per-rank counts with one call per
instrument (``Counter.inc_row``, ``Gauge.set_row``,
``Histogram.observe_each``).  On drawn rows — repeated ranks, zeros that
must still create their series, integer and float values — the registry
state and its Prometheus text must equal those of the per-rank calls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricRegistry, render_textfile


@st.composite
def rows(draw):
    n = draw(st.integers(0, 8))
    ranks = draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))
    value = st.integers(0, 10**6) | st.floats(0, 1e6, allow_nan=False)
    return ranks, draw(st.lists(value, min_size=n, max_size=n))


def instruments(reg: MetricRegistry):
    return (
        reg.counter("c_total", help="a counter"),
        reg.gauge("g", help="a gauge"),
        reg.histogram("h", buckets=(0.0, 1.0, 10.0, 1000.0), help="a histogram"),
    )


@given(st.lists(rows(), max_size=6))
@settings(max_examples=200)
def test_a_row_equals_one_call_per_rank(batches):
    by_row, by_call = MetricRegistry(), MetricRegistry()
    counter, gauge, hist = instruments(by_row)
    for ranks, values in batches:
        counter.inc_row(ranks, values)
        gauge.set_row(ranks, values)
        hist.observe_each(ranks, values)
    counter, gauge, hist = instruments(by_call)
    for ranks, values in batches:
        for rank, value in zip(ranks, values):
            counter.inc(rank, value)
            gauge.set(rank, value)
            hist.observe(rank, value)
    assert by_row.snapshot() == by_call.snapshot()
    assert render_textfile(by_row) == render_textfile(by_call)
