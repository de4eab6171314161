"""A row of ranks in one instrument call ≡ one call per rank, in order.

The simulator accounts a tick's per-rank counts with one call per
instrument (``Counter.inc_row``, ``Gauge.set_row``,
``Histogram.observe_each``).  On drawn rows — repeated ranks, zeros that
must still create their series, integer and float values — the registry
state and its Prometheus text must equal those of the per-rank calls; so must a row of arrays long
enough to take the histogram's whole-row path, its float sums bit for bit.
"""

import numpy as np
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


@st.composite
def array_rows(draw):
    """A row of arrays past any small-row cut: repeated, unsorted keys
    (−1 among them) and int or float values, from a drawn seed."""
    n = draw(st.integers(300, 600))
    keys = draw(st.lists(st.integers(-1, 40), min_size=1, max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["int", "float", "edge"]))
    if kind == "int":
        values = rng.integers(0, 10**6, n)
    elif kind == "float":  # fractions: each sum depends on the order it adds in
        values = rng.random(n) * 10.0 ** rng.integers(0, 7)
    else:  # on and between the bucket edges
        values = rng.choice([0.0, 0.5, 1.0, 10.0, 1000.0, 1e6], n)
    return rng.choice(keys, n), values


def series_order(reg: MetricRegistry):
    """Each instrument's keys in the order its series were created."""
    return {
        name: [list(part) for part in snap.values()] for name, snap in reg.snapshot().items()
    }


@given(st.lists(array_rows(), min_size=1, max_size=3), rows())
@settings(max_examples=60, deadline=None)
def test_an_array_row_equals_one_call_per_element(batches, small):
    by_row, by_call = MetricRegistry(), MetricRegistry()
    counter, gauge, hist = instruments(by_row)
    hist.observe_each(*small)  # the table grows past rows a short row made
    for ranks, values in batches:
        counter.inc_row(ranks, values)
        gauge.set_row(ranks, values)
        hist.observe_each(ranks, values)
    counter, gauge, hist = instruments(by_call)
    for rank, value in zip(*small):
        hist.observe(rank, value)
    for ranks, values in batches:
        for rank, value in zip(ranks.tolist(), values.tolist()):
            counter.inc(rank, value)
            gauge.set(rank, value)
            hist.observe(rank, value)
    assert by_row.snapshot() == by_call.snapshot()
    assert series_order(by_row) == series_order(by_call)
    assert render_textfile(by_row) == render_textfile(by_call)
