"""E6: the headline scale table (§I / §VI-B).

256M cores, 65B neurons, 16T synapses, 8.1 Hz, 388x slower than real
time, 22M spikes = 0.44 GB per tick; plus §I use-case (e), the power
estimate for the same network.
"""

from repro.perf.headline import headline_summary, headline_table


def test_headline_scale(compare_result):
    summary = headline_summary()
    compare_result("headline_scale", headline_table(summary))

    model = summary["model"]
    assert abs(model["slowdown"] - 388) / 388 < 0.15
    assert abs(model["mean_rate_hz"] - 8.1) < 0.1
