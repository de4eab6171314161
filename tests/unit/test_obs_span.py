"""Unit tests for the deterministic span tracer (repro.obs.span)."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    PHASES,
    SEQ_DT_US,
    TICK_US,
    Observability,
    SpanTracer,
    iter_lines,
)


class TestWindows:
    def test_phase_windows_partition_the_tick(self):
        assert PHASES["tick"] == (0.0, 1.0)
        # synapse + neuron tile the compute window exactly.
        assert PHASES["synapse"][1] == PHASES["neuron"][0]
        assert PHASES["neuron"][1] == PHASES["compute"][1]
        assert PHASES["sync"][0] == PHASES["compute"][1]
        assert PHASES["network"][1] == PHASES["tick"][1]

    def test_window_us_scales_with_tick(self):
        tr = SpanTracer()
        t0, t1 = tr.window_us("sync", tick=3)
        assert t0 == 3 * TICK_US + PHASES["sync"][0] * TICK_US
        assert t1 == 3 * TICK_US + PHASES["sync"][1] * TICK_US

    def test_instant_sequencing_and_clamp(self):
        tr = SpanTracer()
        tr.begin_tick(0)
        tr.instant("a", rank=0, phase="network")
        tr.instant("b", rank=0, phase="network")
        a, b = tr.events
        assert b["ts"] - a["ts"] == pytest.approx(SEQ_DT_US)
        # Runaway sequences clamp inside the window instead of escaping it.
        tr._seq = 10**9
        tr.instant("c", rank=0, phase="network")
        _, t1 = tr.window_us("network", 0)
        assert tr.events[-1]["ts"] == t1 - SEQ_DT_US


class TestSpans:
    def test_span_covers_phase_window(self):
        tr = SpanTracer()
        tr.begin_tick(2)
        tr.span("compute", rank=1, phase="compute", fired=7)
        (ev,) = tr.events
        t0, t1 = tr.window_us("compute", 2)
        assert (ev["ph"], ev["ts"], ev["dur"]) == ("X", t0, t1 - t0)
        assert ev["tick"] == 2
        assert ev["args"] == {"fired": 7}

    def test_nesting_is_per_track(self):
        tr = SpanTracer()
        tr.begin_tick(0)
        tr.begin("outer", rank=0)
        tr.begin("inner", rank=0)
        tr.begin("other", rank=1)
        tr.end(rank=0)  # closes inner
        tr.end(rank=1)  # closes other
        tr.end(rank=0)  # closes outer
        names = [(e["ph"], e["name"], e["rank"]) for e in tr.events]
        assert names == [
            ("B", "outer", 0), ("B", "inner", 0), ("B", "other", 1),
            ("E", "inner", 0), ("E", "other", 1), ("E", "outer", 0),
        ]

    def test_end_without_begin_raises(self):
        tr = SpanTracer()
        with pytest.raises(ValueError, match="no open span"):
            tr.end(rank=0)

    def test_log_line_lists_args_sorted_whatever_the_call_order(self):
        a, b = SpanTracer(), SpanTracer()
        a.instant("x", rank=0, zulu=1, alpha=2)
        b.instant("x", rank=0, alpha=2, zulu=1)
        (line,) = iter_lines(a)
        assert list(iter_lines(b)) == [line]
        assert line.index('"alpha"') < line.index('"zulu"')
        assert json.loads(line) == a.events[0]

    def test_an_event_is_its_log_record(self):
        tr = SpanTracer()
        tr.begin_tick(1)
        tr.complete("job.run", rank=2, ts_us=1500.0, dur_us=4.0, cat="serve", job=7)
        assert tr.events == [
            {"name": "job.run", "cat": "serve", "ph": "X", "ts": 1500.0, "dur": 4.0,
             "rank": 2, "thread": 0, "tick": -1, "args": {"job": 7}}
        ]


class TestTickSummary:
    def test_fixed_timestamp_is_sequence_independent(self):
        """The partition-invariance anchor: the summary timestamp must not
        depend on how many events preceded it in the tick."""
        quiet, noisy = SpanTracer(), SpanTracer()
        for tr, chatter in ((quiet, 0), (noisy, 50)):
            tr.begin_tick(4)
            for i in range(chatter):
                tr.instant("msg", rank=i % 3)
            tr.tick_summary(4, fired=9)
        assert quiet.events[-1] == noisy.events[-1]
        assert quiet.events[-1]["ts"] == 5 * TICK_US - SEQ_DT_US
        assert quiet.events[-1]["rank"] == -1

    def test_count_filters(self):
        tr = SpanTracer()
        tr.begin_tick(0)
        tr.span("compute", rank=0, phase="compute")
        tr.instant("send", rank=0)
        tr.instant("send", rank=1)
        assert tr.count("send") == 2
        assert tr.count(ph="X") == 1
        assert tr.count("send", ph="i") == 2
        assert len(tr) == 3


class TestNullTracer:
    def test_all_methods_are_noops(self):
        NULL_TRACER.begin_tick(3)
        NULL_TRACER.span("a", rank=0)
        NULL_TRACER.instant("b", rank=0)
        NULL_TRACER.begin("c", rank=0)
        NULL_TRACER.end(rank=0)
        NULL_TRACER.tick_summary(1, fired=0)
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.count() == 0
        assert NULL_TRACER.events == ()

    def test_observability_defaults(self):
        off = Observability.off()
        assert off.tracer is NULL_TRACER
        assert not off.tracing
        on = Observability.with_tracing()
        assert on.tracing
        assert isinstance(on.tracer, SpanTracer)


class TestDeterminism:
    def test_identical_call_sequences_identical_events(self):
        def drive(tr):
            for tick in range(3):
                tr.begin_tick(tick)
                tr.span("compute", rank=0, phase="compute", fired=tick)
                tr.instant("send", rank=0, dst=1, nbytes=8)
                tr.span("sync", rank=0, phase="sync")
                tr.tick_summary(tick, fired=tick)

        a, b = SpanTracer(), SpanTracer()
        drive(a)
        drive(b)
        assert a.events == b.events
