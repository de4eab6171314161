"""Unit tests for repro.obs.analysis: critical path, flame, imbalance."""

import re

import pytest

from repro.errors import AnalysisError
from repro.obs import SpanTracer
from repro.obs.analysis import (
    analyze_report,
    critical_path,
    flame_table,
    fold_stacks,
    format_critical_report,
    format_folded,
    format_imbalance_report,
    imbalance_heatmap,
    invariant_section,
    load_events,
    require_file,
)
from repro.obs.analysis.critical import INVARIANT_MARKER, span_cost


def _tracer(ticks=3, ranks=2, skew_rank=1):
    """A hand-driven tracer shaped like the simulator's event stream.

    ``skew_rank`` gets double the compute work so the binding rank is
    known; sync/network keep fixed per-rank attributes.
    """
    tr = SpanTracer()
    for tick in range(ticks):
        tr.begin_tick(tick)
        for rank in range(ranks):
            axons = 10 * (2 if rank == skew_rank else 1)
            fired = 4 * (2 if rank == skew_rank else 1)
            tr.span("compute", rank=rank, phase="compute", tick=tick,
                    active_axons=axons, fired=fired, local_spikes=2,
                    remote_spikes=1)
            tr.span("synapse", rank=rank, phase="synapse", tick=tick,
                    active_axons=axons)
            tr.span("neuron", rank=rank, phase="neuron", tick=tick,
                    fired=fired, messages=1)
            tr.span("sync", rank=rank, phase="sync", tick=tick,
                    sent=1, expected=1)
            tr.instant("mailbox.deliver", rank=rank, phase="network",
                       tick=tick, nbytes=64)
            tr.span("network", rank=rank, phase="network", tick=tick,
                    messages=1, spikes_received=3, bytes_received=64,
                    local_delivered=2)
        tr.tick_summary(tick, fired=12 * (tick + 1), spikes=18,
                        neurons=512, active_axons=30)
    return tr


class TestCriticalPath:
    def test_binding_rank_and_phase(self):
        cp = critical_path(load_events(_tracer()))
        assert len(cp.ticks) == 3
        for t in cp.ticks:
            assert t.phase == "compute"  # compute work dominates
            assert t.rank == 1  # the skewed rank binds
        assert cp.binding_phase == "compute"

    def test_tick_cost_is_sum_of_phase_maxima(self):
        cp = critical_path(load_events(_tracer()))
        t = cp.ticks[0]
        assert t.cost == sum(c for _, _, c in t.phases)
        phases = [p for p, _, _ in t.phases]
        assert phases == ["compute", "sync", "network"]

    def test_tie_breaks_to_lowest_rank(self):
        cp = critical_path(load_events(_tracer(skew_rank=-1)))  # no skew
        assert all(t.rank == 0 for t in cp.ticks)

    def test_span_cost_weights(self):
        assert span_cost("compute", {"active_axons": 3, "fired": 2,
                                     "remote_spikes": 1}) == 1 + 3 + 8 + 2
        assert span_cost("sync", {"sent": 2, "expected": 5}) == 8
        assert span_cost("network", {"messages": 2, "spikes_received": 3,
                                     "local_delivered": 4}) == 1 + 32 + 7

    def test_cluster_totals_from_tick_summaries(self):
        cp = critical_path(load_events(_tracer()))
        totals = dict((m, (total, mx)) for m, total, mx in cp.cluster_totals)
        assert totals["fired"] == (12 + 24 + 36, 36)
        assert totals["neurons"] == (3 * 512, 512)

    def test_report_is_deterministic_and_sectioned(self):
        events = load_events(_tracer())
        a = format_critical_report(critical_path(events))
        b = format_critical_report(critical_path(list(events)))
        assert a == b
        assert INVARIANT_MARKER in a
        assert invariant_section(a).startswith(INVARIANT_MARKER)

    def test_empty_stream_yields_empty_path(self):
        cp = critical_path([])
        assert cp.ticks == ()
        assert cp.binding_phase == "none"
        assert "critical-path report" in format_critical_report(cp)


class TestFlame:
    def test_leaf_spans_weighted_by_work(self):
        folded = fold_stacks(load_events(_tracer(ticks=1, ranks=1,
                                                 skew_rank=-1)))
        # synapse cost = 1 + active_axons (10).
        assert folded["rank 0;compute;synapse"] == 11
        # network self excludes the instant child, counted separately.
        assert folded["rank 0;network;mailbox.deliver"] == 1
        assert "rank 0;compute" not in folded  # interior-only frame

    def test_cluster_subtree_carries_tick_totals(self):
        folded = fold_stacks(load_events(_tracer()))
        assert folded["cluster;tick;fired"] == 72
        assert folded["cluster;tick;neurons"] == 3 * 512

    def test_begin_end_frames_nest(self):
        tr = SpanTracer()
        tr.begin("compile", rank=-1, cat="compile")
        tr.instant("pcc.layout", rank=-1, phase="tick", cat="compile")
        tr.begin("wire", rank=-1, cat="compile")
        tr.end(rank=-1, cat="compile")
        tr.end(rank=-1, cat="compile")
        folded = fold_stacks(load_events(tr))
        assert folded["cluster;compile;pcc.layout"] == 1
        assert folded["cluster;compile;wire"] == 1
        assert "cluster;compile" not in folded  # had inner events

    def test_folded_text_sorted_and_stable(self):
        events = load_events(_tracer())
        text = format_folded(events)
        assert text == format_folded(list(events))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert all(" " in line for line in lines)

    def test_flame_table_totals_include_children(self):
        events = load_events(_tracer(ticks=1, ranks=1, skew_rank=-1))
        table = flame_table(events)
        assert "frame" in table and "total%" in table
        # The rank root aggregates all its leaves (self 0, total = sum).
        folded = fold_stacks(events)
        rank_total = sum(w for p, w in folded.items() if p.startswith("rank 0"))
        match = re.search(r"^\s*rank 0\s+0\s+(\d+)", table, re.M)
        assert match, table
        assert int(match.group(1)) == rank_total

    def test_omp_thread_spans_excluded(self):
        tr = _tracer(ticks=1, ranks=1)
        tr.span("omp-thread", rank=0, phase="compute", tick=0, cat="threads",
                core_lo=0, core_hi=8)
        folded = fold_stacks(load_events(tr))
        assert not any("omp-thread" in key for key in folded)


class TestImbalance:
    def test_rows_keyed_by_phase_metric(self):
        rows = imbalance_heatmap(load_events(_tracer()))
        sections = [r.section for r in rows]
        assert "compute/active_axons" in sections
        assert "sync/sent" in sections
        assert sections == sorted(sections)

    def test_max_over_mean_values(self):
        rows = imbalance_heatmap(load_events(_tracer()))
        by_section = {r.section: r for r in rows}
        # axons: [10, 20] -> max/mean = 20/15.
        for tick, ratio in by_section["compute/active_axons"].ticks:
            assert ratio == pytest.approx(20 / 15)
        # sync perfectly balanced.
        for tick, ratio in by_section["sync/sent"].ticks:
            assert ratio == 1.0

    def test_hot_tick_flagged(self):
        tr = _tracer(ticks=8, ranks=2, skew_rank=-1)
        tr.begin_tick(8)
        tr.span("compute", rank=0, phase="compute", tick=8,
                active_axons=100, fired=0, local_spikes=0, remote_spikes=0)
        tr.span("compute", rank=1, phase="compute", tick=8,
                active_axons=1, fired=0, local_spikes=0, remote_spikes=0)
        rows = imbalance_heatmap(load_events(tr))
        row = {r.section: r for r in rows}["compute/active_axons"]
        assert row.hot_ticks == (8,)
        assert row.worst[0] == 8

    def test_report_renders(self):
        report = format_imbalance_report(
            imbalance_heatmap(load_events(_tracer()))
        )
        assert "per-tick imbalance" in report
        assert "compute/fired" in report


class TestAnalyzeReport:
    def test_invariant_section_is_trailing(self):
        report = analyze_report(load_events(_tracer()))
        assert report.endswith(invariant_section(report))
        assert "per-tick imbalance" in report
        assert "who bounded the run" in report


class TestLoadEvents:
    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such event log"):
            load_events(tmp_path / "nope.jsonl")

    def test_empty_file_raises_typed_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(AnalysisError, match="empty"):
            load_events(empty)

    def test_blank_log_raises(self, tmp_path):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n")
        with pytest.raises(AnalysisError, match="no records"):
            load_events(blank)

    def test_require_file_accepts_real_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("{}\n")
        assert require_file(path, "event log") == path
