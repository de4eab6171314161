"""Unit tests for ``repro obs why`` (:mod:`repro.obs.why`)."""

import json

import pytest

from repro.errors import AnalysisError
from repro.obs.why import load_side, why_bench, why_paths, why_trace


def _bench(workload, *, ticks_per_s=100.0, peak_rss_mb=60.0, fired=7,
           digest="d" * 64, per_layer=None, **fields):
    """One workload record in the shape ``python3 -m bench --json`` writes."""
    return {
        "workload": workload,
        "attempted": 2,
        "failed": 0,
        "correct": True,
        "spike_digest": digest,
        "sim_digest": "5" * 64,
        "counts": {"fired": fired, "messages": 600},
        "end_to_end": {
            "ticks_per_s": {"value": ticks_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        },
        "per_layer": per_layer,
        **fields,
    }


class TestWhyBench:
    def test_injected_regression_ranked_first(self):
        old = [_bench("scatter_mpi"), _bench("ring_spiking")]
        new = [_bench("scatter_mpi", fired=8, ticks_per_s=20.0),
               _bench("ring_spiking")]
        report = why_bench(old, new)
        top = report.top
        assert (top.scope, top.metric) == ("scatter_mpi", "counts.fired")
        assert top.gated and top.direction == "differs"
        assert report.regressions == [top]
        text = report.format()
        assert "root cause: scatter_mpi / counts.fired (7 -> 8, differs)" in text
        # ticks_per_s moved by -80% but is a host-clock rate: it must not
        # displace the output that differs, nor count as a regression.
        assert text.index("counts.fired") < text.index("ticks_per_s")

    def test_changed_digest_is_a_regression(self):
        report = why_bench([_bench("scatter_mpi")],
                           [_bench("scatter_mpi", digest="e" * 64)])
        assert report.top.metric == "spike_digest"
        assert report.regressions
        assert "dddddddddddd -> eeeeeeeeeeee" in report.format()

    def test_failed_or_incorrect_run_is_a_regression(self):
        report = why_bench([_bench("scatter_mpi")],
                           [_bench("scatter_mpi", failed=1, correct=False)])
        assert {f.metric for f in report.regressions} == {"failed", "correct"}

    def test_identical_runs_report_no_regression(self):
        report = why_bench([_bench("scatter_mpi")], [_bench("scatter_mpi")])
        assert not report.regressions
        assert "no regression: runs are metric-identical" in report.format()

    def test_improvement_is_largest_shift_not_root_cause(self):
        """A host-clock rate that moved, either way, is ranked, not enforced."""
        for new_rate, label in ((200.0, "increased"), (50.0, "decreased")):
            report = why_bench([_bench("scatter_mpi", ticks_per_s=100.0)],
                               [_bench("scatter_mpi", ticks_per_s=new_rate)])
            assert not report.regressions
            assert report.top.direction == label
            text = report.format()
            assert "root cause" not in text
            assert "largest shift: scatter_mpi / ticks_per_s" in text

    def test_per_layer_values_compared_where_measured_on_both_sides(self):
        cell = lambda v: {"value": v, "unit": "ns"}  # noqa: E731
        old = [_bench("scatter_mpi", per_layer={
            "arch.deliver_ns_per_spike": cell(500.0), "runtime.msg_us": cell(None)})]
        new = [_bench("scatter_mpi", per_layer={
            "arch.deliver_ns_per_spike": cell(750.0), "runtime.msg_us": cell(6.0)})]
        report = why_bench(old, new)
        assert report.top.metric == "arch.deliver_ns_per_spike"
        assert report.top.direction == "increased"
        assert "runtime.msg_us" not in {f.metric for f in report.findings}

    def test_nested_counts_are_flattened(self):
        cache = lambda hits: {"batches": 3, "build_network_cache": {"hits": hits}}  # noqa: E731
        report = why_bench([_bench("serve_zipf", counts=cache(4))],
                           [_bench("serve_zipf", counts=cache(5))])
        assert report.top.metric == "counts.build_network_cache.hits"

    def test_disjoint_sets_raise(self):
        with pytest.raises(AnalysisError, match="no .*pairs"):
            why_bench([_bench("scatter_mpi")], [_bench("ring_spiking")])

    @pytest.mark.parametrize("broken", [
        {"workload": "x", "end_to_end": None},
        {"workload": "x", "end_to_end": {"ticks_per_s": 3.0}},
        {"workload": "x", "end_to_end": {}, "per_layer": {"m": {"unit": "s"}}},
        {"end_to_end": {}},
    ])
    def test_malformed_record_is_typed_error(self, broken):
        with pytest.raises(AnalysisError, match="malformed bench record"):
            why_bench([broken], [broken])


class TestWhyTrace:
    @staticmethod
    def _events(axons):
        from repro.obs import SpanTracer
        from repro.obs.analysis import load_events

        tr = SpanTracer()
        tr.begin_tick(0)
        tr.span("synapse", rank=0, phase="synapse", tick=0,
                active_axons=axons)
        tr.span("neuron", rank=0, phase="neuron", tick=0, fired=1,
                messages=0)
        return load_events(tr)

    def test_delta_share_ranks_changed_phase_first(self):
        report = why_trace(self._events(10), self._events(90))
        assert report.kind == "trace"
        assert report.top.metric.endswith("synapse")
        assert report.top.delta == 80
        assert report.shares()[0] > 0.9

    def test_empty_traces_raise(self):
        with pytest.raises(AnalysisError, match="phase spans"):
            why_trace([], [])


class TestLoadSideAndPaths:
    @staticmethod
    def _write(path, records):
        path.write_text(json.dumps(records))
        return path

    def test_classifies_bench_file_dir_and_trace(self, tmp_path):
        bench = self._write(tmp_path / "a.json", [_bench("scatter_mpi")])
        kind, records = load_side(bench)
        assert kind == "bench" and records[0]["workload"] == "scatter_mpi"

        # A directory is not an operand: one file holds every workload.
        with pytest.raises(AnalysisError, match="not a file"):
            load_side(tmp_path)

        trace = tmp_path / "events.jsonl"
        trace.write_text('{"name": "tick", "ph": "X", "rank": -1}\n')
        kind, events = load_side(trace)
        assert kind == "trace" and events[0]["name"] == "tick"

    def test_unrecognizable_operand_raises(self, tmp_path):
        bad = tmp_path / "who.json"
        for payload in ('{"neither": true}', "[]", "[1, 2]", '[{"workload": "x"}]',
                        "not json"):
            bad.write_text(payload)
            with pytest.raises(AnalysisError, match="not a bench result|not valid JSON"):
                load_side(bad)

    def test_paths_identical_changed_output_changed_rate(self, tmp_path):
        old = self._write(tmp_path / "old.json", [_bench("scatter_mpi")])
        same = self._write(tmp_path / "same.json", [_bench("scatter_mpi")])
        fired = self._write(tmp_path / "fired.json", [_bench("scatter_mpi", fired=9)])
        slow = self._write(tmp_path / "slow.json",
                           [_bench("scatter_mpi", ticks_per_s=50.0)])
        assert "metric-identical" in why_paths(old, same).format()
        report = why_paths(old, fired)
        assert report.top.metric == "counts.fired" and report.regressions
        report = why_paths(old, slow)
        assert report.top.metric == "ticks_per_s" and not report.regressions

    def test_mixed_kinds_rejected(self, tmp_path):
        bench = self._write(tmp_path / "a.json", [_bench("scatter_mpi")])
        trace = tmp_path / "events.jsonl"
        trace.write_text('{"name": "tick", "ph": "X", "rank": -1}\n')
        with pytest.raises(AnalysisError, match="both sides"):
            why_paths(bench, trace)
