"""Unit tests for repro.obs.prof: host profile accounting, the sampling
profiler, tracemalloc memory attribution, and ``repro obs why``."""

import json
import time

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import NULL_PROFILE, HostProfile, Observability
from repro.obs.prof import (
    HostSampler,
    MemoryTracker,
    NullProfile,
    format_host_report,
    load_side,
    subsystem_of,
    why_bench,
    why_paths,
    why_trace,
)


class TestNullProfile:
    def test_default_observability_carries_null_profile(self):
        obs = Observability.off()
        assert obs.prof is NULL_PROFILE
        assert not obs.profiling

    def test_null_profile_is_inert(self):
        NULL_PROFILE.phase("synapse", 0, 0.5, active_axons=3)
        assert NULL_PROFILE.rows() == []
        assert NULL_PROFILE.folded() == {}
        assert not NullProfile.enabled

    def test_with_profiling_attaches_enabled_profile(self):
        obs = Observability.with_profiling(sampler=False, memory=False)
        assert obs.profiling
        assert obs.prof.enabled
        assert isinstance(obs.prof, HostProfile)


class TestHostProfile:
    def test_phase_accumulates_ns_work_and_calls(self):
        prof = HostProfile()
        prof.phase("synapse", 0, 1e-6, active_axons=10)
        prof.phase("synapse", 0, 1e-6, active_axons=4)
        prof.phase("neuron", 1, 2e-6, fired=2, messages=1)
        rows = {(r.phase, r.rank): r for r in prof.rows()}
        syn = rows[("synapse", 0)]
        # span_cost("synapse", ...) = 1 + active_axons per call.
        assert syn.work_units == 11 + 5
        assert syn.calls == 2
        assert syn.host_ns == 2000
        neu = rows[("neuron", 1)]
        assert neu.work_units == 1 + 2 * 4 + 1
        assert prof.total_host_ns == 4000
        assert prof.total_work_units == 16 + 10

    def test_explicit_work_overrides_span_cost(self):
        prof = HostProfile()
        prof.phase("pcc.layout", -1, 1e-9, work=123)
        (row,) = prof.rows()
        assert row.work_units == 123

    def test_rows_ranked_by_ns_per_work_unit(self):
        prof = HostProfile()
        prof.phase("cheap", 0, 1e-6, work=1000)
        prof.phase("costly", 0, 1e-6, work=10)
        rows = prof.rows()
        assert [r.phase for r in rows] == ["costly", "cheap"]
        assert rows[0].ns_per_work_unit == pytest.approx(100.0)

    def test_negative_host_seconds_clamped(self):
        prof = HostProfile()
        prof.phase("sync", 0, -0.5, work=1)
        assert prof.total_host_ns == 0

    def test_ns_per_work_unit_zero_without_work(self):
        assert HostProfile().ns_per_work_unit() == 0.0

    def test_report_names_divergence_hotspot(self):
        prof = HostProfile()
        prof.phase("network", 2, 5e-6, work=10)
        prof.phase("synapse", 0, 1e-6, work=100)
        report = format_host_report(prof)
        assert "host-cost divergence" in report
        assert "divergence hotspot: network (rank 2)" in report
        assert report == format_host_report(prof)  # stable layout

    def test_context_manager_runs_sampler_and_memory(self):
        prof = HostProfile(sampler=HostSampler(hz=500.0), memory=MemoryTracker())
        with prof:
            data = [list(range(200)) for _ in range(50)]
            time.sleep(0.02)
            del data
        assert prof.sampler.running is False
        assert prof.mem_report is not None
        assert prof.mem_report.peak_nbytes > 0


class TestHostSampler:
    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ConfigurationError, match="hz"):
            HostSampler(hz=0)

    def test_samples_fold_under_host_root(self):
        sampler = HostSampler(hz=997.0)
        with sampler:
            deadline = time.perf_counter() + 2.0
            while sampler.samples < 3 and time.perf_counter() < deadline:
                sum(i * i for i in range(5000))
        folded = sampler.folded()
        assert sampler.samples >= 3
        assert folded
        assert all(key.startswith("host;") or key == "host" for key in folded)
        assert sum(folded.values()) == sampler.samples

    def test_folded_output_round_trips_through_parser(self):
        from repro.obs.analysis import parse_folded
        from repro.obs.analysis.flame import folded_lines

        sampler = HostSampler(hz=997.0)
        with sampler:
            deadline = time.perf_counter() + 2.0
            while sampler.samples < 1 and time.perf_counter() < deadline:
                sum(i * i for i in range(5000))
        text = "\n".join(folded_lines(sampler.folded()))
        assert parse_folded(text) == sampler.folded()

    def test_start_stop_idempotent(self):
        sampler = HostSampler()
        sampler.start()
        sampler.start()
        assert sampler.running
        sampler.stop()
        sampler.stop()
        assert not sampler.running


class TestSubsystemOf:
    def test_repro_subpackages(self):
        assert subsystem_of("/x/src/repro/core/simulator.py") == "core"
        assert subsystem_of("/x/src/repro/obs/prof/sampler.py") == "obs"
        assert subsystem_of("src/repro/arch/coreblock.py") == "arch"

    def test_top_level_module_is_other(self):
        assert subsystem_of("/x/src/repro/cli/obs.py") == "repro.other"

    def test_outside_package_is_external(self):
        assert subsystem_of("/usr/lib/python3/json/decoder.py") == "external"


class TestMemoryTracker:
    def test_phase_deltas_attributed(self):
        tracker = MemoryTracker()
        tracker.start()
        hold = [bytes(50_000)]
        tracker.phase_delta("grow")
        del hold[:]
        tracker.phase_delta("shrink")
        report = tracker.stop()
        deltas = dict(report.phase_deltas)
        assert deltas["grow"] > 0
        assert deltas["shrink"] < 0
        assert report.peak_nbytes >= report.current_nbytes
        assert not tracker.tracking

    def test_subsystem_table_sorted_descending(self):
        tracker = MemoryTracker().start()
        from repro.apps import build_quickstart_network

        net = build_quickstart_network(n_cores=4, seed=1)
        report = tracker.stop()
        assert net.n_cores == 4
        sizes = [nbytes for _, nbytes, _ in report.subsystems]
        assert sizes == sorted(sizes, reverse=True)
        assert {name for name, _, _ in report.subsystems} & {"arch", "apps"}

    def test_report_json_schema(self):
        tracker = MemoryTracker().start()
        tracker.phase_delta("p")
        payload = json.loads(tracker.stop().to_json())
        assert payload["schema"] == 1
        assert {"current_nbytes", "peak_nbytes", "subsystems",
                "phase_deltas", "phase_peaks"} <= set(payload)

    def test_stop_without_start_is_empty(self):
        report = MemoryTracker().stop()
        assert report.peak_nbytes == 0
        assert report.subsystems == ()

    def test_piggybacks_on_live_tracing(self):
        import tracemalloc

        already = tracemalloc.is_tracing()
        tracker = MemoryTracker().start()
        tracker.stop()
        # The tracker never tears down a session someone else owns, and
        # fully releases one it started.
        assert tracemalloc.is_tracing() == already


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
