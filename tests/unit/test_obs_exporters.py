"""Unit tests for the Perfetto, Prometheus, and JSONL exporters."""

import json

import pytest

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.errors import AnalysisError
from repro.exec import make_adapter
from repro.obs import (
    MetricRegistry,
    Observability,
    SpanTracer,
    first_divergence,
    iter_lines,
    read_event_log,
    render_textfile,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_event_log,
    write_textfile,
)
from repro.obs.analysis import load_events
from repro.resilience import FaultSchedule, MessageDrop, MessageDuplicate, ResilientRunner


def _driven_tracer():
    tr = SpanTracer()
    tr.begin_tick(0)
    tr.begin("compile", rank=-1, cat="compile")
    tr.instant("pcc.layout", rank=-1, phase="tick", cat="compile")
    tr.end(rank=-1, cat="compile")
    tr.begin_tick(1)
    tr.span("compute", rank=0, phase="compute", fired=3)
    tr.instant("mpi.send", rank=0, dst=1, nbytes=8)
    tr.span("sync", rank=0, phase="sync")
    tr.tick_summary(1, fired=3)
    return tr


class TestChromeTrace:
    def test_track_layout(self):
        trace = to_chrome_trace(_driven_tracer())
        events = trace["traceEvents"]
        # Compiler events live in pid 1; simulator in pid 0.
        compile_pids = {e["pid"] for e in events if e.get("cat") == "compile"}
        sim_pids = {e["pid"] for e in events if e.get("cat") == "sim"}
        assert compile_pids == {1}
        assert sim_pids == {0}
        # Cluster track is tid 0; rank 0 shifts to tid 1.
        cluster = [e for e in events if e["name"] == "tick"]
        assert cluster and all(e["tid"] == 0 for e in cluster)
        rank0 = [e for e in events if e["name"] == "compute"]
        assert rank0 and all(e["tid"] == 1 for e in rank0)

    def test_metadata_and_shape(self):
        trace = to_chrome_trace(_driven_tracer(), label="demo")
        events = trace["traceEvents"]
        proc_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert proc_names[0] == "demo simulator"
        assert proc_names[1] == "demo pcc compiler"
        x = next(e for e in events if e["ph"] == "X")
        assert x["dur"] > 0
        i = next(e for e in events if e["ph"] == "i")
        assert i["s"] == "t"

    def test_validator_accepts_own_output(self):
        assert validate_chrome_trace(to_chrome_trace(_driven_tracer())) == []

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ([], "top-level"),
            ({}, "traceEvents"),
            ({"traceEvents": [{"ph": "Z", "pid": 0, "tid": 0, "name": "x"}]},
             "unknown phase"),
            ({"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "x",
                               "ts": 0}]}, "non-negative 'dur'"),
            ({"traceEvents": [{"ph": "E", "pid": 0, "tid": 0, "name": "x",
                               "ts": 0}]}, "without matching 'B'"),
            ({"traceEvents": [{"ph": "B", "pid": 0, "tid": 0, "name": "x",
                               "ts": 0}]}, "unclosed 'B'"),
        ],
    )
    def test_validator_rejects(self, obj, fragment):
        errors = validate_chrome_trace(obj)
        assert any(fragment in e for e in errors), errors

    def test_write_is_loadable_json(self, tmp_path):
        path = write_chrome_trace(_driven_tracer(), tmp_path / "t.json")
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []

    def test_validator_flags_out_of_order_timestamp(self):
        trace = to_chrome_trace(_driven_tracer())
        events = trace["traceEvents"]
        # Swap the last two timed events; the sorted invariant breaks.
        events[-1], events[-2] = events[-2], events[-1]
        errors = validate_chrome_trace(trace)
        assert any("timestamp out of order" in e for e in errors), errors

    def test_validator_ignores_metadata_for_ordering(self):
        # M events carry no ts; interleaving them must not trip the check.
        trace = {
            "traceEvents": [
                {"ph": "i", "pid": 0, "tid": 0, "name": "a", "ts": 5.0,
                 "s": "t"},
                {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                 "args": {"name": "x"}},
                {"ph": "i", "pid": 0, "tid": 0, "name": "b", "ts": 6.0,
                 "s": "t"},
            ]
        }
        assert validate_chrome_trace(trace) == []

    def test_validator_reports_malformed_event_and_continues(self):
        trace = {
            "traceEvents": [
                "not an event",
                {"ph": "i", "tid": 0, "name": "", "ts": 1.0},
            ]
        }
        errors = validate_chrome_trace(trace)
        assert any("must be an object" in e for e in errors), errors
        assert any("missing integer 'pid'" in e for e in errors), errors
        assert any("missing event name" in e for e in errors), errors


class TestPrometheus:
    def _registry(self):
        reg = MetricRegistry()
        c = reg.counter("compass_fired_total", help="neurons fired")
        c.inc(0, 3)
        c.inc(1, 4)
        g = reg.gauge("compass_mailbox_depth")
        g.set(0, 2.5)
        h = reg.histogram("compass_msg_bytes", buckets=(8.0, 64.0))
        h.observe(0, 4.0)
        h.observe(0, 100.0)
        return reg

    def test_exposition_format(self):
        text = render_textfile(self._registry())
        assert "# HELP compass_fired_total neurons fired" in text
        assert "# TYPE compass_fired_total counter" in text
        assert 'compass_fired_total{rank="0"} 3' in text
        assert "compass_fired_total 7" in text  # cluster reduction
        assert "compass_mailbox_depth 2.5" in text
        assert 'compass_msg_bytes_bucket{le="+Inf"} 2' in text
        assert "compass_msg_bytes_count 2" in text
        assert text.endswith("\n")

    def test_render_is_deterministic(self):
        assert render_textfile(self._registry()) == render_textfile(self._registry())

    def test_write_textfile(self, tmp_path):
        path = write_textfile(self._registry(), tmp_path / "m.prom")
        assert path.read_text() == render_textfile(self._registry())


class TestJsonl:
    def test_roundtrip_and_byte_identity(self, tmp_path):
        a = write_event_log(_driven_tracer(), tmp_path / "a.jsonl")
        b = write_event_log(_driven_tracer(), tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        records = read_event_log(a)
        assert len(records) == len(_driven_tracer().events)
        assert records[0]["name"] == "compile"
        # seq counter must not leak into records (partition invariance).
        assert all("seq" not in r for r in records)

    def test_read_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(AnalysisError, match="bad.jsonl:2"):
            read_event_log(path)

    def test_first_divergence_none_when_identical(self):
        recs = [json.loads(line) for line in iter_lines(_driven_tracer())]
        assert first_divergence(recs, list(recs)) is None

    def test_first_divergence_localises_field(self):
        a = [json.loads(line) for line in iter_lines(_driven_tracer())]
        b = [dict(r) for r in a]
        b[3] = dict(b[3], args=dict(b[3]["args"], fired=99))
        div = first_divergence(a, b)
        assert div.index == 3
        assert "args" in div.describe()
        assert div.tick == a[3]["tick"]

    def test_first_divergence_prefix(self):
        a = [json.loads(line) for line in iter_lines(_driven_tracer())]
        div = first_divergence(a, a[:-1])
        assert div.index == len(a) - 1
        assert div.b is None
        assert "log B ends" in div.describe()

    def test_name_filter(self):
        a = [json.loads(line) for line in iter_lines(_driven_tracer())]
        # Different chatter, same tick summaries -> no divergence by name.
        b = [r for r in a if r["name"] != "mpi.send"]
        assert first_divergence(a, b) is not None
        assert first_divergence(a, b, name="tick") is None

    def test_read_rejects_truncated_file(self, tmp_path):
        """A log cut mid-record (crashed writer) fails loudly, not quietly."""
        full = write_event_log(_driven_tracer(), tmp_path / "full.jsonl")
        text = full.read_text()
        cut = tmp_path / "cut.jsonl"
        cut.write_text(text[: len(text) - 20])  # partial last object
        lastline = len(text.splitlines())
        with pytest.raises(AnalysisError, match=f"cut.jsonl:{lastline}"):
            read_event_log(cut)

    def test_divergence_on_truncated_log_is_prefix(self, tmp_path):
        """Truncation at a line boundary diverges as a clean prefix."""
        full = write_event_log(_driven_tracer(), tmp_path / "full.jsonl")
        lines = full.read_text().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:-2]) + "\n")
        div = first_divergence(read_event_log(full), read_event_log(cut))
        assert div.index == len(lines) - 2
        assert div.b is None
        assert "log B ends" in div.describe()

    def test_first_divergence_on_malformed_record(self):
        """A record with a wrong shape (not a crash) still localises."""
        a = [json.loads(line) for line in iter_lines(_driven_tracer())]
        b = [dict(r) for r in a]
        del b[2]["rank"]  # malformed: field dropped by a buggy writer
        div = first_divergence(a, b)
        assert div.index == 2
        assert "rank" in div.describe()


class TestReadersDoNotAlterRecords:
    """The tracer's records are the log: every reader reads them as they
    are, and none may change one (the Chrome export adds ``tick`` /
    ``omp_thread`` to, and pops ``flow`` from, its own copy of ``args``)."""

    @pytest.fixture(scope="class")
    def tracer(self):
        obs = Observability.with_tracing()
        config = CompassConfig(n_processes=4, threads_per_process=2)
        sim = make_adapter("mpi", obs=obs).prepare(build_quickstart_network(16, seed=0), config)
        schedule = FaultSchedule([MessageDrop(tick=12, source=0, dest=1),
                                  MessageDuplicate(tick=17, source=1, dest=2)])
        runner = ResilientRunner(sim, schedule, 5)
        runner.run(24)
        assert runner.injector.dropped == runner.injector.duplicated == 1
        tr = obs.tracer
        tr.complete("job.run", rank=0, ts_us=24_000.0, cat="serve", job=0)
        tr.flow("job", rank=0, ph="s", flow_id="j0", ts_us=24_000.0, cat="serve")
        tr.flow("job", rank=0, ph="f", flow_id="j0", ts_us=24_000.01, cat="serve")
        return tr

    def test_the_chrome_export_is_repeatable_and_the_log_unchanged(self, tracer):
        before = list(iter_lines(tracer))
        first = to_chrome_trace(tracer)
        assert to_chrome_trace(tracer) == first
        assert validate_chrome_trace(first) == []
        assert list(iter_lines(tracer)) == before

    def test_load_events_is_the_written_log(self, tracer, tmp_path):
        path = write_event_log(tracer, tmp_path / "events.jsonl")
        dumped = [json.dumps(r, sort_keys=True) for r in load_events(tracer)]
        assert dumped == path.read_text().splitlines()
        assert load_events(tracer) == read_event_log(path)
