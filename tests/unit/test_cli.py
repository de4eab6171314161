"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cli.sim import FIGURES
from repro.compiler.coreobject import ConnectionSpec, CoreObject, RegionSpec


@pytest.fixture()
def coreobject_file(tmp_path):
    obj = CoreObject(
        "cli-test",
        regions=[RegionSpec("A", 2), RegionSpec("B", 2)],
        connections=[ConnectionSpec("A", "B", 64)],
        seed=1,
    )
    path = tmp_path / "model.json"
    obj.to_json(path)
    return path


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "256 axons x 256 neurons" in out
        assert "BlueGene/Q" in out and "BlueGene/P" in out
        assert "serve backends: mpi, pgas" in out
        assert "shard fleet: consistent-hash ring over 4 shards x 64 vnodes" in out
        assert "spill=1" in out and "hot_depth=32" in out


class TestCompile:
    def test_compile_and_verify(self, coreobject_file, capsys):
        assert main(["compile", str(coreobject_file), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "compiled 'cli-test'" in out
        assert "PASS" in out

    def test_compile_to_file_then_run(self, coreobject_file, tmp_path, capsys):
        model_path = tmp_path / "explicit.npz"
        assert main(["compile", str(coreobject_file), "-o", str(model_path)]) == 0
        assert model_path.exists()
        assert main(["run", str(model_path), "--ticks", "10", "--processes", "2"]) == 0
        out = capsys.readouterr().out
        assert "ran 10 ticks" in out


class TestRun:
    def test_run_quickstart(self, capsys):
        assert main(["run", "quickstart", "--ticks", "30", "--processes", "2"]) == 0
        out = capsys.readouterr().out
        assert "spikes" in out and "(mpi)" in out

    def test_run_pgas(self, capsys):
        assert main(["run", "quickstart", "--ticks", "20", "--pgas"]) == 0
        assert "(pgas)" in capsys.readouterr().out

    def test_run_with_stats(self, capsys):
        assert main(["run", "quickstart", "--ticks", "60", "--stats"]) == 0
        assert "isi_cv" in capsys.readouterr().out

    def test_run_with_profile(self, capsys):
        assert main(
            ["run", "quickstart", "--ticks", "40", "--processes", "2", "--profile"]
        ) == 0
        assert "per-rank load profile" in capsys.readouterr().out

    def test_run_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.spk"
        assert main(
            ["run", "quickstart", "--ticks", "40", "--stats", "--trace", str(trace)]
        ) == 0
        assert trace.exists()
        from repro.core.trace import read_trace

        t, g, n = read_trace(trace)
        assert t.size > 0

    def test_trace_requires_stats(self, capsys, tmp_path):
        # Rejected at parse time (before any simulation), as a usage error.
        with pytest.raises(SystemExit) as exc:
            main(
                ["run", "quickstart", "--ticks", "10",
                 "--trace", str(tmp_path / "x.spk")]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--trace requires --stats" in err


class TestExec:
    def test_exec_info(self, capsys):
        assert main(["exec", "info"]) == 0
        out = capsys.readouterr().out
        assert "execution backends" in out
        for name in ("mpi", "pgas", "pool", "sequential"):
            assert f"\n  {name} " in out
        assert "pool-" not in out
        assert "host:" in out

    def test_exec_run_unknown_backend_is_a_message_not_a_traceback(self, capsys):
        assert main(
            ["exec", "run", "quickstart", "--ticks", "5", "--backend", "pool-mpi"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown execution backend 'pool-mpi'" in err
        assert "known: mpi, pgas, pool, sequential" in err

    def test_exec_run_in_process_backend(self, capsys):
        assert main(
            ["exec", "run", "quickstart", "--ticks", "20",
             "--processes", "2", "--backend", "pgas"]
        ) == 0
        assert "(pgas)" in capsys.readouterr().out

    def test_exec_run_profile_on_pool_equals_pgas(self, capsys):
        """The pool's per-rank table is ``run --pgas --profile``'s: both are
        read off the registry the same accounting fills."""

        def table(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return out[out.index("per-rank load profile"):]

        pool = table(["exec", "run", "quickstart", "--ticks", "20", "--processes", "4",
                      "--backend", "pool", "--workers", "2", "--profile"])
        pgas = table(["run", "quickstart", "--ticks", "20", "--processes", "4",
                      "--pgas", "--profile"])
        assert "msgs_in" in pool
        assert pool == pgas


class TestObs:
    def test_obs_trace_writes_valid_trace(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        rc = main(
            ["obs", "trace", "--model", "quickstart", "--cores", "8",
             "--ticks", "5", "--out", str(out), "--jsonl", str(jsonl)]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "traced 5 ticks" in captured
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        assert jsonl.exists()

    def test_obs_trace_with_fault_emits_resilience_instants(self, tmp_path):
        jsonl = tmp_path / "events.jsonl"
        rc = main(
            ["obs", "trace", "--model", "quickstart", "--cores", "8",
             "--ticks", "10", "--crash-at", "4:1",
             "--out", str(tmp_path / "t.json"), "--jsonl", str(jsonl)]
        )
        assert rc == 0
        names = {json.loads(line)["name"] for line in jsonl.read_text().splitlines()}
        assert "fault.rank_crash" in names
        assert "fault.detected" in names

    def test_obs_metrics_stdout(self, capsys):
        rc = main(["obs", "metrics", "--model", "quickstart", "--cores", "8",
                   "--ticks", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE compass_fired_total counter" in out

    def test_obs_diff_identical_and_divergent(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["obs", "trace", "--model", "quickstart", "--cores", "8",
                "--ticks", "5", "--out", str(tmp_path / "t.json")]
        assert main(argv + ["--jsonl", str(a)]) == 0
        assert main(argv + ["--jsonl", str(b)]) == 0
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

        # Different seed -> behavioural divergence, localised.
        c = tmp_path / "c.jsonl"
        assert main(argv + ["--jsonl", str(c), "--seed", "99"]) == 0
        assert main(["obs", "diff", str(a), str(c)]) == 1
        assert "divergen" in capsys.readouterr().out

    def test_obs_diff_unreadable_log_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rc = main(["obs", "diff", str(bad), str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestObsAnalysis:
    """The trace-analytics subcommands: obs analyze | flame | gate."""

    @pytest.fixture(scope="class")
    def events_log(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("obs-analysis")
        path = base / "events.jsonl"
        rc = main(
            ["obs", "trace", "--model", "quickstart", "--cores", "8",
             "--ticks", "5", "--out", str(base / "trace.json"),
             "--jsonl", str(path)]
        )
        assert rc == 0
        return path

    def test_analyze_stdout(self, events_log, capsys):
        assert main(["obs", "analyze", str(events_log)]) == 0
        out = capsys.readouterr().out
        assert "who bounded the run" in out
        assert "per-tick imbalance" in out
        assert "cluster totals (partition-invariant)" in out

    def test_analyze_writes_report(self, events_log, tmp_path, capsys):
        report = tmp_path / "analysis.txt"
        assert main(
            ["obs", "analyze", str(events_log), "--out", str(report)]
        ) == 0
        assert "wrote analysis report" in capsys.readouterr().out
        assert "who bounded the run" in report.read_text()

    def test_analyze_missing_file_is_usage_error(self, capsys, tmp_path):
        rc = main(["obs", "analyze", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no such event log" in err

    def test_analyze_empty_file_is_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["obs", "analyze", str(empty)])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_flame_table_and_folded(self, events_log, tmp_path, capsys):
        folded = tmp_path / "flame.folded"
        assert main(
            ["obs", "flame", str(events_log), "--folded", str(folded)]
        ) == 0
        out = capsys.readouterr().out
        assert "flame self/total" in out
        lines = folded.read_text().splitlines()
        assert lines and lines == sorted(lines)
        assert any(line.startswith("cluster;tick;") for line in lines)

    def test_flame_missing_file_is_usage_error(self, capsys, tmp_path):
        rc = main(["obs", "flame", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "no such event log" in capsys.readouterr().err

    def test_flame_rejects_nonpositive_limit(self, events_log, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "flame", str(events_log), "--limit", "0"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestObsWhy:
    """Cross-run root cause: obs why."""

    @staticmethod
    def _bench_file(path, workload="tick", peak_rss_mb=60.0, fired=7,
                    ticks_per_s=100.0):
        """One workload record in the ``python3 -m bench --json`` shape."""
        record = {
            "workload": workload,
            "failed": 0,
            "correct": True,
            "spike_digest": "d" * 64,
            "sim_digest": "5" * 64,
            "counts": {"fired": fired},
            "end_to_end": {
                "ticks_per_s": {"value": ticks_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            },
            "per_layer": None,
        }
        path.write_text(json.dumps([record]))
        return path

    def test_why_names_injected_memory_regression(self, tmp_path, capsys):
        old = self._bench_file(tmp_path / "old.json", peak_rss_mb=60.0)
        new = self._bench_file(tmp_path / "new.json", peak_rss_mb=150.0)
        out = tmp_path / "why.txt"
        rc = main(["obs", "why", str(old), str(new), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "largest shift: tick / peak_rss_mb (60 -> 150)" in text
        assert "largest shift: tick / peak_rss_mb (60 -> 150)" in out.read_text()

    def test_why_fail_on_regression_exits_1(self, tmp_path, capsys):
        old = self._bench_file(tmp_path / "old.json")
        new = self._bench_file(tmp_path / "new.json", fired=8)
        assert main(["obs", "why", str(old), str(new),
                     "--fail-on-regression"]) == 1
        assert "root cause: tick / counts.fired" in capsys.readouterr().out
        # Identical runs pass even with enforcement on.
        assert main(["obs", "why", str(old), str(old),
                     "--fail-on-regression"]) == 0
        assert "no regression" in capsys.readouterr().out
        # So does a run whose host-clock rates alone moved.
        slow = self._bench_file(tmp_path / "slow.json", ticks_per_s=40.0)
        assert main(["obs", "why", str(old), str(slow),
                     "--fail-on-regression"]) == 0
        assert "largest shift: tick / ticks_per_s" in capsys.readouterr().out

    def test_why_requires_two_operands(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "why", str(tmp_path / "only-old.json")])
        assert exc.value.code == 2
        assert "required: new" in capsys.readouterr().err

    def test_why_mixed_kinds_is_usage_error(self, tmp_path, capsys):
        bench = self._bench_file(tmp_path / "b.json")
        trace = tmp_path / "events.jsonl"
        trace.write_text('{"name": "tick", "ph": "X", "rank": -1}\n')
        rc = main(["obs", "why", str(bench), str(trace)])
        assert rc == 2
        assert "both sides" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", ["[]", '[{"workload": "x", "end_to_end": 3}]', '{"schema": 4}']
    )
    def test_why_malformed_bench_file_is_usage_error(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["obs", "why", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestMacaque:
    def test_macaque_small(self, capsys):
        assert main(["macaque", "--cores", "77", "--ticks", "30"]) == 0
        out = capsys.readouterr().out
        assert "77 regions" in out


class TestCheck:
    def test_lint_repo_is_clean(self, capsys):
        assert main(["check", "lint"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_lint_flags_violations_with_rule_ids(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["check", "lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out and "1 violation(s)" in out

    def test_lint_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef f(acc=[]):\n    return time.time()\n")
        assert main(["check", "lint", str(bad), "--rule", "DET104"]) == 1
        out = capsys.readouterr().out
        assert "DET104" in out and "DET101" not in out

    def test_races_quickstart_clean(self, capsys):
        assert main(["check", "races", "--ticks", "20", "--processes", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 races detected" in out
        assert "sanitized ticks" in out

    def test_model_check_valid_coreobject(self, coreobject_file, capsys):
        assert main(["check", "model", str(coreobject_file)]) == 0
        out = capsys.readouterr().out
        assert "model check passed" in out
        assert "[ipfp_balance]" in out

    def test_lint_missing_path_is_usage_error(self, capsys, tmp_path):
        assert main(["check", "lint", str(tmp_path / "absent.py")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["check", "lint", str(bad), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.check.lint"
        assert doc["findings"][0]["rule"] == "DET101"

    def test_races_json_format(self, capsys):
        assert (
            main(
                ["check", "races", "--ticks", "5", "--processes", "2",
                 "--threads", "2", "--format", "json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.check.races"
        assert doc["findings"] == []
        assert doc["summary"]["ticks"] == 5


class TestCheckFlow:
    TAINTED = "import time\n\ndef f(mb):\n    mb.send(0, time.time())\n"

    def test_repo_has_no_findings(self, capsys):
        assert main(["check", "flow"]) == 0
        assert "0 flow finding(s)" in capsys.readouterr().out

    def test_finding_without_baseline_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self.TAINTED)
        assert main(["check", "flow", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FLOW201" in out and "mailbox send" in out

    def test_json_format_and_out_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self.TAINTED)
        out_file = tmp_path / "flow.json"
        assert (
            main(["check", "flow", str(bad), "--format", "json", "--out",
                  str(out_file)])
            == 1
        )
        stdout = capsys.readouterr().out
        assert f"wrote json report: {out_file}" in stdout
        doc = json.loads(out_file.read_text())
        assert doc["summary"]["findings"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "FLOW201"
        assert finding["witness"]

    def test_json_output_byte_identical(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self.TAINTED)
        main(["check", "flow", str(bad), "--format", "json"])
        first = capsys.readouterr().out
        main(["check", "flow", str(bad), "--format", "json"])
        assert capsys.readouterr().out == first


class TestFigures:
    BLESSED = Path(__file__).parents[2] / "benchmarks" / "results"

    def test_cli_names_are_the_registered_tables(self):
        from repro.perf import FIGURE_TABLES

        assert FIGURES == tuple(FIGURE_TABLES)

    @pytest.mark.parametrize("name", FIGURES)
    def test_single_figure(self, capsys, name):
        """One renderer per figure: stdout is the blessed table, byte for byte."""
        assert main(["figures", name]) == 0
        (blessed,) = self.BLESSED.glob(f"{name}_*.txt")
        assert capsys.readouterr().out == blessed.read_text()

    def test_all_figures_are_the_tables_separated_by_blank_lines(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4a", "fig7", "headline"):
            (blessed,) = self.BLESSED.glob(f"{name}_*.txt")
            assert blessed.read_text() in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])

    def test_csv_export(self, capsys, tmp_path):
        out = tmp_path / "csv"
        assert main(["figures", "--csv", str(out)]) == 0
        assert (out / "fig4.csv").exists()
        assert (out / "fig7.csv").exists()


class TestExport:
    def test_export_cocomac(self, capsys, tmp_path):
        out = tmp_path / "export"
        assert main(["export", str(out), "--cores", "128"]) == 0
        assert (out / "reduced_graph.graphml").exists()
        assert (out / "regions.csv").exists()
        assert (out / "coreobject.json").exists()


class TestResilience:
    def test_inject_with_verify(self, capsys):
        assert main(
            [
                "resilience", "inject",
                "--ticks", "30", "--interval", "10",
                "--crash-at", "12:1", "--verify",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1 crash(es)" in out
        assert "spike digest:" in out
        assert "MATCH" in out

    def test_inject_spare_policy(self, capsys):
        assert main(
            [
                "resilience", "inject",
                "--ticks", "30", "--policy", "spare",
                "--crash-at", "12:0", "--drop-at", "20:0:1", "--verify",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=spare" in out
        assert "2 recovery(ies)" in out
        assert "MATCH" in out

    def test_report_prints_overhead_table(self, capsys):
        assert main(
            ["resilience", "report", "--ticks", "30", "--crash-at", "12:1"]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoint overhead" in out
        assert "lost ticks" in out
        assert "time to recover" in out
        assert "per-failure breakdown" in out

    def test_bad_crash_spec_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resilience", "inject", "--crash-at", "12"])
        assert exc.value.code == 2
        assert "TICK:RANK" in capsys.readouterr().err


class TestServe:
    RUN = [
        "serve", "run", "--mode", "open", "--jobs", "12", "--rate", "150",
        "--cores", "4", "--max-batch", "4", "--batch-delay-us", "5000",
        "--deadline-us", "200000", "--seed", "9",
    ]

    def test_run_open_loop_prints_report(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "jobs: submitted=12" in out
        assert "latency: p50=" in out
        assert "tenant" in out

    def test_run_json_round_trips_through_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(self.RUN + ["--json", str(path)]) == 0
        first = capsys.readouterr().out
        assert path.exists()
        assert main(["serve", "report", str(path)]) == 0
        reprinted = capsys.readouterr().out
        # The pretty-printed report is embedded in the run output.
        assert reprinted.strip() in first

    def test_run_is_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.RUN + ["--json", str(a)]) == 0
        assert main(self.RUN + ["--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_run_cross_layout_identical(self, capsys, tmp_path):
        one, four = tmp_path / "p1.json", tmp_path / "p4.json"
        assert main(self.RUN + ["--processes", "1", "--json", str(one)]) == 0
        assert main(self.RUN + ["--processes", "4", "--json", str(four)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_run_closed_loop(self, capsys):
        assert main(
            ["serve", "run", "--mode", "closed", "--clients", "3",
             "--jobs-per-client", "2", "--cores", "4", "--seed", "1"]
        ) == 0
        assert "jobs: submitted=6" in capsys.readouterr().out

    def test_run_with_crash_reports_retries(self, capsys):
        assert main(
            ["serve", "run", "--mode", "open", "--jobs", "4", "--cores", "4",
             "--processes", "2", "--crash-at", "5:1", "--ticks-lo", "10",
             "--ticks-hi", "20"]
        ) == 0
        assert "retries=1" in capsys.readouterr().out

    def test_submit_single_job(self, capsys):
        assert main(
            ["serve", "submit", "--tenant", "alice", "--ticks", "15",
             "--cores", "4", "--deadline-us", "500000"]
        ) == 0
        out = capsys.readouterr().out
        assert "job 0 done" in out
        assert "deadline=met" in out

    def test_pgas_with_crash_is_clean_error(self, capsys):
        assert main(
            ["serve", "submit", "--pgas", "--cores", "4", "--crash-at", "5:1"]
        ) == 2
        assert "mpi backend" in capsys.readouterr().err

    def test_report_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["serve", "report", str(tmp_path / "nope.json")]) == 2


class TestShard:
    RUN = [
        "shard", "run", "--shards", "3", "--tenants", "40", "--jobs", "60",
        "--rate", "300", "--cores", "4", "--max-batch", "4",
        "--batch-delay-us", "5000", "--deadline-us", "500000", "--seed", "9",
    ]

    def test_run_prints_fleet_report(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "offered=60 routed=60" in out
        assert "fleet report" in out
        assert "shards: 3" in out
        assert "routing_digest:" in out
        assert "peak_state_nbytes:" in out

    def test_run_json_round_trips_through_report(self, capsys, tmp_path):
        path = tmp_path / "fleet.json"
        assert main(self.RUN + ["--json", str(path)]) == 0
        first = capsys.readouterr().out
        assert path.exists()
        assert main(["shard", "report", str(path)]) == 0
        reprinted = capsys.readouterr().out
        assert reprinted.strip() in first

    def test_run_is_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = self.RUN + ["--autoscale", "--hot-fraction", "0.3",
                           "--hot-tenants", "2"]
        assert main(argv + ["--json", str(a)]) == 0
        assert main(argv + ["--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_run_cross_layout_identical(self, capsys, tmp_path):
        one, four = tmp_path / "p1.json", tmp_path / "p4.json"
        assert main(self.RUN + ["--processes", "1", "--json", str(one)]) == 0
        assert main(self.RUN + ["--processes", "4", "--json", str(four)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_run_with_crash_on_fault_shard(self, capsys):
        assert main(
            ["shard", "run", "--shards", "2", "--tenants", "10", "--jobs", "8",
             "--rate", "200", "--cores", "4", "--processes", "2",
             "--crash-at", "5:1", "--fault-shard", "1",
             "--ticks-lo", "10", "--ticks-hi", "20"]
        ) == 0
        assert "retries=1" in capsys.readouterr().out

    def test_invalid_spill_is_clean_error(self, capsys):
        assert main(
            ["shard", "run", "--shards", "2", "--spill", "5", "--jobs", "4"]
        ) == 2
        assert "spill" in capsys.readouterr().err

    def test_report_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["shard", "report", str(tmp_path / "nope.json")]) == 2


class TestArgumentValidation:
    """Invalid counts must produce a clean usage error, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "quickstart", "--ticks", "-5"],
            ["run", "quickstart", "--ticks", "abc"],
            ["run", "quickstart", "--processes", "0"],
            ["macaque", "--cores", "-1"],
            ["check", "races", "--threads", "0"],
            ["resilience", "inject", "--interval", "0"],
        ],
    )
    def test_invalid_count_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "integer" in err

    def test_missing_model_file_is_clean_error(self, capsys):
        assert main(["run", "no-such-model.npz"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_repro_error_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"regions": []}')  # valid JSON, not a CoreObject
        assert main(["compile", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestTypedFailures:
    """Bad layouts, load flags and malformed files: one ``error:`` line, exit 2.

    No command checks these for itself; each is refused by whoever
    decides it (``Partition``, ``cores_per_region``, the load generators,
    the file loaders) with a ``ReproError`` that ``main`` prints.
    """

    TOO_MANY_RANKS = [
        ["run", "quickstart", "--processes", "9"],
        ["exec", "run", "quickstart", "--processes", "9", "--backend", "mpi"],
        ["macaque", "--cores", "77", "--processes", "78", "--ticks", "1"],
        ["check", "races", "--processes", "17"],
        ["resilience", "inject", "--processes", "9"],
        ["resilience", "report", "--processes", "9"],
        ["obs", "trace", "--processes", "17"],
        ["obs", "metrics", "--processes", "17"],
        ["serve", "run", "--processes", "9"],
        ["serve", "submit", "--processes", "9"],
        ["shard", "run", "--processes", "9", "--cores", "4"],
    ]
    #: ``--ticks-lo`` above ``--ticks-hi``: no job length to draw.
    EMPTY_TICK_RANGE = [
        ["serve", "run", "--ticks-lo", "20", "--ticks-hi", "10"],
        ["serve", "run", "--mode", "closed", "--ticks-lo", "20", "--ticks-hi", "19"],
        ["shard", "run", "--ticks-lo", "20", "--ticks-hi", "10"],
    ]
    TOO_FEW_CORES = [
        ["macaque", "--cores", "64"],
        ["export", "DIR", "--cores", "10"],
    ]
    #: (file content, argv with FILE standing for its path)
    MALFORMED = [
        ("not a model\n", ["run", "FILE"]),
        ("not json\n", ["compile", "FILE"]),
        ("not json\n", ["check", "model", "FILE"]),
        ("not json\n", ["serve", "report", "FILE"]),
        ("not json\n", ["shard", "report", "FILE"]),
        ('{"schema": 1}', ["serve", "report", "FILE"]),
        ("[1, 2]", ["serve", "report", "FILE"]),
        ('{"schema": 2}', ["shard", "report", "FILE"]),
        ('{"ok": 1}\nnot json\n', ["obs", "analyze", "FILE"]),
        ('{"ok": 1}\nnot json\n', ["obs", "flame", "FILE"]),
    ]

    @staticmethod
    def _assert_one_error_line(capsys, rc, needle):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", TOO_MANY_RANKS, ids=" ".join)
    def test_more_ranks_than_cores(self, capsys, argv):
        self._assert_one_error_line(capsys, main(argv), "cannot spread")

    @pytest.mark.parametrize("argv", EMPTY_TICK_RANGE, ids=" ".join)
    def test_ticks_lo_above_ticks_hi(self, capsys, argv):
        self._assert_one_error_line(capsys, main(argv), "exceeds ticks_hi")

    @pytest.mark.parametrize("argv", TOO_FEW_CORES, ids=" ".join)
    def test_macaque_below_one_core_per_region(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "export") if a == "DIR" else a for a in argv]
        self._assert_one_error_line(
            capsys, main(argv), "need at least one core per region"
        )

    def test_macaque_through_serve_is_a_rejected_job(self, capsys):
        assert main(["serve", "submit", "--model", "macaque", "--cores", "64"]) == 1
        assert capsys.readouterr().err == "job 0 rejected: ConfigurationError\n"

    @pytest.mark.parametrize(
        "content, argv", MALFORMED, ids=[" ".join(a[:3]) + f" #{i}" for i, (_, a) in enumerate(MALFORMED)]
    )
    def test_malformed_file(self, capsys, tmp_path, content, argv):
        bad = tmp_path / "bad.input"
        bad.write_text(content)
        argv = [str(bad) if a == "FILE" else a for a in argv]
        self._assert_one_error_line(capsys, main(argv), "bad.input")

    def test_exec_run_does_not_take_pgas(self, capsys):
        # It used to parse and then run on the default backend (pool).
        with pytest.raises(SystemExit) as exc:
            main(["exec", "run", "quickstart", "--ticks", "5", "--pgas"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pgas" in capsys.readouterr().err

    def test_workers_on_a_backend_without_workers(self, capsys):
        # It used to run and drop the flag.
        rc = main(
            ["exec", "run", "quickstart", "--ticks", "5",
             "--backend", "mpi", "--workers", "3"]
        )
        self._assert_one_error_line(capsys, rc, "backend 'mpi' has none")

    def test_negative_fault_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resilience", "inject", "--crashes", "-1"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
