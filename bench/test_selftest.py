"""Self-test of the benchmark: ``python3 -m pytest bench -q``.

Runs the real command once at tiny ("smoke") sizes with the per-layer
pass on, then checks the benchmark's own promises: every name in
``BENCHMARK.json`` is emitted with a unit, self times stay inside their
spans, a digest mismatch fails the workload's operations, a vanished
span target reads ``null`` instead of crashing, and a checkout without
the program exits non-zero.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import __main__ as cli
from bench import host, layers, spans, verify
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> list[dict]:
    """One real traced run of all five workloads through ``python -m bench``.

    ``scatter_pool`` spawns pool workers from a spawned round process, so
    this also proves the entry point is spawn-safe.
    """
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seconds", "0.5",
         "--trace", "1", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    results = json.loads(out.read_text())
    assert all(r["smoke"] for r in results)
    return results


def test_manifest_matches_the_code():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["run_seconds"] == cli.DEFAULT_SECONDS
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["end_to_end"]} == cli.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]} == layers.LAYER_METRICS
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for k in ("end_to_end", "per_layer") for m in MANIFEST[k])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in MANIFEST["end_to_end"])


def test_every_metric_is_emitted_with_a_unit(smoke):
    assert [r["workload"] for r in smoke] == list(WORKLOADS)
    measured = set()
    for r in smoke:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r["problems"]
        assert set(r["end_to_end"]) == set(cli.END_TO_END)
        for name, m in r["end_to_end"].items():
            assert m["unit"] == cli.END_TO_END[name][0]
            assert math.isfinite(m["value"]) and m["value"] > 0, name
        assert set(r["per_layer"]) == set(layers.LAYER_METRICS)
        for name, m in r["per_layer"].items():
            assert m["unit"] == layers.LAYER_METRICS[name][0]
            if m["value"] is not None:
                assert math.isfinite(m["value"]), name
                measured.add(name)
        assert not r["warnings"], r["warnings"]
    assert measured == set(layers.LAYER_METRICS)


def test_self_times_stay_inside_their_spans(smoke):
    for r in smoke:
        assert r["self_within_span"], r["workload"]
        coverage = r["per_layer"]["bench.span_coverage_frac"]["value"]
        assert 0.0 < coverage <= 1.0 + 1e-9, (r["workload"], coverage)


def test_pool_round_ran_on_workers_and_left_no_shared_memory(smoke):
    pool = next(r for r in smoke if r["workload"] == "scatter_pool")
    assert pool["per_layer"]["exec.worker_peak_rss_mb"]["value"] > 0
    assert all(r["per_layer"]["exec.shm_leaked"]["value"] == 0 for r in smoke)


def _round(digest: str = "d0", slow: float = 1.0) -> dict:
    """A round as measured on a host ``slow`` times slower than the reference."""
    return {
        "seg_wall": [0.5 * slow, 0.5 * slow], "seg_cpu": [0.5 * slow, 0.5 * slow],
        "ticks": 50, "ops": 2, "setup_s": 0.1 * slow, "peak_rss_mb": 50.0, "import_s": 0.3,
        "calib_ms": [host.CALIB_REF_MS * slow] * 2, "calib_cpu_ms": [host.CALIB_REF_MS * slow] * 2,
        "sim_digest": digest, "counts": {"fired": 7},
    }


def test_host_seconds_are_scaled_to_the_reference_host():
    ok = {"ok": True, "spike_digest": "s"}
    slow_host = cli.summarize("scatter_mpi", [_round(slow=1.6), _round(slow=1.0)], ok)
    assert slow_host["end_to_end"]["ticks_per_s"]["value"] == pytest.approx(50.0)
    assert slow_host["end_to_end"]["setup_s"]["value"] == pytest.approx(0.1)
    assert slow_host["host"]["unscaled_ticks_per_s"] == pytest.approx(50.0 / 1.3)


def test_digest_mismatch_fails_every_operation():
    ok = {"ok": True, "spike_digest": "s"}
    good = cli.summarize("scatter_mpi", [_round(), _round(), _round()], ok)
    assert good["correct"] and good["attempted"] == 6 and good["failed"] == 0
    assert good["end_to_end"]["ticks_per_s"]["value"] == pytest.approx(50.0)

    drifted = cli.summarize("scatter_mpi", [_round(), _round("d1"), _round()], ok)
    assert not drifted["correct"] and drifted["failed"] == drifted["attempted"] == 6
    assert "sim_digest differs between rounds" in drifted["problems"]

    wrong_layout = cli.summarize(
        "scatter_mpi", [_round(), _round()], {"ok": False, "spike_digest": "s"})
    assert wrong_layout["failed"] == wrong_layout["attempted"] == 4


def test_serve_accounting_is_checked():
    r = dict(_round(), offered=10, completed=8, rejected=1)
    assert any("serve accounting" in p for p in verify.check_rounds([r]))


def test_vanished_span_target_reads_null_not_crash(monkeypatch):
    monkeypatch.setattr(verify, "sim_digest", verify.sim_digest)  # restored after
    monkeypatch.setattr(spans, "TARGETS", (
        ("bench.no_such_module", None, "f", "x.module_gone", None),
        ("bench.verify", None, "no_such_function", "x.function_gone", None),
        ("bench.verify", None, "sim_digest", "x.kept", lambda per_tick: len(per_tick)),
    ))
    log = spans.SpanLog()
    spans.install(log)
    assert log.missing == {"x.module_gone", "x.function_gone"}
    assert len(log.warnings) == 2
    log.mark("a")
    verify.sim_digest([])
    log.mark("b")
    kept = log.aggregate("a", "b")["x.kept"]
    assert kept["count"] == 1 and kept["self_within_span"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "ring_spiking",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
