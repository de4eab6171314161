"""Unit tests for the determinism lint engine (DET100–DET112).

Each rule gets a positive case (the violation is reported with its rule
id and location) and a suppressed case (the same construct with a
``# repro: allow[DETxxx]`` marker passes).  The engine itself is covered
for path scoping, rule filtering, and the syntax-error path — and the
installed ``repro`` package must lint clean, since that is what CI runs.
"""

from pathlib import Path

import pytest

import repro
from repro.check.lint import (
    iter_python_files,
    lint_source,
    path_is_rank_visible,
    run_lint,
)
from repro.check.rules import all_rules, rules_by_id
from repro.errors import CheckInputError


def rule_ids(violations):
    return [v.rule_id for v in violations]


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [r.rule_id for r in all_rules()]
        assert ids == [
            "DET101", "DET102", "DET103", "DET104", "DET105", "DET106", "DET107",
            "DET108", "DET109", "DET110", "DET111", "DET112",
        ]

    def test_rules_by_id_selects(self):
        (rule,) = rules_by_id(["DET103"])
        assert rule.rule_id == "DET103"

    def test_rules_by_id_rejects_unknown(self):
        with pytest.raises(CheckInputError, match="DET999"):
            rules_by_id(["DET999"])

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.title and rule.rationale


class TestSyntaxError:
    def test_unparseable_module_is_det100(self):
        violations = lint_source("def f(:\n    pass\n", path="bad.py")
        assert rule_ids(violations) == ["DET100"]
        assert "syntax error" in violations[0].message


class TestWallClock:
    def test_time_time_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET101"]
        assert violations[0].line == 4

    def test_datetime_now_flagged(self):
        src = "import datetime\n\nstamp = datetime.datetime.now()\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET101"]

    def test_perf_counter_allowed(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, path="x.py") == []

    def test_suppressed_on_same_line(self):
        src = (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro: allow[DET101] host log stamp\n"
        )
        assert lint_source(src, path="x.py") == []


class TestGlobalRng:
    def test_random_module_flagged(self):
        src = "import random\n\ndef f():\n    return random.random()\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET102"]

    def test_np_random_draw_flagged(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.rand(4)\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET102"]
        assert "default_rng" in violations[0].message

    def test_seeded_default_rng_allowed(self):
        src = (
            "import numpy as np\n\ndef f(seed):\n"
            "    return np.random.default_rng(seed).random(4)\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_unimported_random_namespace_not_flagged(self):
        # A local object that happens to be called `random` is not the
        # stdlib module unless the module imports it.
        src = "def f(random):\n    return random.random()\n"
        assert lint_source(src, path="x.py") == []

    def test_suppressed(self):
        src = (
            "import random\n\ndef f():\n"
            "    # repro: allow[DET102] demo script, not simulation state\n"
            "    return random.random()\n"
        )
        assert lint_source(src, path="x.py") == []


class TestUnorderedIteration:
    def test_dict_values_flagged(self):
        src = "def f(table):\n    return [v + 1 for v in table.values()]\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET103"]

    def test_set_literal_flagged(self):
        src = "def f():\n    for x in {3, 1, 2}:\n        print(x)\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET103"]

    def test_set_call_flagged(self):
        src = "def f(items):\n    return [x for x in set(items)]\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET103"]

    def test_sorted_wrapper_allowed(self):
        src = (
            "def f(table, items):\n"
            "    for k in sorted(table.keys()):\n"
            "        print(k)\n"
            "    return [x for x in sorted(set(items))]\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_not_applied_outside_rank_visible_paths(self):
        src = "def f(table):\n    return [v for v in table.values()]\n"
        path = str(Path("src") / "repro" / "apps" / "report.py")
        assert lint_source(src, path=path) == []

    def test_suppressed_on_line_above(self):
        src = (
            "def f(table):\n"
            "    # repro: allow[DET103] insertion order is the layout order\n"
            "    return [v for v in table.values()]\n"
        )
        assert lint_source(src, path="x.py") == []


class TestHostClockWait:
    def test_time_sleep_flagged(self):
        src = "import time\n\ndef backoff():\n    time.sleep(0.5)\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET106"]
        assert violations[0].line == 4

    def test_signal_alarm_flagged(self):
        src = "import signal\n\ndef watchdog():\n    signal.alarm(30)\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET106"]

    def test_settimeout_flagged(self):
        src = "def connect(sock):\n    sock.settimeout(2.0)\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET106"]

    def test_timeout_kwarg_flagged(self):
        src = "def wait(q):\n    return q.get(timeout=5)\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET106"]

    def test_timeout_none_allowed(self):
        src = "def wait(q):\n    return q.get(timeout=None)\n"
        assert lint_source(src, path="x.py") == []

    def test_not_applied_outside_rank_visible_paths(self):
        src = "import time\n\ndef poll():\n    time.sleep(1)\n"
        path = str(Path("src") / "repro" / "apps" / "monitor.py")
        assert lint_source(src, path=path) == []

    def test_resilience_paths_are_rank_visible(self):
        src = "import time\n\ndef backoff():\n    time.sleep(1)\n"
        path = str(Path("src") / "repro" / "resilience" / "recovery.py")
        assert rule_ids(lint_source(src, path=path)) == ["DET106"]

    def test_suppressed(self):
        src = (
            "import time\n\ndef backoff():\n"
            "    time.sleep(0.5)  # repro: allow[DET106] host-side CLI wait\n"
        )
        assert lint_source(src, path="x.py") == []


class TestFlushBoundary:
    def test_write_text_flagged(self):
        src = "def export(p, text):\n    p.write_text(text)\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET107"]
        assert violations[0].line == 2

    def test_open_for_writing_flagged(self):
        src = "def export(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET107"]

    def test_open_mode_kwarg_flagged(self):
        src = "def export(path):\n    return open(path, mode='ab')\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET107"]

    def test_open_read_only_allowed(self):
        src = "def load(path):\n    with open(path) as fh:\n        return fh.read()\n"
        assert lint_source(src, path="x.py") == []
        src = "def load(path):\n    with open(path, 'rb') as fh:\n        return fh.read()\n"
        assert lint_source(src, path="x.py") == []

    def test_open_dynamic_mode_flagged(self):
        # A mode that cannot be proven read-only is treated as a write.
        src = "def export(path, mode):\n    return open(path, mode)\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET107"]

    def test_json_dump_and_np_savez_flagged(self):
        src = (
            "import json\nimport numpy as np\n\n"
            "def export(obj, fh, path, arr):\n"
            "    json.dump(obj, fh)\n"
            "    np.savez(path, arr=arr)\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET107", "DET107"]

    def test_marked_def_line_exempt(self):
        src = "def flush(p, text):  # repro: obs-flush\n    p.write_text(text)\n"
        assert lint_source(src, path="x.py") == []

    def test_marked_line_above_exempt(self):
        src = (
            "# repro: obs-flush\n"
            "def flush(p, text):\n    p.write_text(text)\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_nested_function_inherits_exemption(self):
        src = (
            "def flush(p, items):  # repro: obs-flush\n"
            "    def write_one(item):\n"
            "        p.write_text(item)\n"
            "    for item in items:\n"
            "        write_one(item)\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_not_applied_outside_rank_visible_paths(self):
        src = "def save(p, text):\n    p.write_text(text)\n"
        path = str(Path("src") / "repro" / "analysis" / "report.py")
        assert lint_source(src, path=path) == []

    def test_suppressed(self):
        src = (
            "def save(p, text):\n"
            "    p.write_text(text)  # repro: allow[DET107] test fixture\n"
        )
        assert lint_source(src, path="x.py") == []


class TestSchedulingOrder:
    SERVE = "src/repro/serve/queue.py"

    def test_bare_heappush_flagged_in_serve(self):
        src = (
            "import heapq\n\n"
            "def push(heap, wid):\n    heapq.heappush(heap, wid)\n"
        )
        violations = lint_source(src, path=self.SERVE)
        assert rule_ids(violations) == ["DET108"]
        assert "tie-break" in violations[0].message

    def test_imported_heappush_flagged_in_serve(self):
        src = (
            "from heapq import heappush\n\n"
            "def push(heap, wid):\n    heappush(heap, wid)\n"
        )
        assert rule_ids(lint_source(src, path=self.SERVE)) == ["DET108"]

    def test_tuple_entry_allowed(self):
        src = (
            "import heapq\n\n"
            "def push(heap, prio, seq, job):\n"
            "    heapq.heappush(heap, (prio, seq, job))\n"
        )
        assert lint_source(src, path=self.SERVE) == []

    def test_single_element_tuple_flagged(self):
        src = (
            "import heapq\n\n"
            "def push(heap, job):\n    heapq.heappush(heap, (job,))\n"
        )
        assert rule_ids(lint_source(src, path=self.SERVE)) == ["DET108"]

    def test_items_iteration_flagged_in_serve(self):
        src = (
            "def drain(queues):\n"
            "    return [k for k, v in queues.items()]\n"
        )
        assert rule_ids(lint_source(src, path=self.SERVE)) == ["DET108"]

    def test_sorted_items_allowed(self):
        src = (
            "def drain(queues):\n"
            "    return [k for k, v in sorted(queues.items())]\n"
        )
        assert lint_source(src, path=self.SERVE) == []

    def test_not_applied_outside_serve(self):
        src = (
            "import heapq\n\n"
            "def push(heap, wid):\n    heapq.heappush(heap, wid)\n"
        )
        assert lint_source(src, path="src/repro/core/simulator.py") == []

    def test_unsorted_items_flagged_in_shard_ring(self):
        # The fleet tier carries scheduling state too: an unsorted
        # .items() walk over per-shard loads would encode insertion
        # history into routing decisions.
        src = (
            "def pick(loads):\n"
            "    return [s for s, depth in loads.items() if depth == 0]\n"
        )
        violations = lint_source(src, path="src/repro/shard/ring.py")
        assert rule_ids(violations) == ["DET108"]

    def test_heappush_flagged_in_shard(self):
        src = (
            "import heapq\n\n"
            "def push(heap, shard):\n    heapq.heappush(heap, shard)\n"
        )
        assert rule_ids(
            lint_source(src, path="src/repro/shard/router.py")
        ) == ["DET108"]

    def test_suppression(self):
        src = (
            "import heapq\n\n"
            "def push(heap, entry):\n"
            "    heapq.heappush(heap, entry)"
            "  # repro: allow[DET108] entry is a tuple\n"
        )
        assert lint_source(src, path=self.SERVE) == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        src = "def f(acc=[]):\n    return acc\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET104"]

    def test_factory_call_and_kwonly_flagged(self):
        src = "def f(*, cache=dict()):\n    return cache\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET104"]

    def test_none_default_allowed(self):
        src = "def f(acc=None):\n    return acc or []\n"
        assert lint_source(src, path="x.py") == []

    def test_applies_even_off_simulation_paths(self):
        src = "def f(acc=[]):\n    return acc\n"
        path = str(Path("src") / "repro" / "apps" / "report.py")
        assert rule_ids(lint_source(src, path=path)) == ["DET104"]

    def test_suppressed(self):
        src = (
            "# repro: allow[DET104] sentinel list, never mutated\n"
            "def f(acc=[]):\n    return acc\n"
        )
        assert lint_source(src, path="x.py") == []


class TestBroadExcept:
    def test_bare_except_flagged(self):
        src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET105"]

    def test_except_exception_flagged(self):
        src = (
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        return None\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET105"]

    def test_specific_exception_allowed(self):
        src = (
            "def f():\n    try:\n        g()\n"
            "    except ValueError:\n        return None\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_reraise_allowed(self):
        src = (
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        cleanup()\n        raise\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_suppressed(self):
        src = (
            "def f():\n    try:\n        g()\n"
            "    # repro: allow[DET105] top-level CLI guard\n"
            "    except Exception:\n        return 1\n"
        )
        assert lint_source(src, path="x.py") == []


class TestEngine:
    def test_path_classification(self):
        assert path_is_rank_visible("src/repro/runtime/mpi.py")
        assert path_is_rank_visible("src/repro/core/simulator.py")
        assert not path_is_rank_visible("src/repro/apps/quicknet.py")
        assert not path_is_rank_visible("src/repro/cli/sim.py")
        assert not path_is_rank_visible("src/repro/check/lint.py")
        # Unknown paths default strict.
        assert path_is_rank_visible("tests/fixtures/whatever.py")

    def test_run_lint_over_directory(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\n\ndef f(acc=[]):\n    return time.time(), acc\n"
        )
        (tmp_path / "clean.py").write_text("def f():\n    return 1\n")
        report = run_lint([tmp_path])
        assert report.files_checked == 2
        assert rule_ids(report.violations) == ["DET104", "DET101"]
        assert not report.passed
        assert "2 violation(s) in 2 file(s)" in report.format()

    def test_violations_sorted_and_formatted(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import time\nt = time.time()\nu = time.time()\n")
        report = run_lint([path])
        lines = [v.line for v in report.violations]
        assert lines == sorted(lines)
        assert report.violations[0].format().startswith(f"{path}:2:")

    def test_rule_filter(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import time\n\ndef f(acc=[]):\n    return time.time()\n")
        report = run_lint([path], rules=rules_by_id(["DET104"]))
        assert rule_ids(report.violations) == ["DET104"]

    def test_iter_python_files_rejects_non_python(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_text("hi")
        with pytest.raises(CheckInputError, match="not a python file"):
            iter_python_files([other])

    def test_iter_python_files_names_missing_path(self, tmp_path):
        missing = tmp_path / "nope" / "gone.py"
        with pytest.raises(CheckInputError, match="no such file or directory"):
            iter_python_files([missing])
        with pytest.raises(CheckInputError, match="gone.py"):
            iter_python_files([missing])

    def test_non_utf8_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "latin1.py"
        path.write_bytes(b"# caf\xe9\nx = 1\n")
        with pytest.raises(CheckInputError, match="not valid UTF-8"):
            run_lint([path])
        with pytest.raises(CheckInputError, match="latin1.py"):
            run_lint([path])

    def test_installed_repro_package_is_clean(self):
        """The acceptance gate CI runs: the repo lints clean."""
        report = run_lint([Path(repro.__file__).parent])
        assert report.files_checked > 50
        assert report.passed, report.format()


class TestPathClassificationTable:
    """The rank-visibility classifier, one row per package family."""

    RANK_VISIBLE = [
        "src/repro/runtime/mpi.py",
        "src/repro/runtime/pgas.py",
        "src/repro/core/simulator.py",
        "src/repro/compiler/pcc.py",
        "src/repro/arch/crossbar.py",
        "src/repro/cocomac/model.py",
        "src/repro/util/rng.py",
        "src/repro/errors.py",
        "src/repro/resilience/recovery.py",
        "src/repro/obs/tracer.py",
        "src/repro/serve/server.py",
    ]
    NOT_RANK_VISIBLE = [
        "src/repro/apps/quicknet.py",
        "src/repro/perf/report.py",
        "src/repro/analysis/raster.py",
        "src/repro/check/flow/taint.py",
        "src/repro/cli/__init__.py",
        "src/repro/cli/common.py",
        "src/repro/version.py",
    ]

    def test_rank_visible_paths(self):
        for path in self.RANK_VISIBLE:
            assert path_is_rank_visible(path), path

    def test_non_rank_visible_paths(self):
        for path in self.NOT_RANK_VISIBLE:
            assert not path_is_rank_visible(path), path

    def test_paths_outside_repro_default_strict(self):
        assert path_is_rank_visible("tests/unit/test_lint.py")
        assert path_is_rank_visible("fixture.py")


class TestExplicitTimestamp:
    SERVE = "src/repro/serve/server.py"
    LIVE = "src/repro/obs/live/pipeline.py"

    def test_instant_without_ts_flagged_in_serve(self):
        src = (
            "def emit(tracer, job):\n"
            "    tracer.instant('serve.done', rank=-1, job=job)\n"
        )
        violations = lint_source(src, path=self.SERVE)
        assert rule_ids(violations) == ["DET110"]
        assert "ts_us" in violations[0].message

    def test_ts_none_flagged(self):
        src = (
            "def emit(tracer):\n"
            "    tracer.complete('job.run', rank=0, ts_us=None)\n"
        )
        assert rule_ids(lint_source(src, path=self.LIVE)) == ["DET110"]

    def test_explicit_ts_allowed(self):
        src = (
            "def emit(self, job):\n"
            "    self.obs.tracer.instant('serve.done', rank=-1, "
            "ts_us=self.now_us, job=job)\n"
        )
        assert lint_source(src, path=self.SERVE) == []

    def test_phase_clock_emitters_banned(self):
        src = (
            "def emit(tracer, tick):\n"
            "    with tracer.span('route', rank=0, tick=tick):\n"
            "        pass\n"
        )
        violations = lint_source(src, path="src/repro/shard/router.py")
        assert rule_ids(violations) == ["DET110"]
        assert "phase" in violations[0].message

    def test_non_tracer_receiver_not_flagged(self):
        src = "def f(queue):\n    queue.complete('x')\n"
        assert lint_source(src, path=self.SERVE) == []

    def test_not_applied_to_posthoc_obs(self):
        # The core simulator and post-hoc obs analysis legitimately emit
        # on the tracer's phase-window clock.
        src = (
            "def emit(tracer, tick):\n"
            "    with tracer.span('deliver', rank=0, tick=tick):\n"
            "        pass\n"
        )
        assert lint_source(src, path="src/repro/obs/span.py") == []
        assert lint_source(src, path="src/repro/core/simulator.py") == []

    def test_suppressed(self):
        src = (
            "def emit(tracer, job):\n"
            "    # repro: allow[DET110] replayed event keeps source stamp\n"
            "    tracer.instant('serve.replay', rank=-1, job=job)\n"
        )
        assert lint_source(src, path=self.SERVE) == []


class TestEnvFsOrder:
    def test_environ_read_flagged(self):
        src = "import os\n\ndef f():\n    return os.environ['SEED']\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET109"]

    def test_getenv_flagged(self):
        src = "import os\n\ndef f():\n    return os.getenv('SEED')\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET109"]

    def test_listdir_iteration_flagged(self):
        src = "import os\n\ndef f(d):\n    return [p for p in os.listdir(d)]\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET109"]

    def test_iterdir_for_loop_flagged(self):
        src = (
            "import os\n\ndef f(d):\n    for p in d.iterdir():\n"
            "        handle(p)\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET109"]

    def test_sorted_listing_allowed(self):
        src = (
            "import os\n\ndef f(d):\n"
            "    return [p for p in sorted(os.listdir(d))]\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_unimported_os_namespace_not_flagged(self):
        src = "def f(os):\n    return os.environ\n"
        assert lint_source(src, path="x.py") == []

    def test_not_applied_outside_rank_visible_paths(self):
        src = "import os\n\ndef f():\n    return os.getenv('SEED')\n"
        path = str(Path("src") / "repro" / "apps" / "report.py")
        assert lint_source(src, path=path) == []

    def test_suppressed(self):
        src = (
            "import os\n\ndef f():\n"
            "    # repro: allow[DET109] documented launch-time input\n"
            "    return os.environ['SEED']\n"
        )
        assert lint_source(src, path="x.py") == []


class TestHostProfBoundary:
    def test_tracemalloc_read_flagged(self):
        src = (
            "import tracemalloc\n\ndef peak():\n"
            "    return tracemalloc.get_traced_memory()[1]\n"
        )
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET111"]
        assert "tracemalloc.get_traced_memory" in violations[0].message
        assert violations[0].line == 4

    def test_tracemalloc_start_flagged(self):
        src = "import tracemalloc\n\ndef begin():\n    tracemalloc.start(1)\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET111"]

    def test_current_frames_flagged(self):
        src = "import sys\n\ndef stacks():\n    return sys._current_frames()\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET111"]
        assert "sys._current_frames" in violations[0].message

    def test_getrusage_flagged(self):
        src = (
            "import resource\n\ndef rss():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF)\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET111"]

    def test_host_prof_marker_exempts_nothing(self):
        # The marker went with the in-program profiler it sanctioned.
        src = (
            "import tracemalloc\n\n"
            "# repro: host-prof\n"
            "def meter():  # repro: host-prof\n"
            "    def begin():\n"
            "        tracemalloc.start()\n"
            "    return begin()\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET111"]

    def test_obs_package_is_linted(self):
        src = "import tracemalloc\n\ndef peak():\n    return tracemalloc.stop()\n"
        path = str(Path("src") / "repro" / "obs" / "span.py")
        assert rule_ids(lint_source(src, path=path)) == ["DET111"]

    def test_not_applied_outside_rank_visible_paths(self):
        src = "import tracemalloc\n\ndef peak():\n    return tracemalloc.stop()\n"
        path = str(Path("src") / "repro" / "perf" / "meter.py")
        assert lint_source(src, path=path) == []

    def test_suppressed(self):
        src = (
            "import resource\n\ndef rss():\n"
            "    # repro: allow[DET111] documented one-shot diagnostics\n"
            "    return resource.getrusage(resource.RUSAGE_SELF)\n"
        )
        assert lint_source(src, path="x.py") == []


class TestExecHostBoundary:
    def test_cpu_count_flagged(self):
        src = "import os\n\ndef width():\n    return os.cpu_count()\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET112"]
        assert "os.cpu_count" in violations[0].message
        assert violations[0].line == 4

    def test_multiprocessing_cpu_count_flagged(self):
        src = (
            "import multiprocessing\n\ndef width():\n"
            "    return multiprocessing.cpu_count()\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET112"]

    def test_fork_context_flagged(self):
        src = (
            "import multiprocessing\n\ndef ctx():\n"
            "    return multiprocessing.get_context('fork')\n"
        )
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET112"]
        assert "fork start method" in violations[0].message

    def test_fork_start_method_flagged(self):
        src = (
            "import multiprocessing as mp\n\ndef setup():\n"
            "    mp.set_start_method('forkserver')\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET112"]

    def test_os_fork_flagged(self):
        src = "import os\n\ndef clone():\n    return os.fork()\n"
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET112"]
        assert "spawn" in violations[0].message

    def test_spawn_context_allowed(self):
        src = (
            "import multiprocessing\n\ndef ctx():\n"
            "    return multiprocessing.get_context('spawn')\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_unseeded_rng_flagged(self):
        src = (
            "import numpy as np\n\ndef stream():\n"
            "    return np.random.default_rng()\n"
        )
        violations = lint_source(src, path="x.py")
        assert rule_ids(violations) == ["DET112"]
        assert "unseeded" in violations[0].message

    def test_unseeded_random_flagged(self):
        # random.Random() is both a global-state RNG touch (DET102) and
        # an unseeded construction (DET112).
        src = "import random\n\ndef stream():\n    return random.Random()\n"
        assert rule_ids(lint_source(src, path="x.py")) == ["DET102", "DET112"]

    def test_unseeded_seed_sequence_flagged(self):
        src = (
            "import numpy as np\n\ndef entropy():\n"
            "    return np.random.SeedSequence()\n"
        )
        assert rule_ids(lint_source(src, path="x.py")) == ["DET112"]

    def test_seeded_rng_allowed(self):
        src = (
            "import numpy as np\n\ndef stream(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_exec_package_is_linted(self):
        src = "import os\n\ndef width():\n    return os.cpu_count()\n"
        path = str(Path("src") / "repro" / "exec" / "pool.py")
        assert rule_ids(lint_source(src, path=path)) == ["DET112"]

    def test_not_applied_outside_rank_visible_paths(self):
        src = "import os\n\ndef width():\n    return os.cpu_count()\n"
        path = str(Path("src") / "repro" / "analysis" / "meter.py")
        assert lint_source(src, path=path) == []

    def test_suppressed(self):
        src = (
            "import os\n\ndef width():\n"
            "    # repro: allow[DET112] documented capacity-planning probe\n"
            "    return os.cpu_count()\n"
        )
        assert lint_source(src, path="x.py") == []
