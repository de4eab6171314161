"""Byte-identity guarantees of the host-parallel execution backends.

The adapter contract (docs/execution.md) promises that for one network,
layout, and input schedule, every backend produces byte-identical spike
digests, observability event logs, and metric renderings — the host
worker count is pure mechanism.  These tests pin that promise against
the sequential reference:

* pool at 1 and 4 workers vs the in-process ``pgas`` backend, spike
  digest + JSONL event-log bytes + registry textfile (the pool parent
  steps a ``PgasCompass``, so the streams are its twin's);
* spike digests agree between the two in-process backends, so the pool
  agrees with ``sequential`` too;
* a mid-run host worker crash recovered by the resilience driver lands
  on the clean-run digest;
* the CLI drives the pool end to end and reports host utilization.

Pool runs spawn real processes, so configurations here stay small; the
throughput story lives in ``benchmarks/bench_host_parallel.py``.
"""

import pytest

from repro.apps.quicknet import build_quickstart_network
from repro.cli import main
from repro.core.config import CompassConfig
from repro.core.simulator import Compass
from repro.exec import ExecLayout, ProcessPoolAdapter, make_adapter
from repro.obs import Observability, render_textfile, write_event_log
from repro.resilience import ResilientRunner, spike_digest

TICKS = 20
N_CORES = 16
N_PROCESSES = 8


def _net():
    return build_quickstart_network(n_cores=N_CORES, seed=11)


def _layout(workers=1):
    return ExecLayout(
        n_processes=N_PROCESSES, record_spikes=True, workers=workers
    )


def _run(backend, workers=1, ticks=TICKS):
    obs = Observability.with_tracing()
    with make_adapter(backend, obs=obs) as sim:
        sim.prepare(_net(), _layout(workers))
        result = sim.run(ticks)
    return result, obs


@pytest.fixture(scope="module")
def sequential_run():
    return _run("sequential")


@pytest.fixture(scope="module")
def pgas_run():
    return _run("pgas")


class TestPoolByteIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_pgas_windows_match_in_process_pgas(
        self, pgas_run, workers, tmp_path
    ):
        ref_res, ref_obs = pgas_run
        pool_res, pool_obs = _run("pool", workers=workers)
        assert pool_res.total_spikes == ref_res.total_spikes
        assert spike_digest(pool_res.spikes) == spike_digest(ref_res.spikes)
        a = write_event_log(ref_obs.tracer, tmp_path / "pgas.jsonl")
        b = write_event_log(pool_obs.tracer, tmp_path / f"pool{workers}.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert render_textfile(pool_obs.registry) == render_textfile(
            ref_obs.registry
        )

    def test_digest_agrees_across_flavors(self, sequential_run, pgas_run):
        seq_res, _ = sequential_run
        pgas_res, _ = pgas_run
        assert spike_digest(seq_res.spikes) == spike_digest(pgas_res.spikes)


class TestMacaqueDigest:
    def test_pool_matches_sequential_on_macaque(self):
        from repro.cocomac.model import build_macaque_model

        def net():
            return build_macaque_model(total_cores=77, seed=3).compiled.network

        seq = Compass(
            net(), CompassConfig(n_processes=4, record_spikes=True)
        ).run(10)
        with make_adapter("pool") as sim:
            sim.prepare(
                net(),
                ExecLayout(n_processes=4, record_spikes=True, workers=4),
            )
            pool = sim.run(10)
        assert pool.total_spikes == seq.total_spikes
        assert spike_digest(pool.spikes) == spike_digest(seq.spikes)


class TestWorkerCrashRecovery:
    def test_recovery_lands_on_clean_digest(self):
        clean = Compass(
            _net(), CompassConfig(n_processes=N_PROCESSES, record_spikes=True)
        ).run(30)

        def factory():
            return ProcessPoolAdapter(workers=4).prepare(
                _net(), _layout(workers=4)
            )

        runner = ResilientRunner(factory, checkpoint_interval=5)
        runner.sim.inject_worker_crash(12, worker=1)
        try:
            result = runner.run(30)
        finally:
            runner.sim.teardown()

        assert spike_digest(result.spikes) == spike_digest(clean.spikes)
        kinds = [f.kind for f in runner.report.failures]
        assert kinds == ["WorkerCrashError"]


class TestExecCli:
    def test_exec_run_pool_reports_utilization(self, capsys):
        assert main(
            ["exec", "run", "quickstart", "--ticks", "10",
             "--processes", "4", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "(pool)" in out
        assert "core utilization" in out
