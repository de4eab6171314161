"""End-to-end determinism of the serving layer.

Two acceptance properties from the serving design:

1. **Fixed layout, repeated runs**: a seeded closed-loop load on the
   macaque model — including an injected rank crash routed through the
   resilience layer — completes every job and produces a byte-identical
   latency report on every run.
2. **Cross-layout**: for a fault-free load, the report is byte-identical
   between 1-process and 4-process virtual clusters, because run cost is
   charged only from partition-invariant quantities (ticks and per-tick
   fired counts).
"""

from __future__ import annotations

import pytest

from repro.resilience.faults import FaultSchedule, RankCrash
from repro.serve.jobs import DONE
from repro.serve.loadgen import ClosedLoopLoad, build_report, open_loop_load
from repro.serve.server import ServeConfig, SimServer

MACAQUE_CORES = 128
MACAQUE_SEED = 7


def _closed_loop_with_crash():
    server = SimServer(
        ServeConfig(
            workers=2,
            processes=4,
            max_batch_size=4,
            max_batch_delay_us=10_000.0,
            fault_schedule=FaultSchedule([RankCrash(tick=5, rank=1)]),
        )
    )
    load = ClosedLoopLoad(
        server,
        clients=3,
        jobs_per_client=3,
        think_us=2_000.0,
        model="macaque",
        cores=MACAQUE_CORES,
        model_seed=MACAQUE_SEED,
        ticks_lo=8,
        ticks_hi=16,
        deadline_us=2_000_000.0,
        seed=21,
    )
    load.start()
    server.run()
    return server, load


class TestClosedLoopMacaqueWithCrash:
    @pytest.fixture(scope="class")
    def first_run(self):
        return _closed_loop_with_crash()

    def test_all_jobs_complete(self, first_run):
        server, load = first_run
        assert len(load.job_ids) == 9
        assert all(server.jobs[i].status == DONE for i in load.job_ids)

    def test_crash_was_recovered_and_charged(self, first_run):
        server, _ = first_run
        retried = [b for b in server.batches if b.retries > 0]
        assert len(retried) == 1
        assert retried[0].overhead_us > 0.0
        # The recovery overhead lands on every job of the faulted batch.
        for jid in retried[0].job_ids:
            assert server.jobs[jid].overhead_us == retried[0].overhead_us

    def test_report_reproducible_at_fixed_layout(self, first_run):
        server, _ = first_run
        again, _ = _closed_loop_with_crash()
        assert build_report(again).to_json() == build_report(server).to_json()


class TestCrossLayoutByteIdentity:
    def _report(self, processes: int) -> str:
        server = SimServer(
            ServeConfig(
                workers=2,
                processes=processes,
                max_batch_size=4,
                max_batch_delay_us=5_000.0,
            )
        )
        open_loop_load(
            server,
            rate_per_s=100.0,
            jobs=12,
            model="macaque",
            cores=MACAQUE_CORES,
            model_seed=MACAQUE_SEED,
            ticks_lo=8,
            ticks_hi=16,
            deadline_us=2_000_000.0,
            seed=3,
        )
        server.run()
        return build_report(server).to_json()

    def test_1_vs_4_rank_reports_identical(self):
        assert self._report(1) == self._report(4)
