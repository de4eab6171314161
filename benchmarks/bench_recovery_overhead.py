"""Recovery-overhead sweep: checkpoint interval vs cost of a mid-run crash.

The classic resilience trade-off — frequent checkpoints cost simulated
time every interval, sparse checkpoints cost lost work per failure.  The
sweep crashes one rank mid-run at three checkpoint intervals and tables
both sides of the trade on the simulated clock.
"""

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.core.simulator import Compass
from repro.perf.report import format_table
from repro.resilience import FaultSchedule, RankCrash, ResilientRunner, spike_digest

TICKS = 60
CRASH_TICK = 37
N_CORES = 16
N_RANKS = 4


def _factory():
    net = build_quickstart_network(n_cores=N_CORES, seed=3)
    cfg = CompassConfig(n_processes=N_RANKS, record_spikes=True)

    def make():
        return Compass(net, cfg)

    return make


def test_interval_sweep_report(compare_result):
    make = _factory()
    clean = make().run(TICKS)
    digest = spike_digest(clean.spikes)

    rows = []
    for interval in (5, 10, 20):
        runner = ResilientRunner(
            make,
            schedule=FaultSchedule([RankCrash(tick=CRASH_TICK, rank=1)]),
            checkpoint_interval=interval,
        )
        result = runner.run(TICKS)
        r = runner.report
        assert spike_digest(result.spikes) == digest
        assert len(r.failures) == 1
        assert r.lost_ticks == CRASH_TICK - (CRASH_TICK // interval) * interval
        rows.append(
            (
                interval,
                r.n_checkpoints,
                round(r.checkpoint_overhead_s, 3),
                r.lost_ticks,
                round(r.time_to_recover_s, 3),
                round(r.total_overhead_s, 3),
            )
        )
    table = format_table(
        ["interval", "ckpts", "ckpt_s", "lost_ticks", "recover_s", "total_s"],
        rows,
        title=(
            f"recovery overhead vs checkpoint interval "
            f"({N_CORES}-core quickstart, {N_RANKS} ranks, "
            f"crash at tick {CRASH_TICK} of {TICKS}; simulated seconds)"
        ),
    )
    compare_result("recovery_overhead", table)
