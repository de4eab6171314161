"""Headline fleet-scale bench: sharded goodput vs one saturated cluster.

The fleet tier exists because one cluster's worker pool caps goodput.
This bench offers the *same* seeded open-loop tenant load to two
configurations:

* **single** — one :class:`~repro.serve.server.SimServer` with the
  per-shard worker pool (the capacity ceiling the ROADMAP calls out);
* **fleet** — a :class:`~repro.shard.router.ShardRouter` over
  ``SHARDS`` such clusters with consistent-hash routing, spill-over,
  and watermark autoscaling.

The offered rate is sized to saturate the single cluster (rejections +
deadline misses) while staying inside fleet capacity, so sharded
goodput must win.  All accounting is simulated time, so the table is
exact.
"""

from repro.perf.report import format_table
from repro.serve.jobs import SloFold
from repro.serve.loadgen import open_loop_load
from repro.serve.server import ServeConfig, SimServer
from repro.shard.autoscale import AutoscalePolicy
from repro.shard.fleet import build_fleet_report
from repro.shard.loadgen import fleet_open_loop
from repro.shard.router import FleetConfig, ShardRouter

SHARDS = 4
WORKERS = 2  # per shard; the single cluster gets the same pool
N_CORES = 4
TENANTS = 2_000
JOBS = 8_000
RATE_PER_S = 1_200.0
DEADLINE_US = 500_000.0
SEED = 11
BATCH_SIZE = 8
BATCH_DELAY_US = 5_000.0
QUEUE_CAPACITY = 64
HOT_FRACTION = 0.2
HOT_TENANTS = 4


def _serve_config() -> ServeConfig:
    return ServeConfig(
        workers=WORKERS,
        max_batch_size=BATCH_SIZE,
        max_batch_delay_us=BATCH_DELAY_US,
        queue_capacity=QUEUE_CAPACITY,
        keep_records=False,
    )


def _run_single():
    """The whole load against one cluster with one shard's worker pool."""
    server = SimServer(_serve_config())
    accumulator = SloFold()
    server.add_completion_hook(accumulator.observe)
    open_loop_load(
        server,
        rate_per_s=RATE_PER_S,
        jobs=JOBS,
        tenants=tuple(f"t{i}" for i in range(64)),
        cores=N_CORES,
        deadline_us=DEADLINE_US,
        seed=SEED,
    )
    server.run()
    return accumulator


def _run_fleet():
    router = ShardRouter(
        FleetConfig(
            shards=SHARDS,
            hot_depth=16,
            serve=_serve_config(),
            autoscale=AutoscalePolicy(min_workers=1, max_workers=4),
        )
    )
    fleet_open_loop(
        router,
        rate_per_s=RATE_PER_S,
        jobs=JOBS,
        tenants=TENANTS,
        cores=N_CORES,
        deadline_us=DEADLINE_US,
        seed=SEED,
        hot_fraction=HOT_FRACTION,
        hot_tenants=HOT_TENANTS,
    )
    router.run()
    return build_fleet_report(router)


def test_shard_scale_report(compare_result):
    single_acc = _run_single()
    single_goodput = single_acc.goodput_per_s
    fleet = _run_fleet()

    # The point of the subsystem: partitioning the tenant space across
    # shards must beat one saturated cluster on goodput.
    assert fleet.goodput_per_s > single_goodput
    assert fleet.jobs_completed + fleet.jobs_rejected + fleet.fleet_rejected == JOBS

    rows = [
        (
            "single",
            single_acc.completed,
            single_acc.rejected,
            single_acc.missed,
            round(single_goodput, 3),
        ),
        (
            "fleet",
            fleet.jobs_completed,
            fleet.jobs_rejected + fleet.fleet_rejected,
            fleet.deadline_missed,
            round(fleet.goodput_per_s, 3),
        ),
    ]
    table = format_table(
        ["config", "completed", "rejected", "missed", "goodput/s"],
        rows,
        title=(
            f"shard scale: {JOBS} jobs / {TENANTS} tenants at "
            f"{RATE_PER_S:.0f}/s offered, {SHARDS} shards x {WORKERS} "
            f"workers vs 1 cluster, deadline {DEADLINE_US/1e3:.0f}ms "
            "(simulated time)"
        ),
    )
    compare_result("shard_scale", table)
