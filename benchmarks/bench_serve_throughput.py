"""Serving-layer throughput: batched vs unbatched goodput under load.

The serving layer exists to amortise virtual-cluster setup across
compatible jobs.  This bench offers the *same* seeded open-loop load to
two service configurations — batching disabled (``max_batch=1``) and
batching enabled — and compares goodput (in-deadline completions per
simulated second) and tail latency.  Batching must win on goodput, and
both runs are exactly reproducible (all accounting is simulated time).
"""

from repro.perf.report import format_table
from repro.serve.loadgen import build_report, open_loop_load
from repro.serve.server import ServeConfig, SimServer

JOBS = 60
RATE_PER_S = 120.0
WORKERS = 2
N_CORES = 4
DEADLINE_US = 500_000.0
SEED = 11
BATCH_SIZE = 8
BATCH_DELAY_US = 8_000.0


def _run(max_batch: int, delay_us: float):
    server = SimServer(
        ServeConfig(
            workers=WORKERS,
            max_batch_size=max_batch,
            max_batch_delay_us=delay_us,
        )
    )
    open_loop_load(
        server,
        rate_per_s=RATE_PER_S,
        jobs=JOBS,
        cores=N_CORES,
        deadline_us=DEADLINE_US,
        seed=SEED,
    )
    server.run()
    return build_report(server)


def test_serve_throughput_report(compare_result):
    unbatched = _run(max_batch=1, delay_us=0.0)
    batched = _run(BATCH_SIZE, BATCH_DELAY_US)

    # The point of the subsystem: amortised setup must raise goodput.
    assert batched.goodput_per_s > unbatched.goodput_per_s
    assert batched.jobs_completed == unbatched.jobs_completed == JOBS

    rows = [
        (
            name,
            r.batches,
            round(r.mean_batch_size, 2),
            round(r.p50_us, 1),
            round(r.p99_us, 1),
            round(r.goodput_per_s, 3),
            r.deadline_missed,
        )
        for name, r in (("unbatched", unbatched), ("batched", batched))
    ]
    table = format_table(
        ["config", "batches", "mean_size", "p50_us", "p99_us",
         "goodput/s", "missed"],
        rows,
        title=(
            f"serve throughput: {JOBS} jobs at {RATE_PER_S:.0f}/s offered, "
            f"{WORKERS} workers, {N_CORES}-core quickstart, "
            f"deadline {DEADLINE_US/1e3:.0f}ms (simulated time)"
        ),
    )
    compare_result("serve_throughput", table)
