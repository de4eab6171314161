"""The five workloads and the code that runs one round of one of them.

A *round* is one fresh process: build inputs -> ``prepare`` -> warm-up
(all counted in ``setup_s``) -> timed *segments* of fixed work
(:data:`SEGMENT_TICKS` simulated ticks, or :data:`SEGMENT_JOBS`
submitted jobs) -> teardown.  The segment count follows from ``--seconds``
alone (:func:`segments_for`), never from how fast this commit happens to
run, so every round of every commit replays the same seeded work: segment
*i* is identical across rounds, and digests compare exactly across commits.

The untraced path touches only the program's stable surface:
``make_adapter(...).prepare/run/teardown``, ``ExecLayout``, the three
network builders, ``JobSpec``, ``ShardRouter.submit/run`` and
``build_fleet_report`` (README "Refactor-proofing").
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from bench import host, verify
from bench.spans import SpanLog, install

SEGMENT_TICKS = 25
WARMUP_TICKS = 20
SEGMENT_JOBS = 50
WARMUP_JOBS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sim" | "serve"
    backend: str
    ranks: int
    size: int  # cores (sim) / batch keys (serve)
    smoke_size: int
    smoke_ranks: int
    #: Ticks (jobs) per host second that turn ``--seconds`` into a segment
    #: count.  Near the baseline host's rate, lower where set-up and checks
    #: take most of the run (``macaque_dense``); not a measurement.
    nominal_rate: float

    def sized(self, smoke: bool) -> tuple[int, int]:
        """(size, ranks) at full or smoke scale."""
        return (self.smoke_size, self.smoke_ranks) if smoke else (self.size, self.ranks)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "macaque_dense",
            "near-quiescent 1024-core macaque model: the neuron kernel is ~80% of the "
            "tick, network idle; largest state, only PCC-compile set-up",
            "sim", "sequential", 4, 1024, 96, 2, 20.0,
        ),
        Workload(
            "ring_spiking",
            "256-core ring at ~70 Hz on the one-sided backend: synapse phase "
            "dominates, spikes stay rank-local; bypasses the kernel-only path",
            "sim", "pgas", 8, 256, 16, 4, 31.0,
        ),
        Workload(
            "scatter_mpi",
            "64 cores, uniformly random targets, 16 ranks: ~230 messages/tick load "
            "deliver, send buffers, runtime and the per-rank Python loop",
            "sim", "sequential", 16, 64, 16, 4, 38.0,
        ),
        Workload(
            "scatter_pool",
            "the scatter network through the host-parallel pool: parent barrier, "
            "replay and shared-memory windows; bypassed by sequential-only changes",
            "sim", "pool", 16, 64, 16, 4, 47.0,
        ),
        Workload(
            "serve_zipf",
            "open-loop Zipf job stream through 4 shards: hundreds of short-lived "
            "simulators, so construction cost and the serve caches show here",
            "serve", "mpi", 1, 64, 12, 1, 75.0,
        ),
    )
}


@dataclass(frozen=True)
class RoundSpec:
    """What one round process is asked to do."""

    workload: str
    seed: int
    segments: int
    smoke: bool = False
    #: "" (plain untraced) | "spans" (bench.spans wrapped around the layers) |
    #: "seq_base" (pgas, in-process) | "pool1" (one worker) |
    #: "obs_tracing" (the program's own tracer on).
    variant: str = ""


def segments_for(wl: Workload, round_seconds: float) -> int:
    """Timed segments per round that fill ``round_seconds`` on the baseline host."""
    unit = SEGMENT_JOBS if wl.kind == "serve" else SEGMENT_TICKS
    return max(1, round(round_seconds * wl.nominal_rate / unit))


def pool_workers() -> int:
    return min(2, host.cores())


# -- inputs ---------------------------------------------------------------


def build_inputs(wl: Workload, seed: int, smoke: bool) -> Any:
    """The workload's network, generated from ``seed`` (sim workloads)."""
    size, _ = wl.sized(smoke)
    if wl.name == "macaque_dense":
        from repro.cocomac import model

        return model.build_macaque_model(total_cores=size, seed=seed).compiled.network
    if wl.name == "ring_spiking":
        from repro.apps import quicknet

        return quicknet.build_quickstart_network(n_cores=size, seed=seed)
    from bench.netgen import build_scatter_network

    return build_scatter_network(n_cores=size, seed=seed)


#: Offered load on the simulated clock.  The ISSUE's 1200 jobs/s exceeds
#: what 4 shards x 2 workers sustain (fleet rejections after ~1500 jobs);
#: 800 keeps every queue below capacity at any stream length we run.
SERVE_RATE_PER_S = 800.0


def job_stream(wl: Workload, seed: int, smoke: bool) -> Iterator[tuple[Any, float]]:
    """Endless seeded (JobSpec, arrival_us) stream for ``serve_zipf``.

    Open loop on the *simulated* clock: Poisson arrivals at
    :data:`SERVE_RATE_PER_S`, Zipf(1.1) popularity over the batch keys,
    so a few networks are asked for again and again while the tail keeps
    evicting them from the program's caches.
    """
    from repro.serve.jobs import JobSpec

    keys, _ = wl.sized(smoke)
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, keys + 1) ** 1.1
    popularity /= popularity.sum()
    at_us = 0.0
    while True:
        k = int(rng.choice(keys, p=popularity))
        at_us += float(rng.exponential(1e6 / SERVE_RATE_PER_S))
        yield (
            JobSpec(
                tenant=f"tenant-{int(rng.integers(2000))}",
                model="quickstart",
                cores=(4, 8, 16)[k % 3],
                ticks=int(rng.integers(10, 41)),
                seed=1000 + 64 * seed + k,
                deadline_us=500_000.0,
            ),
            at_us,
        )


def make_router() -> Any:
    from repro.serve.server import ServeConfig
    from repro.shard.router import FleetConfig, ShardRouter

    return ShardRouter(
        FleetConfig(
            shards=4,
            serve=ServeConfig(
                workers=2,
                backend="mpi",
                max_batch_size=8,
                max_batch_delay_us=5000.0,
                queue_capacity=64,
                keep_records=False,
            ),
        )
    )


# -- one round --------------------------------------------------------------


#: Calibration readings before set-up, before every timed segment and after
#: the last: about a tenth of the timed wall, spread evenly over it.
CALIB_READS = 3


class _Meter:
    """Wall and CPU (this process + live children) per timed segment, and
    the host's speed (:class:`host.Calibrator`) between the segments."""

    def __init__(self, lanes: int = 1) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.calib_ms: list[float] = []
        self.calib_cpu_ms: list[float] = []
        self.parent_cpu = 0.0
        self.child_cpu = 0.0
        self._calibrator = host.Calibrator(lanes)

    def calibrate(self) -> None:
        for _ in range(CALIB_READS):
            wall_ms, cpu_ms = self._calibrator.read()
            self.calib_ms.append(wall_ms)
            self.calib_cpu_ms.append(cpu_ms)

    def close(self) -> None:
        self._calibrator.close()

    def __enter__(self) -> None:
        self.calibrate()
        self._c0 = time.process_time()
        self._k0 = host.children_cpu_s()
        self._w0 = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        w1 = time.perf_counter()
        parent = time.process_time() - self._c0
        child = host.children_cpu_s() - self._k0
        self.wall.append(w1 - self._w0)
        self.cpu.append(parent + child)
        self.parent_cpu += parent
        self.child_cpu += child


def _sim_round(spec: RoundSpec, wl: Workload, mark: Callable[[str], None]) -> dict[str, Any]:
    from repro.exec import ExecLayout, make_adapter
    from repro.obs import Observability

    _, ranks = wl.sized(spec.smoke)
    backend, kw = wl.backend, {}
    if wl.backend == "pool":
        kw["workers"] = 1 if spec.variant == "pool1" else pool_workers()
        if spec.variant == "seq_base":
            backend, kw = "pgas", {}
    obs = Observability.with_tracing() if spec.variant == "obs_tracing" else Observability.off()

    # The calibration kernel runs on as many cores as the workers compute on.
    meter = _Meter(lanes=kw.get("workers", 1))
    meter.calibrate()
    t0 = time.perf_counter()
    network = build_inputs(wl, spec.seed, spec.smoke)
    adapter = make_adapter(backend, obs=obs, **kw)
    try:
        adapter.prepare(network, ExecLayout(n_processes=ranks))
        adapter.run(WARMUP_TICKS)
        setup_s = time.perf_counter() - t0
        mark("timed")
        for _ in range(spec.segments):
            with meter:
                result = adapter.run(SEGMENT_TICKS)
        mark("end")
        meter.calibrate()
        rss_self, rss_workers = host.peak_rss_mb()
        # On the adapter contract, but not on the list a refactor must keep.
        state_nbytes = getattr(adapter, "state_nbytes", None)
        state_mb = state_nbytes() / 1e6 if state_nbytes else None
    finally:
        adapter.teardown()
        meter.close()

    per_tick = result.metrics.per_tick[WARMUP_TICKS:]
    counts = {f: sum(int(getattr(tm, f)) for tm in per_tick) for f in verify.SIM_FIELDS}
    counts["neurons_evaluated"] = sum(int(tm.neurons_evaluated) for tm in per_tick)
    reported = result.metrics.host
    return {
        "setup_s": setup_s,
        "seg_wall": meter.wall,
        "seg_cpu": meter.cpu,
        "calib_ms": meter.calib_ms,
        "calib_cpu_ms": meter.calib_cpu_ms,
        "parent_cpu_s": meter.parent_cpu,
        "child_cpu_s": meter.child_cpu,
        "ticks": len(per_tick),
        "ops": spec.segments,
        "ranks": ranks,
        "workers": kw.get("workers", 0),
        "peak_rss_mb": rss_self + rss_workers,
        "worker_rss_mb": rss_workers,
        "state_mb": state_mb,
        "sim_digest": verify.sim_digest(per_tick),
        "counts": counts,
        "reported_host": {
            "synapse": reported.synapse, "neuron": reported.neuron, "network": reported.network,
        },
    }


def _serve_round(spec: RoundSpec, wl: Workload, mark: Callable[[str], None]) -> dict[str, Any]:
    from repro.errors import FleetFullError
    from repro.shard.fleet import build_fleet_report

    jobs = job_stream(wl, spec.seed, spec.smoke)

    def submit(n: int) -> int:
        """Offer the next ``n`` jobs; returns the ticks of those accepted."""
        ticks = 0
        for _ in range(n):
            job, at_us = next(jobs)
            try:
                router.submit(job, at_us=at_us)
                ticks += job.ticks
            except FleetFullError:
                pass  # counted by the router, reported as ``rejected``
        return ticks

    meter = _Meter()
    meter.calibrate()
    t0 = time.perf_counter()
    router = make_router()
    submit(WARMUP_JOBS)
    setup_s = time.perf_counter() - t0
    mark("timed")
    ticks = 0
    for _ in range(spec.segments):
        with meter:
            ticks += submit(SEGMENT_JOBS)
    with meter:  # the drain: every queued job runs to completion
        router.run()
    mark("end")
    meter.calibrate()
    rss_self, rss_workers = host.peak_rss_mb()
    report = build_fleet_report(router)
    return {
        "setup_s": setup_s,
        "seg_wall": meter.wall,
        "seg_cpu": meter.cpu,
        "calib_ms": meter.calib_ms,
        "calib_cpu_ms": meter.calib_cpu_ms,
        "parent_cpu_s": meter.parent_cpu,
        "child_cpu_s": meter.child_cpu,
        "ticks": ticks,
        "ops": spec.segments * SEGMENT_JOBS,
        "ranks": wl.ranks,
        "workers": 0,
        "peak_rss_mb": rss_self + rss_workers,
        "worker_rss_mb": rss_workers,
        "state_mb": report.peak_state_nbytes / 1e6,
        "offered": report.jobs_offered,
        "completed": report.jobs_completed,
        "rejected": report.jobs_rejected + report.fleet_rejected,
        "fleet_report": report.to_json(),
        "routing_digest": report.routing_digest,
        "serve": {
            "batches": report.batches,
            "deadline_missed": report.deadline_missed,
            "spilled": report.spilled,
            "scale_events": report.scale_events,
            "build_network_cache": _build_network_cache_info(),
        },
    }


def _build_network_cache_info() -> dict[str, int] | None:
    """Hits/misses of the serve layer's network cache, if it still has one."""
    try:
        from repro.serve import server

        fn = server.build_network
        # The span wrapper hides the lru_cache object one level down.
        info = (fn if hasattr(fn, "cache_info") else fn.__wrapped__).cache_info()
    except (ImportError, AttributeError):
        return None
    return {"hits": info.hits, "misses": info.misses}


def run_round(spec: RoundSpec) -> dict[str, Any]:
    """Run one round in this process and return its measurements."""
    t0 = time.perf_counter()
    import repro.exec  # noqa: F401
    import repro.shard.router  # noqa: F401

    import_s = time.perf_counter() - t0
    log = SpanLog()
    if spec.variant == "spans":
        install(log)
    log.mark("setup")
    wl = WORKLOADS[spec.workload]
    out = (_serve_round if wl.kind == "serve" else _sim_round)(spec, wl, log.mark)
    out.update(workload=wl.name, variant=spec.variant, import_s=import_s)
    if spec.variant == "spans":
        log.mark("done")
        out.update(
            warnings=log.warnings,
            missing=sorted(log.missing),
            spans_timed=log.aggregate("timed", "end"),
            spans_all=log.aggregate("setup", "done"),
        )
    return out


def round_main(spec: RoundSpec, conn: Any) -> None:
    """Entry point of a round process: run, send the result, exit."""
    os.setpgrp()  # lets the parent kill this round and its pool workers together
    try:
        conn.send(run_round(spec))
    except Exception:
        conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()
        host.reap_children()  # pool workers a failed teardown left behind
