"""Per-layer metrics: names, units, and how each is derived.

Every value comes from one *traced* round (span self times and counts,
see :mod:`bench.spans`), the untraced rounds of the same run (the base
for overheads), and the workload's extra rounds (``seq_base``, ``pool1``,
``obs_tracing``).  A metric whose layer did not run on the workload, or
whose span target no longer exists, is ``None`` (printed ``null``).

README "Per-layer metrics" says which end-to-end metric on which workload
each of these is expected to move.
"""

from __future__ import annotations

import statistics
from typing import Any

from bench import host

#: name -> (unit, better).  The order is the print order.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "arch.neuron_phase_ns_per_neuron_tick": ("ns", "lower"),
    "arch.synapse_phase_ns_per_event": ("ns", "lower"),
    "arch.outgoing_ns_per_spike": ("ns", "lower"),
    "arch.deliver_ns_per_spike": ("ns", "lower"),
    "arch.deliver_calls_per_tick": ("count", "lower"),
    "arch.block_build_ms_per_core": ("ms", "lower"),
    "arch.neuron_phase_share": ("frac", "lower"),
    "arch.synapse_phase_share": ("frac", "lower"),
    "arch.active_axons_per_tick": ("count", "lower"),
    "arch.fired_per_tick": ("count", "lower"),
    "util.lcg_ns_per_lane": ("ns", "lower"),
    "core.step_ms_p50": ("ms", "lower"),
    "core.step_ms_p99": ("ms", "lower"),
    "core.step_samples": ("count", "higher"),
    "core.step_self_us_per_rank_tick": ("us", "lower"),
    "core.route_ns_per_spike": ("ns", "lower"),
    "core.network_share": ("frac", "lower"),
    "core.sim_build_s": ("s", "lower"),
    "core.reported_synapse_frac": ("frac", "lower"),
    "core.reported_neuron_frac": ("frac", "lower"),
    "core.reported_network_frac": ("frac", "lower"),
    "runtime.msg_us": ("us", "lower"),
    "runtime.sync_us_per_tick": ("us", "lower"),
    "runtime.messages_per_tick": ("count", "lower"),
    "runtime.bytes_per_tick": ("count", "lower"),
    "runtime.remote_spike_frac": ("frac", "lower"),
    "exec.prepare_s": ("s", "lower"),
    "exec.teardown_s": ("s", "lower"),
    "exec.adapter_self_us_per_tick": ("us", "lower"),
    "exec.pool_step_ms_p50": ("ms", "lower"),
    "exec.pool_step_ms_p99": ("ms", "lower"),
    "exec.pool_parent_busy_frac": ("frac", "lower"),
    "exec.pool_worker_util": ("frac", "higher"),
    "exec.pool_speedup_vs_seq": ("x", "higher"),
    "exec.pool1_overhead_frac": ("frac", "lower"),
    "exec.worker_peak_rss_mb": ("MiB", "lower"),
    "exec.state_mb": ("MB", "lower"),
    "exec.shm_leaked": ("count", "lower"),
    "cocomac.coreobject_s": ("s", "lower"),
    "compiler.pcc_compile_s": ("s", "lower"),
    "apps.quicknet_build_ms_per_core": ("ms", "lower"),
    "serve.jobs_per_host_s": ("1/s", "higher"),
    "serve.event_us_per_job": ("us", "lower"),
    "serve.sim_ms_per_miss": ("ms", "lower"),
    "serve.run_cache_hit_frac": ("frac", "higher"),
    "serve.build_network_hit_frac": ("frac", "higher"),
    "serve.build_network_ms_per_miss": ("ms", "lower"),
    "serve.batches": ("count", "lower"),
    "serve.mean_batch_size": ("count", "higher"),
    "serve.deadline_missed": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "shard.route_us_per_job": ("us", "lower"),
    "shard.spilled": ("count", "lower"),
    "shard.scale_events": ("count", "lower"),
    "obs.tracing_overhead_frac": ("frac", "lower"),
    "bench.span_overhead_frac": ("frac", "lower"),
    "bench.span_coverage_frac": ("frac", "higher"),
    "host.import_s": ("s", "lower"),
    "host.calib_ms": ("ms", "lower"),
    "host.cores": ("count", "higher"),
}


def _div(a: float | None, b: float | None, scale: float = 1.0) -> float | None:
    if a is None or not b:
        return None
    return a / b * scale


def _wall(rnd: dict[str, Any]) -> float:
    return sum(rnd["seg_wall"])


def _ref_wall(rnd: dict[str, Any]) -> float:
    """Timed wall at the reference host's speed, to compare *across* rounds."""
    return _wall(rnd) * host.ref_scale(rnd["calib_ms"])


def _slowdown(rnd: dict[str, Any] | None, base_wall: float) -> float | None:
    """How much longer ``rnd`` took than the base for the same segments."""
    if rnd is None:
        return None
    return _div(_ref_wall(rnd), base_wall, 1.0) - 1.0


def layer_metrics(
    traced: dict[str, Any],
    untraced: list[dict[str, Any]],
    extras: dict[str, dict[str, Any]],
) -> dict[str, float | None]:
    """All of :data:`LAYER_METRICS` for one workload (``None`` = not measured)."""
    missing = set(traced.get("missing", ()))
    timed, whole = traced["spans_timed"], traced["spans_all"]

    def get(agg: dict, name: str, field: str) -> Any:
        if name in missing or name not in agg:
            return None
        return agg[name][field]

    def self_ns(*names: str) -> float | None:
        parts = [get(timed, n, "self_ns") for n in names]
        if any(n in missing for n in names) or all(p is None for p in parts):
            return None
        return float(sum(p or 0 for p in parts))

    def mean_s(name: str) -> float | None:
        return _div(get(whole, name, "incl_ns"), get(whole, name, "count"), 1e-9)

    wall_ns = _wall(traced) * 1e9
    base_wall = statistics.median(_ref_wall(r) for r in untraced)
    base = untraced[0]
    ticks, ranks = traced["ticks"], traced["ranks"]
    sim = "counts" in traced
    c = traced.get("counts", {})
    spikes = c.get("local_spikes", 0) + c.get("remote_spikes", 0)
    n_ticks = ticks if sim else None

    m: dict[str, float | None] = dict.fromkeys(LAYER_METRICS)
    m["arch.neuron_phase_ns_per_neuron_tick"] = _div(
        self_ns("arch.neuron_phase"), c.get("neurons_evaluated"))
    m["arch.synapse_phase_ns_per_event"] = _div(
        self_ns("arch.synapse_phase"), c.get("active_axons"))
    m["arch.outgoing_ns_per_spike"] = _div(self_ns("arch.outgoing"), c.get("fired"))
    m["arch.deliver_ns_per_spike"] = _div(self_ns("arch.deliver"), spikes)
    m["arch.deliver_calls_per_tick"] = _div(get(timed, "arch.deliver", "count"), n_ticks)
    m["arch.block_build_ms_per_core"] = _div(
        get(whole, "arch.block_build", "incl_ns"), get(whole, "arch.block_build", "work"), 1e-6)
    m["arch.neuron_phase_share"] = _div(get(timed, "arch.neuron_phase", "incl_ns"), wall_ns)
    m["arch.synapse_phase_share"] = _div(get(timed, "arch.synapse_phase", "incl_ns"), wall_ns)
    m["arch.active_axons_per_tick"] = _div(c.get("active_axons"), n_ticks)
    m["arch.fired_per_tick"] = _div(c.get("fired"), n_ticks)
    m["util.lcg_ns_per_lane"] = _div(self_ns("util.lcg"), get(timed, "util.lcg", "work"))

    m["core.step_ms_p50"] = _div(get(timed, "core.step", "p50_ns"), 1e6)
    m["core.step_ms_p99"] = _div(get(timed, "core.step", "p99_ns"), 1e6)
    m["core.step_samples"] = get(timed, "core.step", "count")
    m["core.step_self_us_per_rank_tick"] = _div(
        self_ns("core.step"), (get(timed, "core.step", "count") or 0) * ranks, 1e-3)
    m["core.route_ns_per_spike"] = _div(self_ns("core.route"), spikes)
    network = [self_ns(n) for n in ("arch.deliver", "core.route", "runtime.msg", "runtime.sync")]
    if any(v is not None for v in network):
        m["core.network_share"] = sum(v or 0.0 for v in network) / wall_ns
    m["core.sim_build_s"] = mean_s("core.sim_build")
    reported = traced.get("reported_host")
    if reported and sum(reported.values()) > 0:
        for phase, seconds in reported.items():
            m[f"core.reported_{phase}_frac"] = seconds / sum(reported.values())

    messages = c.get("messages")
    m["runtime.msg_us"] = _div(self_ns("runtime.msg"), messages, 1e-3)
    m["runtime.sync_us_per_tick"] = _div(self_ns("runtime.sync"), n_ticks, 1e-3)
    m["runtime.messages_per_tick"] = _div(messages, n_ticks)
    m["runtime.bytes_per_tick"] = _div(c.get("bytes_sent"), n_ticks)
    m["runtime.remote_spike_frac"] = _div(c.get("remote_spikes"), spikes)

    m["exec.prepare_s"] = mean_s("exec.prepare")
    m["exec.teardown_s"] = mean_s("exec.teardown")
    m["exec.adapter_self_us_per_tick"] = _div(self_ns("exec.run"), n_ticks, 1e-3)
    m["exec.pool_step_ms_p50"] = _div(get(timed, "exec.pool_step", "p50_ns"), 1e6)
    m["exec.pool_step_ms_p99"] = _div(get(timed, "exec.pool_step", "p99_ns"), 1e6)
    if base["workers"]:
        m["exec.pool_parent_busy_frac"] = _div(base["parent_cpu_s"], _wall(base))
        m["exec.pool_worker_util"] = _div(base["child_cpu_s"], _wall(base) * base["workers"])
        m["exec.worker_peak_rss_mb"] = base["worker_rss_mb"]
        if "seq_base" in extras:
            seq = extras["seq_base"]
            # Unscaled: the pool's calibration runs on two lanes, the base's on one.
            m["exec.pool_speedup_vs_seq"] = _div(
                _wall(seq), statistics.median(_wall(r) for r in untraced))
            m["exec.pool1_overhead_frac"] = _slowdown(extras.get("pool1"), _ref_wall(seq))
    m["exec.state_mb"] = traced.get("state_mb")
    m["exec.shm_leaked"] = float(
        sum(r["shm_leaked"] for r in (traced, *untraced, *extras.values())))

    m["cocomac.coreobject_s"] = mean_s("cocomac.coreobject")
    m["compiler.pcc_compile_s"] = mean_s("compiler.pcc_compile")
    m["apps.quicknet_build_ms_per_core"] = _div(
        get(whole, "apps.quicknet_build", "incl_ns"),
        get(whole, "apps.quicknet_build", "work"), 1e-6)

    serve = traced.get("serve")
    if serve is not None:
        jobs = traced["ops"]
        prepares = get(whole, "exec.prepare", "count")
        m["serve.jobs_per_host_s"] = _div(base["ops"], base_wall)
        m["serve.event_us_per_job"] = _div(self_ns("serve.event"), jobs, 1e-3)
        sim_ns = [get(whole, n, "incl_ns") for n in ("exec.prepare", "exec.run", "exec.teardown")]
        if None not in sim_ns:
            m["serve.sim_ms_per_miss"] = _div(float(sum(sim_ns)), prepares, 1e-6)
        if prepares is not None and serve["batches"]:
            m["serve.run_cache_hit_frac"] = 1.0 - prepares / serve["batches"]
        cache = serve["build_network_cache"]
        if cache is not None:
            m["serve.build_network_hit_frac"] = _div(
                cache["hits"], cache["hits"] + cache["misses"])
            m["serve.build_network_ms_per_miss"] = _div(
                get(whole, "serve.build_network", "incl_ns"), cache["misses"], 1e-6)
        m["serve.batches"] = float(serve["batches"])
        m["serve.mean_batch_size"] = _div(traced["completed"], serve["batches"])
        m["serve.deadline_missed"] = float(serve["deadline_missed"])
        m["serve.rejected"] = float(traced["rejected"])
        m["shard.route_us_per_job"] = _div(self_ns("shard.route"), jobs, 1e-3)
        m["shard.spilled"] = float(serve["spilled"])
        m["shard.scale_events"] = float(serve["scale_events"])

    m["obs.tracing_overhead_frac"] = _slowdown(extras.get("obs_tracing"), base_wall)
    m["bench.span_overhead_frac"] = _slowdown(traced, base_wall)
    m["bench.span_coverage_frac"] = _div(
        float(sum(v["self_ns"] for v in timed.values())), wall_ns)
    rounds = (traced, *untraced, *extras.values())
    m["host.import_s"] = statistics.median(r["import_s"] for r in rounds)
    m["host.calib_ms"] = statistics.median(x for r in rounds for x in r["calib_ms"])
    m["host.cores"] = float(host.cores())
    return m
