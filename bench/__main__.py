"""Benchmark of record: ``python3 -m bench`` from the repository root.

    python3 -m bench                         # all five workloads, end-to-end metrics
    python3 -m bench --traced                # ... plus the per-layer ladder
    python3 -m bench --workload ring_spiking --seed 3 --seconds 12 --trace 0

With exactly one ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (the contract of
``BENCHMARK.json``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Untraced rounds per workload (``--trace 0``), each sized to a third of
#: ``--seconds``.  The traced pass runs rounds of the same size: one
#: untraced as the base of its overhead ratios, one span-wrapped, extras.
ROUNDS = 3
DEFAULT_SEED = 11
DEFAULT_SECONDS = 12.0
ROUND_TIMEOUT_S = 60.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "ticks_per_s": ("1/s", "higher"),
    "cpu_s_per_ktick": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


class BenchError(RuntimeError):
    """A round could not be measured (crash, timeout)."""


def _run_round(spec: Any) -> dict[str, Any]:
    """Run one round in a fresh process and return what it measured."""
    from bench import host
    from bench.workloads import round_main

    shm_before = host.shm_entries()
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    # Not a daemon: the pool workload's round spawns workers of its own.
    proc = ctx.Process(target=round_main, args=(spec, send), name=f"bench-{spec.workload}")
    proc.start()
    send.close()
    try:
        if not recv.poll(ROUND_TIMEOUT_S):
            raise BenchError(f"{spec.workload}: round timed out after {ROUND_TIMEOUT_S:.0f}s")
        result = recv.recv()
    except EOFError:
        raise BenchError(f"{spec.workload}: round process died without a result") from None
    finally:
        recv.close()
        proc.join(10)
        if proc.is_alive():
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # the round and its pool workers
            except ProcessLookupError:
                proc.kill()
            proc.join()
    if "error" in result:
        raise BenchError(f"{spec.workload}: round failed:\n{result['error']}")
    # Counted here, after the round process is gone: while it lives, the
    # semaphores of its queues are legitimately still in /dev/shm.
    result["shm_leaked"] = len(host.shm_entries() - shm_before)
    return result


def end_to_end(rounds: list[dict[str, Any]]) -> dict[str, float]:
    """The four end-to-end metrics from one workload's untraced rounds.

    Every round replays the same segments, so the median of segment *i*
    across rounds drops a round that a noisy neighbour slowed; the sum
    over *i* is the wall (or CPU) time of one clean pass.

    Host seconds are first scaled, round by round, to the speed of the
    reference host (:func:`bench.host.ref_scale`): this machine changes
    speed by up to 2x for minutes at a time, and the calibration kernel
    interleaved with the segments changes with it (wall by its wall time
    over all lanes, CPU seconds by its CPU time).
    """
    from bench.host import ref_scale

    wall_scales = [ref_scale(r["calib_ms"]) for r in rounds]
    cpu_scales = [ref_scale(r["calib_cpu_ms"]) for r in rounds]
    # Set-up is part serial (build, spawn), part parallel (the workers'
    # own start-up): between the two.  With one lane all three agree.
    setup_scales = [math.sqrt(w * c) for w, c in zip(wall_scales, cpu_scales)]

    def clean_pass(key: str, scales: list[float]) -> float:
        scaled = ([t * k for t in r[key]] for r, k in zip(rounds, scales))
        return sum(statistics.median(segment) for segment in zip(*scaled))

    wall, cpu = clean_pass("seg_wall", wall_scales), clean_pass("seg_cpu", cpu_scales)
    ticks = rounds[0]["ticks"]
    return {
        "ticks_per_s": ticks / wall,
        "cpu_s_per_ktick": cpu / ticks * 1000.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(rounds, setup_scales)),
    }


def summarize(
    name: str,
    untraced: list[dict[str, Any]],
    layout_check: dict[str, Any] | None,
    traced: dict[str, Any] | None = None,
    extras: dict[str, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Fold one workload's rounds and checks into its result record."""
    from bench import host, verify
    from bench.layers import LAYER_METRICS, layer_metrics
    from bench.workloads import WORKLOADS

    # Traced and extra rounds replay the same segments on the same inputs
    # (the extras on another backend), so they must agree as well.
    same_work = untraced + ([traced] if traced else []) + list((extras or {}).values())
    problems = verify.check_rounds(same_work)
    if layout_check is not None and not layout_check["ok"]:
        problems.append(
            f"spike digest on {WORKLOADS[name].backend} differs from 1-rank sequential")
    attempted = sum(r["ops"] for r in untraced)
    failed = attempted if problems else sum(r.get("rejected", 0) for r in untraced)
    first = untraced[0]
    values = end_to_end(untraced)
    out: dict[str, Any] = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "rounds": len(untraced),
        "segments": len(first["seg_wall"]),
        "ticks": first["ticks"],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "spike_digest": layout_check["spike_digest"] if layout_check else None,
        "sim_digest": first.get("sim_digest") or first.get("routing_digest"),
        "counts": first.get("counts") or first.get("serve"),
        "end_to_end": {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END},
        "host": {
            "cores": host.cores(),
            "import_s": statistics.median(r["import_s"] for r in untraced),
            "calib_ms": statistics.median(x for r in untraced for x in r["calib_ms"]),
            "ref_scale": statistics.median(host.ref_scale(r["calib_ms"]) for r in untraced),
            "unscaled_ticks_per_s": first["ticks"] / statistics.median(
                sum(r["seg_wall"]) for r in untraced),
        },
        "raw": {
            k: [r[k] for r in untraced]
            for k in ("seg_wall", "seg_cpu", "setup_s", "peak_rss_mb", "calib_ms")
        },
        "per_layer": None,
        "warnings": [],
    }
    if traced is not None:
        layers = layer_metrics(traced, untraced, extras or {})
        out["per_layer"] = {
            k: {"value": layers[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS
        }
        out["warnings"] = traced["warnings"]
        out["self_within_span"] = all(
            v["self_within_span"] for v in traced["spans_all"].values())
    return out


def run(
    names: list[str], seed: int, seconds: float, traced: bool, smoke: bool
) -> list[dict[str, Any]]:
    """Measure ``names``; rounds of different workloads are interleaved
    (A B C, A B C, ...) so slow host drift spreads evenly over them."""
    from bench import verify
    from bench.workloads import WORKLOADS, RoundSpec, build_inputs, pool_workers, segments_for

    plans: dict[str, list[str]] = {}
    checks: dict[str, dict[str, Any] | None] = {}
    for name in names:
        wl = WORKLOADS[name]
        plans[name] = [""] * ROUNDS
        if traced:
            plans[name] = ["", "spans"]
            if wl.backend == "pool":
                plans[name] += ["seq_base", "pool1"]
            if name == "ring_spiking":
                plans[name].append("obs_tracing")
        checks[name] = None
        if wl.kind == "sim":
            kw = {"workers": pool_workers()} if wl.backend == "pool" else {}
            checks[name] = verify.check_layout(
                build_inputs(wl, seed, smoke),
                wl.backend,
                wl.sized(smoke)[1],
                ticks=10 if smoke else verify.VERIFY_TICKS,
                **kw,
            )

    done: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for i in range(max(len(p) for p in plans.values())):
        for name in names:
            if i < len(plans[name]):
                done[name].append(_run_round(RoundSpec(
                    workload=name,
                    seed=seed,
                    segments=segments_for(WORKLOADS[name], seconds / ROUNDS),
                    smoke=smoke,
                    variant=plans[name][i],
                )))

    results = []
    for name in names:
        untraced = [r for r in done[name] if r["variant"] == ""]
        span_round = next((r for r in done[name] if r["variant"] == "spans"), None)
        extras = {r["variant"]: r for r in done[name] if r["variant"] not in ("", "spans")}
        record = summarize(name, untraced, checks[name], span_round, extras)
        record.update(seed=seed, smoke=smoke)
        results.append(record)
    return results


def _fmt(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def report(results: list[dict[str, Any]]) -> str:
    """Human-readable table: every metric by name with its unit."""
    from bench.host import CALIB_REF_MS

    lines = []
    for r in results:
        lines.append(
            f"== {r['workload']} (seed {r['seed']}, {r['rounds']} round(s) x "
            f"{r['segments']} segments, {r['ticks']} ticks/round, "
            f"host.cores={r['host']['cores']}{', SMOKE' if r['smoke'] else ''})")
        lines.append(f"   operations: attempted={r['attempted']} failed={r['failed']}")
        for problem in r["problems"]:
            lines.append(f"   FAILED: {problem}")
        lines.append(f"   spike_digest={r['spike_digest']} sim_digest={r['sim_digest']}")
        lines.append(
            f"   host seconds x{r['host']['ref_scale']:.3f} (host.calib_ms "
            f"{r['host']['calib_ms']:.1f}, reference {CALIB_REF_MS}); "
            f"unscaled ticks_per_s {r['host']['unscaled_ticks_per_s']:.6g}")
        for k, v in {**r["end_to_end"], **(r["per_layer"] or {})}.items():
            lines.append(f"   {k:<40} {_fmt(v['value']):>14} {v['unit']}")
        for warning in r["warnings"]:
            lines.append(f"   warning: {warning}")
    return "\n".join(lines)


def contract_line(result: dict[str, Any], traced: bool) -> str:
    """The one-object summary ``BENCHMARK.json``'s driver reads."""
    metrics = result["per_layer"] if traced else result["end_to_end"]
    unmeasured = [k for k, v in metrics.items() if v["value"] is None]
    if unmeasured:
        # The driver wants a number for every name; 0 stands for "this
        # layer did not run on this workload" (see README).
        print(f"not measured on {result['workload']}, reported as 0: "
              f"{', '.join(unmeasured)}", file=sys.stderr)
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": 0.0 if v["value"] is None else v["value"], "unit": v["unit"]}
            for k, v in metrics.items()
        },
    })


def _supervise(argv: list[str]) -> int:
    """Measure in a child process; return only when nothing it started is left.

    ``multiprocessing`` never waits for the resource tracker it spawns, and
    a round killed on its timeout orphans its pool workers.  This process
    adopts such orphans and waits for each (killing what will not end), so
    no run can be served by, or slowed by, what an earlier run left behind.
    """
    from bench import host

    host.become_subreaper()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-m", "bench", *argv, "--supervised"], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        host.reap_children()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the timed work of one workload: a third of it per round, "
                             "at the baseline host's speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the per-layer pass (span-wrapped round + extras)")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test; numbers are not comparable")
    parser.add_argument("--json", metavar="PATH", help="also write the full result here")
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload(s) {unknown}; known: {', '.join(WORKLOADS)}"
                     if unknown else "--seconds must be positive")
    if not args.supervised:
        return _supervise(sys.argv[1:] if argv is None else argv)
    traced = bool(args.trace or args.traced)
    try:
        results = run(names, args.seed, args.seconds, traced, args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(report(results))
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    if len(names) == 1:
        print(contract_line(results[0], traced))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
