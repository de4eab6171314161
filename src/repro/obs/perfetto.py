"""Chrome-trace / Perfetto JSON exporter.

Emits the classic ``traceEvents`` JSON that both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  Track layout:

* pid 0 — the simulator: one thread row per rank (tid = rank + 1) plus a
  ``cluster`` row (tid 0) for whole-tick and resilience events;
* pid 1 — the PCC compiler (events with ``cat == "compile"``).

Fault and recovery events are instant (``ph == "i"``) marks; phase spans
are complete (``X``) events.  Timestamps are simulated microseconds (see
``repro.obs.span``), so the rendered timeline is bit-deterministic.

:func:`validate_chrome_trace` is a dependency-free structural validator
used by the test suite and CI (the container has no ``jsonschema``); it
checks the invariants the trace-event format requires rather than a full
JSON-Schema document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.span import NullTracer, SpanTracer

_COMPILE_PID = 1
_SIM_PID = 0

#: Phase letters this exporter emits / the validator accepts.
_KNOWN_PHASES = frozenset({"X", "B", "E", "i", "M", "C", "s", "t", "f"})

#: Flow-event phases (start / step / finish of one logical journey).
_FLOW_PHASES = frozenset({"s", "t", "f"})


def _tid(event: dict[str, Any]) -> int:
    # tid 0 is the cluster-wide track; ranks shift up by one.
    return 0 if event["rank"] < 0 else event["rank"] + 1


def _pid(event: dict[str, Any]) -> int:
    return _COMPILE_PID if event["cat"] == "compile" else _SIM_PID


def to_chrome_trace(
    tracer: SpanTracer | NullTracer, label: str = "compass"
) -> dict[str, Any]:
    """Convert recorded events to a Chrome-trace JSON object.

    Each record's ``args`` is copied before ``tick`` / ``omp_thread`` go
    in or ``flow`` comes out: the tracer's records stay as recorded.
    """
    events: list[dict[str, Any]] = []
    tracks: set[tuple[int, int, int]] = set()

    for ev in tracer.events:
        pid, tid, ph = _pid(ev), _tid(ev), ev["ph"]
        tracks.add((pid, tid, ev["rank"]))
        record: dict[str, Any] = {
            "name": ev["name"],
            "cat": ev["cat"],
            "ph": ph,
            "ts": ev["ts"],
            "pid": pid,
            "tid": tid,
        }
        if ph == "X":
            record["dur"] = ev["dur"]
        if ph == "i":
            record["s"] = "t"  # thread-scoped instant
        args = dict(ev["args"])
        if ph in _FLOW_PHASES:
            # SpanTracer.flow carries the id in args; the trace-event
            # format wants it top-level.  bp="e" binds the arrow to the
            # enclosing slice rather than the next one.
            record["id"] = args.pop("flow", "")
            record["bp"] = "e"
        args["tick"] = ev["tick"]
        if ev["thread"]:
            args["omp_thread"] = ev["thread"]
        record["args"] = args
        events.append(record)

    # Stable sort: by timestamp, longest span first at equal ts so that
    # enclosing X events precede the sub-spans they contain.
    events.sort(key=lambda r: (r["ts"], -r.get("dur", 0.0)))

    meta: list[dict[str, Any]] = []
    pids = sorted({pid for pid, _, _ in tracks})
    for pid in pids:
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": f"{label} simulator"
                    if pid == _SIM_PID
                    else f"{label} pcc compiler"
                },
            }
        )
    for pid, tid, rank in sorted(tracks):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": "cluster" if rank < 0 else f"rank {rank}"},
            }
        )
        meta.append(
            {"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
             "args": {"sort_index": tid}}
        )

    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro.obs chrome-trace", "clock": "simulated-us"},
    }


def validate_chrome_trace(obj: Any) -> list[str]:
    """Structural validation against the trace-event format; [] when valid.

    Beyond the per-event field checks, this validates flow-event causality:
    every flow id must have exactly one start (``s``) and one finish
    (``f``) with ``s`` no later than ``f``, steps (``t``) require a start,
    and each flow event must coincide with a slice (``X`` interval or a
    ``B``/``E`` pair) on its (pid, tid) track so viewers can bind the
    arrow to an enclosing span.
    """
    errors: list[str] = []
    if not isinstance(obj, dict):
        return ["top-level value must be a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    open_stacks: dict[tuple[int, int], list[float]] = {}
    #: Slice intervals [t0, t1] per track, from X events and B/E pairs.
    slices: dict[tuple[int, int], list[tuple[float, float]]] = {}
    #: (cat, id) -> list of (ph, ts, track, index) flow events.
    flows: dict[tuple[str, str], list[tuple[str, float, tuple[int, int], int]]] = {}
    last_ts: float | None = None
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event must be an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                errors.append(f"{where}: missing integer {field!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: missing event name")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing numeric 'ts'")
        else:
            # The exporter sorts events by timestamp; an out-of-order ts
            # means the trace was edited or produced by a buggy writer.
            if last_ts is not None and ts < last_ts:
                errors.append(
                    f"{where}: timestamp out of order ({ts} after {last_ts})"
                )
            last_ts = ts
        track = (ev.get("pid", 0), ev.get("tid", 0))
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'X' event needs non-negative 'dur'")
            elif isinstance(ts, (int, float)):
                slices.setdefault(track, []).append((ts, ts + dur))
        if ph in _FLOW_PHASES:
            flow_id = ev.get("id")
            if not isinstance(flow_id, (str, int)) or flow_id == "":
                errors.append(f"{where}: flow event needs a non-empty 'id'")
            elif isinstance(ts, (int, float)):
                key = (str(ev.get("cat", "")), str(flow_id))
                flows.setdefault(key, []).append((ph, ts, track, i))
        if ph == "B":
            if isinstance(ts, (int, float)):
                open_stacks.setdefault(track, []).append(ts)
        elif ph == "E":
            stack = open_stacks.get(track, [])
            if not stack:
                errors.append(f"{where}: 'E' event without matching 'B' on {track}")
            elif isinstance(ts, (int, float)):
                slices.setdefault(track, []).append((stack.pop(), ts))
    for track in sorted(open_stacks):
        if open_stacks[track]:
            errors.append(
                f"unclosed 'B' event(s) on track pid={track[0]} tid={track[1]}"
            )
    errors.extend(_validate_flows(flows, slices))
    return errors


def _validate_flows(
    flows: dict[tuple[str, str], list[tuple[str, float, tuple[int, int], int]]],
    slices: dict[tuple[int, int], list[tuple[float, float]]],
) -> list[str]:
    """Flow pairing and slice-binding checks over the collected events."""
    errors: list[str] = []
    for (cat, flow_id), parts in sorted(flows.items()):
        label = f"flow (cat={cat!r}, id={flow_id!r})"
        starts = [p for p in parts if p[0] == "s"]
        finishes = [p for p in parts if p[0] == "f"]
        if len(starts) != 1:
            errors.append(f"{label}: {len(starts)} 's' events (need exactly 1)")
        if len(finishes) != 1:
            errors.append(f"{label}: {len(finishes)} 'f' events (need exactly 1)")
        if len(starts) == 1 and len(finishes) == 1:
            s_ts, f_ts = starts[0][1], finishes[0][1]
            if s_ts > f_ts:
                errors.append(
                    f"{label}: 's' at {s_ts} is later than 'f' at {f_ts}"
                )
            for ph, ts, _, idx in parts:
                if ph == "t" and not (s_ts <= ts <= f_ts):
                    errors.append(
                        f"traceEvents[{idx}]: {label} step at {ts} outside "
                        f"its [{s_ts}, {f_ts}] span"
                    )
        for ph, ts, track, idx in parts:
            enclosed = any(
                t0 <= ts <= t1 for t0, t1 in slices.get(track, ())
            )
            if not enclosed:
                errors.append(
                    f"traceEvents[{idx}]: {label} '{ph}' event not enclosed "
                    f"by any slice on track pid={track[0]} tid={track[1]}"
                )
    return errors


def write_chrome_trace(  # repro: obs-flush
    tracer: SpanTracer | NullTracer, path: str | Path, label: str = "compass"
) -> Path:
    """Serialise the trace to ``path``; the obs flush boundary for Perfetto."""
    path = Path(path)
    trace = to_chrome_trace(tracer, label=label)
    path.write_text(json.dumps(trace, sort_keys=True) + "\n")
    return path
