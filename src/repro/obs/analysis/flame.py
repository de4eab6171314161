"""Flame aggregation: fold span traces into deterministic folded stacks.

The folded-stack format is the ``stackcollapse`` convention consumed by
flamegraph.pl / speedscope: one ``frame;frame;frame weight`` line per
unique stack, sorted lexicographically so the file is byte-identical
run to run.  Weights are deterministic integers:

* leaf phase spans (``synapse``, ``neuron``, ``sync``, ``network``) are
  weighted by the same work units the critical-path extractor uses
  (:func:`repro.obs.analysis.critical.span_cost`); ``compute`` is a pure
  interior frame (its work lives in its children);
* instants count 1 each, nested under their enclosing window (the
  ``ts`` offset inside the tick identifies the phase window) or under
  the open ``B``/``E`` stack of their track;
* a ``B``/``E`` frame with no inner events counts 1 at close.

Track roots are ``rank N`` (or ``cluster`` for rank −1), so the
``cluster;…`` subtree — fed only by the partition-invariant cluster
track — is the subset comparable across rank counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.span import PHASES, TICK_US
from repro.perf.report import format_table

from repro.obs.analysis.critical import span_cost

#: Leaf phase windows (non-overlapping) used to classify instants by
#: their timestamp offset within the tick, with the enclosing stack.
_LEAF_WINDOWS = (
    ("synapse", ("compute", "synapse")),
    ("neuron", ("compute", "neuron")),
    ("sync", ("sync",)),
    ("network", ("network",)),
)

#: X-span names folded as leaves (self work) under their parent chain.
_LEAF_SPANS = {
    "synapse": ("compute", "synapse"),
    "neuron": ("compute", "neuron"),
    "sync": ("sync",),
    "network": ("network",),
}


def _root(rank: int) -> str:
    return "cluster" if rank < 0 else f"rank {rank}"


def _window_chain(ts: float) -> tuple[str, ...]:
    """Phase chain of the leaf window containing simulated time ``ts``."""
    frac = (ts % TICK_US) / TICK_US
    for name, chain in _LEAF_WINDOWS:
        lo, hi = PHASES[name]
        if lo <= frac < hi:
            return chain
    return ("network",)  # the final sequence slot clamps to the tick end


def fold_stacks(events: list[dict[str, Any]]) -> dict[str, int]:
    """Fold an event-record stream into ``{stack_path: weight}``.

    ``cluster;tick;<metric>`` leaves carry the partition-invariant tick
    summary totals; everything else hangs under its ``rank N`` root.
    ``omp-thread`` spans are skipped — they re-partition work the
    ``compute`` children already account for.
    """
    folded: dict[str, int] = {}
    # Per-track stack of open B frames: [name, saw_inner_events].
    stacks: dict[tuple[int, int], list[list[Any]]] = {}

    def add(parts: tuple[str, ...], weight: int) -> None:
        key = ";".join(parts)
        folded[key] = folded.get(key, 0) + weight

    for rec in events:
        name = str(rec.get("name", ""))
        ph = rec.get("ph")
        rank = int(rec.get("rank", 0))
        thread = int(rec.get("thread", 0))
        track = (rank, thread)
        args = rec.get("args") or {}
        if ph == "X":
            if rec.get("cat") == "threads":
                continue
            chain = _LEAF_SPANS.get(name)
            if chain is not None:
                add((_root(rank), *chain), span_cost(name, args))
            elif name != "compute":
                add((_root(rank), name), 1)
        elif ph == "B":
            stack = stacks.setdefault(track, [])
            if stack:
                stack[-1][1] = True
            stack.append([name, False])
        elif ph == "E":
            stack = stacks.get(track)
            if stack:
                frame_name, saw_inner = stack.pop()
                if not saw_inner:
                    names = [f[0] for f in stack]
                    add((_root(rank), *names, frame_name), 1)
        elif ph == "i":
            if rank < 0 and name == "tick":
                for metric, value in sorted(args.items()):
                    if isinstance(value, (int, float)):
                        add(("cluster", "tick", metric), int(value))
                continue
            stack = stacks.get(track)
            if stack:
                stack[-1][1] = True
                names = [f[0] for f in stack]
                add((_root(rank), *names, name), 1)
            else:
                ts = float(rec.get("ts", 0.0))
                add((_root(rank), *_window_chain(ts), name), 1)
    return folded


def folded_lines(folded: dict[str, int]) -> list[str]:
    """Sorted ``path weight`` lines — the canonical folded file content."""
    return [f"{path} {weight}" for path, weight in sorted(folded.items())]


def format_folded(events: list[dict[str, Any]]) -> str:
    """Folded-stack text for an event stream (trailing newline included)."""
    lines = folded_lines(fold_stacks(events))
    return "\n".join(lines) + "\n" if lines else ""


def write_folded(  # repro: obs-flush
    events: list[dict[str, Any]], path: str | Path
) -> Path:
    """Write the folded flame file; an observability flush boundary."""
    path = Path(path)
    path.write_text(format_folded(events))
    return path


def flame_table(events: list[dict[str, Any]], limit: int = 40) -> str:
    """Self/total work table over the folded stacks.

    ``self`` is the weight attributed directly to a frame path; ``total``
    additionally includes every deeper stack through it.  Rendered with
    :func:`repro.perf.report.format_table`, sorted by total (then path)
    so the table is deterministic.
    """
    folded = fold_stacks(events)
    self_w: dict[str, int] = {}
    total_w: dict[str, int] = {}
    for path, weight in sorted(folded.items()):
        self_w[path] = self_w.get(path, 0) + weight
        parts = path.split(";")
        for depth in range(1, len(parts) + 1):
            prefix = ";".join(parts[:depth])
            total_w[prefix] = total_w.get(prefix, 0) + weight

    grand = sum(folded.values()) or 1
    ranked = sorted(
        total_w.items(), key=lambda kv: (-kv[1], kv[0])
    )[:limit]
    rows = [
        (
            path,
            self_w.get(path, 0),
            total,
            f"{self_w.get(path, 0) / grand:.1%}",
            f"{total / grand:.1%}",
        )
        for path, total in ranked
    ]
    title = "== flame self/total (work units) =="
    if len(total_w) > limit:
        title += f" (top {limit} of {len(total_w)} frames)"
    return format_table(
        ["frame", "self", "total", "self%", "total%"], rows, title=title
    ) + "\n"
