"""Deterministic span tracing on the simulated timeline.

The tracer records *what the virtual cluster did* — phase spans, message
instants, fault events — on a timeline derived purely from simulated
quantities, never from the host clock (rule DET101/DET106 territory):

* one simulated tick occupies exactly :data:`TICK_US` microseconds of
  trace time (a TrueNorth tick is 1 ms of biology);
* each tick is split into fixed phase windows (:data:`PHASES`): the
  compute phase (synapse + neuron sub-windows), the sync window (the
  tick collective), and the network window (message delivery);
* fine-grained events inside a window are laid out by a per-tick
  sequence counter at :data:`SEQ_DT_US` spacing, so their order — and
  therefore the whole trace — is a pure function of the simulation's
  deterministic event order.

Because no timestamp ever comes from the host, two runs of the same
seed produce byte-identical event logs; a trace diff that finds *any*
difference has found a real behavioural divergence, not timer noise.

When tracing is disabled the shared :data:`NULL_TRACER` is installed;
hot paths guard on ``tracer.enabled`` (one attribute read) and allocate
nothing — the zero-overhead-when-off contract; what tracing costs when
on is ``obs.tracing_overhead_frac`` of ``python3 -m bench --traced``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Simulated-trace microseconds per tick (1 ms biological TrueNorth tick).
TICK_US = 1000.0

#: Spacing of sequence-numbered events inside a phase window.
SEQ_DT_US = 0.01

#: Fixed fractional windows of one tick, per phase name.  The layout is
#: schematic (the functional simulator has no intra-tick clock); the
#: *modelled* phase durations, when a machine model is attached, travel
#: as span attributes instead of warping this deterministic timeline.
PHASES: dict[str, tuple[float, float]] = {
    "tick": (0.0, 1.0),
    "compute": (0.0, 0.7),
    "synapse": (0.0, 0.35),
    "neuron": (0.35, 0.7),
    "sync": (0.7, 0.78),
    "network": (0.78, 1.0),
}


def _freeze(attrs: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Canonical (sorted) attribute pairs — hashable and order-stable."""
    return tuple(sorted(attrs.items()))


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace event (Chrome-trace-shaped, backend-agnostic).

    ``ph`` follows the trace-event phase letters: ``X`` complete span,
    ``B``/``E`` nested begin/end, ``i`` instant.  ``rank`` selects the
    track (−1 = the cluster-wide track); ``thread`` is the modelled
    OpenMP thread within the rank.  ``args`` is a sorted tuple of
    (key, value) pairs so records serialise identically run to run.
    """

    name: str
    cat: str
    ph: str
    ts_us: float
    rank: int
    thread: int = 0
    dur_us: float = 0.0
    tick: int = -1
    args: tuple[tuple[str, Any], ...] = ()


class SpanTracer:
    """Records spans and instants on the deterministic simulated timeline.

    The driving loop calls :meth:`begin_tick` once per tick; spans are
    emitted *post hoc* with their phase window (the instrumentation knows
    the tick structure, so no start/stop clock is needed), and instants
    take the next sequence slot inside their window.  Nestable spans use
    :meth:`begin`/:meth:`end` pairs on the same (rank, thread) track.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.tick = 0
        self._seq = 0
        self._stacks: dict[tuple[int, int], list[str]] = {}

    # -- clock ----------------------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        """Enter simulated tick ``tick``; resets the intra-tick sequencer."""
        self.tick = tick
        self._seq = 0

    def window_us(self, phase: str, tick: int | None = None) -> tuple[float, float]:
        """Absolute [t0, t1) microsecond window of ``phase`` in ``tick``."""
        lo, hi = PHASES[phase]
        base = (self.tick if tick is None else tick) * TICK_US
        return base + lo * TICK_US, base + hi * TICK_US

    def _next_ts(self, phase: str, tick: int | None) -> float:
        t0, t1 = self.window_us(phase, tick)
        ts = t0 + self._seq * SEQ_DT_US
        self._seq += 1
        # Clamp runaway sequences inside the window; ties keep emission
        # order, so determinism is unaffected.
        return min(ts, t1 - SEQ_DT_US)

    # -- emission -------------------------------------------------------------

    def span(
        self,
        name: str,
        rank: int,
        phase: str = "tick",
        tick: int | None = None,
        thread: int = 0,
        cat: str = "sim",
        **attrs: Any,
    ) -> None:
        """A complete span covering the whole ``phase`` window of ``tick``."""
        t = self.tick if tick is None else tick
        t0, t1 = self.window_us(phase, t)
        self.events.append(
            TraceEvent(name, cat, "X", t0, rank, thread, t1 - t0, t, _freeze(attrs))
        )

    def instant(
        self,
        name: str,
        rank: int,
        phase: str = "network",
        tick: int | None = None,
        thread: int = 0,
        cat: str = "sim",
        ts_us: float | None = None,
        **attrs: Any,
    ) -> None:
        """A point event at the next sequence slot of ``phase`` (or ``ts_us``)."""
        t = self.tick if tick is None else tick
        ts = self._next_ts(phase, tick) if ts_us is None else ts_us
        self.events.append(
            TraceEvent(name, cat, "i", ts, rank, thread, 0.0, t, _freeze(attrs))
        )

    def complete(
        self,
        name: str,
        rank: int,
        *,
        ts_us: float,
        dur_us: float = SEQ_DT_US,
        thread: int = 0,
        cat: str = "sim",
        tick: int = -1,
        **attrs: Any,
    ) -> None:
        """A complete (``X``) slice at an *explicit* simulated timestamp.

        The phase-window emitters (:meth:`span`, :meth:`begin`) derive
        their timestamps from the tick phase table; event-driven layers
        (serve/shard, whose clock is plain simulated microseconds) use
        this instead and pass ``ts_us`` explicitly — the discipline lint
        rule DET110 enforces.
        """
        self.events.append(
            TraceEvent(name, cat, "X", ts_us, rank, thread, dur_us, tick, _freeze(attrs))
        )

    def flow(
        self,
        name: str,
        rank: int,
        ph: str,
        flow_id: str,
        *,
        ts_us: float,
        thread: int = 0,
        cat: str = "sim",
        tick: int = -1,
        **attrs: Any,
    ) -> None:
        """A flow event (``ph`` one of ``s``/``t``/``f``) with an explicit id.

        Flow events stitch one logical journey (e.g. a job's trace) across
        tracks: ``s`` starts the flow, ``t`` continues it, ``f`` finishes
        it.  The id travels in ``args["flow"]``; the Perfetto exporter
        lifts it to the top-level ``id`` field the trace-event format
        requires.  Each flow event must coincide with a slice on its
        track so viewers can bind the arrow to an enclosing span —
        ``validate_chrome_trace`` checks exactly that.
        """
        if ph not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be 's', 't', or 'f', not {ph!r}")
        attrs["flow"] = flow_id
        self.events.append(
            TraceEvent(name, cat, ph, ts_us, rank, thread, 0.0, tick, _freeze(attrs))
        )

    def begin(
        self,
        name: str,
        rank: int,
        phase: str = "tick",
        tick: int | None = None,
        thread: int = 0,
        cat: str = "sim",
        **attrs: Any,
    ) -> None:
        """Open a nestable span on the (rank, thread) track."""
        t = self.tick if tick is None else tick
        ts = self._next_ts(phase, tick)
        self._stacks.setdefault((rank, thread), []).append(name)
        self.events.append(
            TraceEvent(name, cat, "B", ts, rank, thread, 0.0, t, _freeze(attrs))
        )

    def end(
        self,
        rank: int,
        phase: str = "tick",
        tick: int | None = None,
        thread: int = 0,
        cat: str = "sim",
        **attrs: Any,
    ) -> None:
        """Close the innermost open span on the (rank, thread) track."""
        stack = self._stacks.get((rank, thread))
        if not stack:
            raise ValueError(f"no open span on track (rank={rank}, thread={thread})")
        name = stack.pop()
        t = self.tick if tick is None else tick
        ts = self._next_ts(phase, tick)
        self.events.append(
            TraceEvent(name, cat, "E", ts, rank, thread, 0.0, t, _freeze(attrs))
        )

    def tick_summary(self, tick: int, **attrs: Any) -> None:
        """Cluster-track per-tick summary instant at a *fixed* timestamp.

        Placed at the very end of the tick window independent of how many
        events preceded it, so the record is identical across different
        rank counts — the partition-invariant subset a cross-layout trace
        diff compares (see docs/observability.md).
        """
        ts = (tick + 1) * TICK_US - SEQ_DT_US
        self.events.append(
            TraceEvent("tick", "sim", "i", ts, -1, 0, 0.0, tick, _freeze(attrs))
        )

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def count(self, name: str | None = None, ph: str | None = None) -> int:
        """Number of recorded events matching the optional filters."""
        return sum(
            1
            for e in self.events
            if (name is None or e.name == name) and (ph is None or e.ph == ph)
        )


class NullTracer:
    """The disabled tracer: every method is a no-op, nothing allocates.

    Hot paths additionally guard on :attr:`enabled` so span construction
    (dict packing, attribute formatting) is skipped entirely.
    """

    enabled = False
    events: tuple[TraceEvent, ...] = ()
    tick = 0

    def begin_tick(self, tick: int) -> None:
        pass

    def span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    def complete(self, *args: Any, **kwargs: Any) -> None:
        pass

    def flow(self, *args: Any, **kwargs: Any) -> None:
        pass

    def begin(self, *args: Any, **kwargs: Any) -> None:
        pass

    def end(self, *args: Any, **kwargs: Any) -> None:
        pass

    def tick_summary(self, tick: int, **attrs: Any) -> None:
        pass

    def count(self, name: str | None = None, ph: str | None = None) -> int:
        return 0

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer — the default for every simulator.
NULL_TRACER = NullTracer()
