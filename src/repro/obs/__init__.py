"""Unified observability layer: deterministic tracing, metrics, exporters.

One :class:`Observability` object travels with a virtual cluster and
bundles the two instrument surfaces:

* ``obs.tracer`` — a :class:`~repro.obs.span.SpanTracer` recording phase
  spans, message instants, and fault events on the simulated timeline
  (or the shared no-op :data:`~repro.obs.span.NULL_TRACER` when off);
* ``obs.registry`` — a :class:`~repro.obs.registry.MetricRegistry` of
  counters/gauges/histograms with per-rank and cluster-reduced views.

The registry is always live (it backs ``repro run --profile``); tracing
is opt-in because it records an event stream.  Exporters
(:mod:`~repro.obs.perfetto`, :mod:`~repro.obs.prometheus`,
:mod:`~repro.obs.jsonl`) are the only sanctioned file-writing boundary
for observability data — lint rule DET107 enforces that rank-visible
code never writes files outside functions marked ``# repro: obs-flush``.

The analytics that *interpret* the recorded streams — critical-path
extraction, flame folding, imbalance heatmaps — live in the
:mod:`repro.obs.analysis` subpackage (imported
explicitly; see ``docs/perf_analysis.md``).
"""

from __future__ import annotations

from repro.obs.jsonl import (
    Divergence,
    event_record,
    first_divergence,
    iter_lines,
    read_event_log,
    write_event_log,
)
from repro.obs.perfetto import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.prometheus import render_textfile, write_textfile
from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.span import (
    NULL_TRACER,
    PHASES,
    SEQ_DT_US,
    TICK_US,
    NullTracer,
    SpanTracer,
    TraceEvent,
)


class Observability:
    """Tracer + registry bundle attached to one virtual cluster."""

    def __init__(
        self,
        tracer: SpanTracer | NullTracer | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.registry = MetricRegistry() if registry is None else registry

    @classmethod
    def off(cls) -> "Observability":
        """Metrics only — the default for every simulator."""
        return cls()

    @classmethod
    def with_tracing(cls) -> "Observability":
        """Metrics plus a live span tracer."""
        return cls(tracer=SpanTracer())

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled


__all__ = [
    "Observability",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "TICK_US",
    "SEQ_DT_US",
    "PHASES",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "render_textfile",
    "write_textfile",
    "event_record",
    "iter_lines",
    "write_event_log",
    "read_event_log",
    "first_divergence",
    "Divergence",
]
