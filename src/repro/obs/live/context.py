"""Deterministic causal trace contexts for the serving fleet.

A :class:`TraceContext` names one job's journey through the fleet — the
trace — and one stage within it — the span.  Ids are content-defined
(:func:`repro.util.rng.stable_hash64`, the shard ring's hash), never
drawn from a counter or a host RNG, so the identical seeded run produces
the identical ids on every machine and every rank layout:

* ``trace_id = H(tenant / job_id / submit_us)`` — stable across the
  whole journey; the Perfetto flow id that stitches router → shard →
  queue → batch → run → done into one arrowed chain;
* ``span_id = H(trace_id / parent_span / stage)`` — each stage derives
  its span from its parent's, so the parent links reconstruct the causal
  chain from the event log alone (see :mod:`repro.obs.live.journey`).

Contexts are frozen values: propagating one is an assignment, never a
mutation, which keeps the hot path allocation-free when tracing is off
(the context is only ever built under a ``tracer.enabled`` guard).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import stable_hash64


def job_trace_id(tenant: str, job_id: int, submit_us: float) -> str:
    """The 16-hex trace id of one job's journey.

    ``submit_us`` uses ``repr`` so the full float participates — two jobs
    of one tenant can share a per-shard ``job_id`` across shards but
    never a submit instant drawn from the seeded arrival process.
    """
    return f"{stable_hash64(f'{tenant}/{job_id}/{submit_us!r}'):016x}"


@dataclass(frozen=True)
class TraceContext:
    """One stage of one job's causal trace.

    ``parent_id`` is the previous stage's span (the trace id itself for
    the first stage), giving every emitted stage slice the link structure
    a journey reconstruction walks.
    """

    trace_id: str
    span_id: str
    parent_id: str = ""
    stage: str = "root"

    @classmethod
    def root(cls, tenant: str, job_id: int, submit_us: float) -> "TraceContext":
        """The journey's root context; its span is the trace id itself."""
        tid = job_trace_id(tenant, job_id, submit_us)
        return cls(trace_id=tid, span_id=tid, parent_id="", stage="root")

    def child(self, stage: str) -> "TraceContext":
        """Derive the next stage's context, parented to this one."""
        span = f"{stable_hash64(f'{self.trace_id}/{self.span_id}/{stage}'):016x}"
        return TraceContext(
            trace_id=self.trace_id, span_id=span, parent_id=self.span_id, stage=stage
        )
