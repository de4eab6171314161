"""Live fleet telemetry: causal traces, streaming rollups, SLO alerting.

The post-hoc observability layer (:mod:`repro.obs`) answers "where did
the time go" after a run; this subpackage answers it *while the fleet is
running*, in three deterministic pieces:

* :mod:`~repro.obs.live.context` — content-defined trace/span ids
  threaded router → queue → batch → run → recovery → done, exported as
  Perfetto flow events;
* :mod:`~repro.obs.live.rollup` — fixed simulated-time windows closing
  on the simulated clock, with per-fleet/per-shard/per-tenant online
  aggregates flushed as schema-tagged JSONL records in O(window) memory;
* :mod:`~repro.obs.live.slo` + :mod:`~repro.obs.live.pipeline` —
  declarative objectives evaluated per window with multi-window
  burn-rate rules, producing a fire/resolve alert log that is
  byte-identical across repeated runs and rank layouts;
* :mod:`~repro.obs.live.journey` — offline reconstruction of one job's
  causal chain from the event log (``repro obs journey``).

See docs/observability.md ("Live telemetry and SLO alerting").
"""

from repro.obs.live.context import TraceContext, job_trace_id
from repro.obs.live.journey import (
    Journey,
    JourneyStep,
    find_traces,
    reconstruct_journey,
)
from repro.obs.live.pipeline import LiveTelemetry, TelemetryConfig
from repro.obs.live.rollup import ROLLUP_SCHEMA, StreamingRollup, rollup_record
from repro.obs.live.slo import (
    ALERT_SCHEMA,
    DEFAULT_RULES,
    BurnRateRule,
    SLO,
    SLOEngine,
)

__all__ = [
    "ALERT_SCHEMA",
    "BurnRateRule",
    "DEFAULT_RULES",
    "Journey",
    "JourneyStep",
    "LiveTelemetry",
    "ROLLUP_SCHEMA",
    "SLO",
    "SLOEngine",
    "StreamingRollup",
    "TelemetryConfig",
    "TraceContext",
    "find_traces",
    "job_trace_id",
    "reconstruct_journey",
    "rollup_record",
]
