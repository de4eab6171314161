"""repro.resilience: fault injection, failure detection, and recovery.

The virtual cluster's unhappy path.  A seeded :class:`FaultSchedule`
injects rank crashes and message faults (drops, duplicates,
corruptions) into a run; per-phase timeouts surface them as typed
failures inside the tick they happen; and the :class:`ResilientRunner`
restores the last coordinated checkpoint in place — priced as a
restart-with-backoff or a spare-rank takeover — while preserving the
bit-determinism contract: same seed + same fault schedule yields the
identical spike raster an uninterrupted run produces.  Costs are
accounted in simulated time in a :class:`RecoveryReport`.
"""

from repro.resilience.detect import HeartbeatConfig
from repro.resilience.faults import (
    FaultInjector,
    FaultSchedule,
    MessageCorruption,
    MessageDrop,
    MessageDuplicate,
    RankCrash,
)
from repro.resilience.recovery import RecoveryPolicy, ResilientRunner
from repro.resilience.report import (
    CheckpointCostModel,
    FailureRecord,
    RecoveryReport,
    spike_digest,
)

__all__ = [
    "CheckpointCostModel",
    "FailureRecord",
    "FaultInjector",
    "FaultSchedule",
    "HeartbeatConfig",
    "MessageCorruption",
    "MessageDrop",
    "MessageDuplicate",
    "RankCrash",
    "RecoveryPolicy",
    "RecoveryReport",
    "ResilientRunner",
    "spike_digest",
]
