"""Simulated failure detection: per-phase timeouts and a priced heartbeat.

Both advance on **simulated time** (the tick counter plus the
:mod:`repro.runtime.timing` cost model — never the host clock; rule
DET106 enforces this discipline statically):

* **Per-phase timeouts** — the tick collective is a natural deadline:
  every live rank contributes every tick, so a crashed rank's missing
  contribution surfaces within the same tick as a
  :class:`repro.errors.RankFailureError` instead of the silent hang the
  real machine would produce (:func:`repro.runtime.collectives.phase_timeout`
  models the deadline's slack).
* **Heartbeats** — a liveness word piggybacked on the tick collective
  (:func:`repro.runtime.collectives.heartbeat_allreduce_time` charges its
  cost).  Every failure already surfaces as a typed exception inside the
  tick it happens, so no monitor runs; :class:`HeartbeatConfig` is the
  protocol's *price*, the detection-latency term of the recovery report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.collectives import heartbeat_allreduce_time


@dataclass(frozen=True)
class HeartbeatConfig:
    """Tuning of the simulated heartbeat protocol."""

    #: Beats are emitted every this many ticks (piggybacked on the
    #: tick collective, so 1 costs nothing extra per tick).
    period_ticks: int = 1
    #: Consecutive missed beats before a rank is declared failed.
    miss_threshold: int = 3
    #: Floor for the simulated duration of one tick when no machine
    #: model is configured (a TrueNorth tick is 1 ms of biology).
    nominal_tick_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.period_ticks <= 0:
            raise ValueError("period_ticks must be positive")
        if self.miss_threshold <= 0:
            raise ValueError("miss_threshold must be positive")
        if self.nominal_tick_s <= 0:
            raise ValueError("nominal_tick_s must be positive")

    @property
    def detection_latency_ticks(self) -> int:
        """Worst-case ticks between a crash and its declaration."""
        return self.period_ticks * self.miss_threshold

    def detection_latency_s(self, n_ranks: int, mean_tick_s: float = 0.0) -> float:
        """Simulated seconds from crash to declaration.

        ``mean_tick_s`` is the run's observed simulated tick duration
        (0 when no machine model is attached; the nominal 1 ms floor
        applies), plus the liveness allreduce the declaration rides on.
        """
        tick_s = max(mean_tick_s, self.nominal_tick_s)
        return self.detection_latency_ticks * tick_s + heartbeat_allreduce_time(
            max(n_ranks, 2)
        )
