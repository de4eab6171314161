"""Per-phase metrics: event counts and host wall-clock time.

The evaluation section of the paper reports, per run: total wall-clock time
and its Synapse/Neuron/Network breakdown (Figs 4a, 5, 6), and per tick: MPI
message count and total spike count (Fig 4b).  :class:`RunMetrics`
accumulates exactly those quantities for a functional run, whose time is
the host's.  The Blue Gene phase seconds of the paper's figures come from
the calibrated analytic model (:mod:`repro.perf.costmodel`), never from a
functional run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PhaseTimes:
    """Seconds per phase: a run's host time, or the analytic model's
    Blue Gene time (:mod:`repro.perf`)."""

    synapse: float = 0.0
    neuron: float = 0.0
    network: float = 0.0

    @property
    def total(self) -> float:
        return self.synapse + self.neuron + self.network

    def __iadd__(self, other: "PhaseTimes") -> "PhaseTimes":
        self.synapse += other.synapse
        self.neuron += other.neuron
        self.network += other.network
        return self

    def as_dict(self) -> dict[str, float]:
        return {
            "synapse": self.synapse,
            "neuron": self.neuron,
            "network": self.network,
            "total": self.total,
        }


@dataclass
class TickMetrics:
    """Event counts aggregated over all ranks for one tick."""

    tick: int = 0
    active_axons: int = 0
    neurons_evaluated: int = 0
    fired: int = 0
    local_spikes: int = 0
    remote_spikes: int = 0
    messages: int = 0
    bytes_sent: int = 0

    @property
    def total_spikes(self) -> int:
        return self.local_spikes + self.remote_spikes


def _total(field: str) -> property:
    """A run total: the sum of one :class:`TickMetrics` field over the run."""
    return property(lambda self: sum(getattr(tm, field) for tm in self.per_tick))


@dataclass
class RunMetrics:
    """Accumulated metrics for a whole run.

    ``per_tick`` is the one store of event counts: ``ticks`` and the
    ``total_*`` counts are reads of it, so a checkpoint that restores the
    list (:mod:`repro.core.checkpoint`) rolls every count back with it.
    Host time is deliberately kept across a rollback: work thrown away
    still cost it.
    """

    n_ranks: int = 1
    host: PhaseTimes = field(default_factory=PhaseTimes)
    per_tick: list[TickMetrics] = field(default_factory=list)
    #: Simulated seconds spent on resilience machinery rather than the
    #: simulation proper: coordinated checkpoints, failure detection,
    #: restart/spare takeover and state restore.  Populated by
    #: :class:`repro.resilience.recovery.ResilientRunner`.
    overhead_s: float = 0.0

    total_fired = _total("fired")
    total_local_spikes = _total("local_spikes")
    total_remote_spikes = _total("remote_spikes")
    total_messages = _total("messages")
    total_bytes = _total("bytes_sent")
    total_active_axons = _total("active_axons")

    @property
    def ticks(self) -> int:
        return len(self.per_tick)

    def record_tick(self, tm: TickMetrics) -> None:
        self.per_tick.append(tm)

    # -- paper-facing derived quantities -------------------------------------

    def mean_rate_hz(self, n_neurons: int) -> float:
        """Mean firing rate over the run, in Hz (1 ms ticks)."""
        if self.ticks == 0 or n_neurons == 0:
            return 0.0
        return self.total_fired / n_neurons / (self.ticks / 1000.0)

    def messages_per_tick(self) -> float:
        return self.total_messages / max(self.ticks, 1)

    def spikes_per_tick(self) -> float:
        """White-matter (remote) spikes per tick — Fig 4(b)'s spike series."""
        return self.total_remote_spikes / max(self.ticks, 1)

    def bytes_per_tick(self) -> float:
        return self.total_bytes / max(self.ticks, 1)

    def summary(self, n_neurons: int) -> dict[str, float]:
        return {
            "ticks": self.ticks,
            "ranks": self.n_ranks,
            "total_fired": self.total_fired,
            "mean_rate_hz": self.mean_rate_hz(n_neurons),
            "messages_per_tick": self.messages_per_tick(),
            "remote_spikes_per_tick": self.spikes_per_tick(),
            "bytes_per_tick": self.bytes_per_tick(),
            "host_total_s": self.host.total,
            "overhead_s": self.overhead_s,
        }
