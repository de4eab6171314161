"""The live-telemetry pipeline: rollups + SLO engine behind one facade.

:class:`LiveTelemetry` is what the shard router owns when streaming
telemetry is enabled.  The router feeds it terminal jobs (via server
completion hooks) and closes windows at simulated-clock boundaries; the
pipeline fans each close out to the streaming rollup, the SLO engine,
the record sinks, and — when tracing is on — ``cat="alert"`` trace
instants at the window-close timestamp.

Sinks are plain callables taking one JSON-ready dict; the CLI installs
line-writing sinks so a fleet run streams its rollups to disk with
O(window) memory.  When no rollup sink is installed, records are counted
and dropped.  Alert transitions are always retained on ``alerts`` —
they are O(transitions), not O(run) — so :func:`repro.shard.fleet.
build_fleet_report` can surface them without a sink.

Disabled path: when ``FleetConfig.telemetry`` is None the router holds
no pipeline at all — the per-completion hot path gains nothing but the
pre-existing hook dispatch, mirroring the ``NULL_TRACER`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.live.rollup import StreamingRollup
from repro.obs.live.slo import DEFAULT_RULES, BurnRateRule, SLO, SLOEngine
from repro.obs.span import NULL_TRACER
from repro.serve.jobs import Job
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative streaming-telemetry configuration for a fleet."""

    #: Rollup window length on the simulated clock.
    window_us: float = 100_000.0
    #: Objectives the SLO engine evaluates each window.
    slos: tuple[SLO, ...] = ()
    #: Multi-window burn-rate alert rules applied to every SLO.
    rules: tuple[BurnRateRule, ...] = DEFAULT_RULES
    #: Emit per-tenant rollup records (active tenants only).
    per_tenant: bool = True

    def __post_init__(self) -> None:
        check_positive("window_us", self.window_us)


class LiveTelemetry:
    """Streaming rollups + SLO alerting for one fleet run."""

    def __init__(
        self,
        config: TelemetryConfig,
        n_shards: int,
        tracer: Any = NULL_TRACER,
        rollup_sink: Callable[[dict[str, Any]], None] | None = None,
        alert_sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.alert_sink = alert_sink
        self.rollup = StreamingRollup(
            window_us=config.window_us,
            n_shards=n_shards,
            per_tenant=config.per_tenant,
            sink=rollup_sink,
        )
        self.engine = SLOEngine(config.slos, config.rules)
        #: Every fire/resolve transition, in emission order.
        self.alerts: list[dict[str, Any]] = []
        self._finalized = False

    # -- wiring ---------------------------------------------------------------

    @property
    def rollup_sink(self) -> Callable[[dict[str, Any]], None] | None:
        return self.rollup.sink

    @rollup_sink.setter
    def rollup_sink(self, sink: Callable[[dict[str, Any]], None] | None) -> None:
        self.rollup.sink = sink

    @property
    def next_boundary_us(self) -> float:
        """Simulated time at which the open window closes."""
        return self.rollup.open_t1_us

    @property
    def windows_closed(self) -> int:
        return self.rollup.windows_closed

    @property
    def records_emitted(self) -> int:
        return self.rollup.records_emitted

    # -- the streaming path ---------------------------------------------------

    def observe(self, shard: int, job: Job) -> None:
        """Fold one terminal job (wired as a server completion hook)."""
        self.rollup.observe(shard, job)

    def close_window(self, depths: list[int]) -> None:
        """Close the open window at its boundary; evaluate SLOs and alert."""
        window = self.rollup.window
        t_us = self.rollup.open_t1_us
        slo_inputs = self.rollup.close_window(depths)
        for alert in self.engine.evaluate(window, t_us, slo_inputs):
            self.alerts.append(alert)
            if self.alert_sink is not None:
                self.alert_sink(alert)
            if self.tracer.enabled:
                self.tracer.instant(
                    f"slo.{alert['state']}",
                    rank=alert["shard"],
                    tick=-1,
                    ts_us=t_us,
                    cat="alert",
                    slo=alert["slo"],
                    rule=alert["rule"],
                    scope=alert["scope"],
                    window=window,
                    burn_long=alert["burn_long"],
                    burn_short=alert["burn_short"],
                )

    def finalize(self, depths: list[int]) -> None:
        """Close every window up to and including the last observation's.

        Idempotent; called once the fleet has drained.  ``max_ts_us`` is a
        layout-invariant simulated quantity, so the number of windows a
        seeded run emits is identical across rank layouts.
        """
        if self._finalized:
            return
        self._finalized = True
        while self.rollup.open_t0_us <= self.rollup.max_ts_us:
            self.close_window(depths)
