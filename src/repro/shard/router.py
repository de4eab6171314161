"""Fleet front-end: deterministic admission + routing over N clusters.

:class:`ShardRouter` owns one :class:`~repro.serve.server.SimServer` per
shard and drives them all as *sub-simulations of one shared simulated
clock*.  Arrivals must be offered in non-decreasing simulated time; the
router advances every shard to each arrival's timestamp before routing
it, so routing decisions always see the queue depths a real front-end
would see at that instant — and see them identically on every run.

Routing is two-level: the consistent-hash ring
(:class:`~repro.shard.ring.HashRing`) names the tenant's home shard and
its spill-over candidates; live queue depths pick among them.  When
every candidate is at queue capacity the job is rejected fleet-side
with :class:`~repro.errors.FleetFullError` before touching any shard
queue.

Every routing and autoscale decision is folded into a running SHA-256
(:attr:`ShardRouter.routing_digest`), giving a compact byte-identical
witness of the full decision sequence for determinism tests — the same
role the recovery digest plays in :mod:`repro.resilience`.

Fault injection composes per shard: ``FleetConfig.fault_shard`` names
the one shard whose server receives ``serve.fault_schedule``; every
other shard runs fault-free, mirroring a single cluster failing inside
a healthy fleet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

from repro.errors import FleetFullError, UnknownTenantError
from repro.obs import Observability
from repro.obs.live.context import TraceContext
from repro.obs.live.pipeline import LiveTelemetry, TelemetryConfig
from repro.serve.jobs import JobSpec, SloFold
from repro.serve.server import ServeConfig, SimServer
from repro.shard.autoscale import AutoscalePolicy, Autoscaler, ScaleDecision
from repro.shard.ring import HashRing, RingConfig
from repro.util.validation import check_range, require


@dataclass(frozen=True)
class FleetConfig:
    """Validated fleet topology: ring + per-shard service template.

    Execution backend selection rides the :class:`ServeConfig` template:
    ``serve.backend`` (``mpi``/``pgas``/``pool``) and
    ``serve.pool_workers`` flow through :meth:`shard_serve_config` to
    every shard's server, which drives the chosen backend through the
    :mod:`repro.exec` adapter layer — the fleet never constructs a
    simulator directly.
    """

    shards: int = 4
    vnodes: int = 64
    spill: int = 1
    hot_depth: int = 32
    #: Template applied to every shard's server (fault_schedule is
    #: stripped for all shards except ``fault_shard``).
    serve: ServeConfig = field(default_factory=ServeConfig)
    autoscale: AutoscalePolicy | None = None
    #: Shard whose server arms ``serve.fault_schedule``; -1 = none.
    fault_shard: int = -1
    #: Streaming-telemetry configuration (rollup windows + SLO alerting);
    #: None keeps the fleet's completion hot path free of telemetry work.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        # shards/vnodes/spill/hot_depth are validated by RingConfig.
        self.ring_config()
        check_range("fault_shard", self.fault_shard, lo=-1, hi=self.shards - 1)
        require(
            self.serve.fault_schedule is None or self.fault_shard >= 0,
            "serve.fault_schedule is set but fault_shard is -1 "
            "(name the shard that should fail)",
        )

    def ring_config(self) -> RingConfig:
        return RingConfig(
            n_shards=self.shards,
            vnodes=self.vnodes,
            spill=self.spill,
            hot_depth=self.hot_depth,
        )

    def shard_serve_config(self, shard: int) -> ServeConfig:
        """Per-shard server config: the template minus foreign faults."""
        if self.serve.fault_schedule is None or shard == self.fault_shard:
            return self.serve
        return replace(self.serve, fault_schedule=None)


class ShardRouter:
    """Deterministic front-end router over N independent shard servers."""

    def __init__(
        self, config: FleetConfig | None = None, obs: Observability | None = None
    ) -> None:
        self.config = config or FleetConfig()
        self.obs = obs or Observability.off()
        self.ring = HashRing(self.config.ring_config())
        # Shard servers share the router's tracer (one causal event stream
        # for the whole fleet, each shard on its own track) but keep their
        # own metric registries — per-tenant instrument cells are keyed by
        # per-server tenant ids that would collide across shards.  With
        # tracing off they run fully detached, as before.
        self.servers = [
            SimServer(
                self.config.shard_serve_config(shard),
                obs=Observability(tracer=self.obs.tracer)
                if self.obs.tracing
                else None,
                rank=shard,
            )
            for shard in range(self.config.shards)
        ]
        #: Per-shard SLO accounting, fed by each server's completion hook.
        self.accumulators = [SloFold() for _ in self.servers]
        for server, accumulator in zip(self.servers, self.accumulators):
            server.add_completion_hook(accumulator.observe)
        self.telemetry: LiveTelemetry | None = None
        if self.config.telemetry is not None:
            self.telemetry = LiveTelemetry(
                self.config.telemetry, self.config.shards, tracer=self.obs.tracer
            )
            for shard, server in enumerate(self.servers):
                server.add_completion_hook(
                    lambda job, shard=shard: self.telemetry.observe(shard, job)
                )
        self.autoscalers: list[Autoscaler] | None = None
        self._next_scale_boundary = math.inf
        if self.config.autoscale is not None:
            self.autoscalers = [
                Autoscaler(self.config.autoscale, server, shard)
                for shard, server in enumerate(self.servers)
            ]
            self._next_scale_boundary = self.config.autoscale.interval_us
        self.scale_log: list[ScaleDecision] = []
        self.jobs_routed = 0
        self.routed = [0] * self.config.shards
        self.spilled = 0
        self.fleet_rejected = 0
        self._tenant_shard: dict[str, int] = {}
        self._clock_us = 0.0
        self._digest = hashlib.sha256()
        reg = self.obs.registry
        self._m_routed = reg.counter(
            "shard_jobs_routed_total", help="jobs routed, keyed by shard"
        )
        self._m_spill = reg.counter(
            "shard_spill_total", help="spill-overs, keyed by (hot) home shard"
        )
        self._m_fleet_rejected = reg.counter(
            "shard_fleet_rejected_total", help="fleet-level rejections (all candidates full)"
        )
        self._m_scale = reg.counter(
            "shard_scale_events_total", help="autoscale actions, keyed by shard"
        )
        self._g_depth = reg.gauge(
            "shard_queue_depth", help="queue depth at autoscale boundaries, keyed by shard"
        )
        self._g_workers = reg.gauge(
            "shard_workers", help="live worker-pool width, keyed by shard"
        )

    # -- routing --------------------------------------------------------------

    def submit(self, spec: JobSpec, at_us: float = 0.0) -> tuple[int, int]:
        """Route one arrival at simulated time ``at_us``.

        Returns ``(shard, job_id)``.  Arrivals must be offered in
        non-decreasing time order — the front-end is itself an event
        source on the shared clock, so out-of-order offers would mean
        routing against depths from the future.
        """
        check_range("at_us", at_us, lo=0.0)
        require(
            at_us >= self._clock_us,
            f"fleet arrivals must be offered in non-decreasing simulated "
            f"time order (got {at_us!r} after {self._clock_us!r})",
        )
        self._advance(at_us)
        depths = [len(server.queue) for server in self.servers]
        decision = self.ring.route(spec.tenant, depths)
        target = decision.target
        tracer = self.obs.tracer
        if depths[target] >= self.config.serve.queue_capacity:
            self.fleet_rejected += 1
            self._m_fleet_rejected.inc(rank=decision.home)
            self._digest.update(
                f"{at_us!r}:{spec.tenant}:{decision.home}:reject;".encode()
            )
            if tracer.enabled:
                tracer.instant(
                    "shard.reject",
                    rank=decision.home,
                    tick=-1,
                    ts_us=at_us,
                    cat="shard",
                    tenant=spec.tenant,
                )
            raise FleetFullError(
                f"all {1 + self.config.spill} candidate shard(s) for tenant "
                f"{spec.tenant!r} at queue capacity "
                f"({self.config.serve.queue_capacity})"
            )
        job_id = self.servers[target].submit(spec, at_us=at_us)
        self._tenant_shard[spec.tenant] = target
        self.jobs_routed += 1
        self.routed[target] += 1
        self._m_routed.inc(rank=target)
        self._digest.update(
            f"{at_us!r}:{spec.tenant}:{decision.home}:{target};".encode()
        )
        if decision.spilled:
            self.spilled += 1
            self._m_spill.inc(rank=decision.home)
            if tracer.enabled:
                tracer.instant(
                    "shard.spill",
                    rank=decision.home,
                    tick=-1,
                    ts_us=at_us,
                    cat="shard",
                    tenant=spec.tenant,
                    target=target,
                )
        if tracer.enabled:
            tracer.instant(
                "shard.route",
                rank=target,
                tick=-1,
                ts_us=at_us,
                cat="shard",
                tenant=spec.tenant,
                home=decision.home,
                job=job_id,
            )
            # Start the job's causal trace at the routing decision.  The
            # arrival event is still pending (processed on a later
            # _advance), so the shard server sees this context and chains
            # its queue/batch/run stages off the route span.
            root = TraceContext.root(spec.tenant, job_id, at_us)
            ctx = root.child("route")
            self.servers[target].jobs[job_id].trace = ctx
            tracer.complete(
                "job.route",
                rank=target,
                ts_us=at_us,
                cat="serve",
                tick=-1,
                job=job_id,
                tenant=spec.tenant,
                trace=ctx.trace_id,
                span=ctx.span_id,
                parent=ctx.parent_id,
                home=decision.home,
                target=target,
            )
            tracer.flow(
                "job", rank=target, ph="s", flow_id=ctx.trace_id,
                ts_us=at_us, cat="serve", tick=-1, job=job_id,
            )
        return target, job_id

    def shard_of(self, tenant: str) -> int:
        """Which shard holds ``tenant``'s jobs (must have been routed)."""
        try:
            return self._tenant_shard[tenant]
        except KeyError:
            raise UnknownTenantError(
                f"tenant {tenant!r} has never been routed by this fleet"
            ) from None

    # -- clock ----------------------------------------------------------------

    def _pending_boundary(self) -> float:
        """Next autoscale or telemetry boundary (``inf`` when neither)."""
        boundary = self._next_scale_boundary
        if self.telemetry is not None:
            boundary = min(boundary, self.telemetry.next_boundary_us)
        return boundary

    def _queue_depths(self) -> list[int]:
        return [len(server.queue) for server in self.servers]

    def _advance(self, t_us: float) -> None:
        """Advance every shard to ``t_us``, taking scheduled boundaries.

        Rollup windows are half-open ``[t0, t1)``: at a telemetry boundary
        the shards first run strictly *before* it, the window closes, and
        only then do events at exactly the boundary run — so a completion
        landing on a boundary is counted in the next window, identically
        on every run and rank layout.
        """
        while True:
            scale_b = self._next_scale_boundary
            tel_b = (
                self.telemetry.next_boundary_us
                if self.telemetry is not None
                else math.inf
            )
            boundary = min(scale_b, tel_b)
            if boundary > t_us:
                break
            for server in self.servers:
                server.run_before(boundary)
            if tel_b == boundary:
                self.telemetry.close_window(self._queue_depths())
            for server in self.servers:
                server.run_until(boundary)
            if scale_b == boundary:
                self._evaluate_autoscalers(boundary)
                self._next_scale_boundary += self.config.autoscale.interval_us
        for server in self.servers:
            server.run_until(t_us)
        self._clock_us = max(self._clock_us, t_us)

    def _evaluate_autoscalers(self, boundary: float) -> None:
        tracer = self.obs.tracer
        for shard, scaler in enumerate(self.autoscalers):
            decision = scaler.evaluate(boundary)
            self._g_depth.set(shard, float(len(self.servers[shard].queue)))
            self._g_workers.set(shard, float(self.servers[shard].workers))
            if decision is None:
                continue
            self.scale_log.append(decision)
            self._m_scale.inc(rank=shard)
            self._digest.update(decision.digest_token().encode())
            if tracer.enabled:
                tracer.instant(
                    "shard.scale",
                    rank=shard,
                    tick=-1,
                    ts_us=boundary,
                    cat="shard",
                    action=decision.action,
                    workers=decision.workers_after,
                    depth=decision.depth,
                )

    def run(self) -> None:
        """Drain every shard to completion, honouring scheduled boundaries."""
        if self.autoscalers is None and self.telemetry is None:
            for server in self.servers:
                server.run()
                self._clock_us = max(self._clock_us, server.now_us)
            return
        while not all(server.idle for server in self.servers):
            self._advance(self._pending_boundary())
        if self.telemetry is not None:
            self.telemetry.finalize(self._queue_depths())

    @property
    def routing_digest(self) -> str:
        """SHA-256 over the full routing + autoscale decision sequence."""
        return self._digest.hexdigest()
