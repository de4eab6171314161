"""Streaming per-window rollups on the simulated clock.

The rollup pipeline turns the fleet's completion stream into fixed
simulated-time windows ``[k*W, (k+1)*W)`` that close *online*, on the
simulated clock, while the run is still in flight — the aggregate-as-
you-go discipline the 1024-process scaling study (arXiv:1511.09325)
found instrumentation needs to survive scale.  Memory is O(window):
aggregates for the open window only, flushed to a sink callback as
schema-tagged JSONL-ready records the moment the window closes.

Window assignment is half-open: a completion at exactly a boundary
belongs to the *next* window.  The shard router guarantees the matching
processing order (events strictly before a boundary are drained, the
window closes, then boundary-instant events run), so assignment is a
pure function of simulated timestamps and the record stream is
byte-identical across repeated runs and rank layouts.

Per window, three scopes are emitted in a fixed order: the fleet record,
one record per shard (always, even for empty windows — absence of load
is itself a signal), and one record per *active* tenant (sorted by
name; idle tenants cost nothing, keeping the tenant dimension O(active),
not O(universe)).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.serve.jobs import Job, SloFold, latency_percentiles
from repro.util.validation import check_positive, check_range

#: Schema tag stamped into every rollup record.
ROLLUP_SCHEMA = 1


def rollup_record(
    fold: SloFold,
    window: int,
    t0_us: float,
    t1_us: float,
    scope: str,
    shard: int,
    tenant: str,
    queue_depth: int,
) -> dict[str, Any]:
    """The closed-window rollup record for one scope's fold."""
    p50, p95, p99 = latency_percentiles(fold.sorted_latencies())
    span_s = (t1_us - t0_us) / 1e6
    return {
        "schema": ROLLUP_SCHEMA,
        "kind": "rollup",
        "window": window,
        "t0_us": t0_us,
        "t1_us": t1_us,
        "scope": scope,
        "shard": shard,
        "tenant": tenant,
        "completed": fold.completed,
        "rejected": fold.rejected,
        "missed": fold.missed,
        "good": fold.good,
        "throughput_per_s": fold.completed / span_s if span_s > 0 else 0.0,
        "queue_depth": queue_depth,
        "p50_us": p50,
        "p95_us": p95,
        "p99_us": p99,
        "miss_rate": fold.miss_rate,
    }


#: One scope's inputs to the SLO engine: (scope, shard, fold).
SloInput = tuple[str, int, SloFold]


class StreamingRollup:
    """Fixed-window online aggregation over the fleet completion stream.

    ``observe`` folds terminal jobs into the open window's aggregates;
    ``close_window`` flushes one window (records go to ``sink``) and
    opens the next.  The caller — :class:`repro.obs.live.pipeline.
    LiveTelemetry`, driven by the shard router — closes windows at
    simulated-clock boundaries, so assignment never buffers more than the
    open window.
    """

    def __init__(
        self,
        window_us: float,
        n_shards: int,
        per_tenant: bool = True,
        sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        check_positive("window_us", window_us)
        check_range("n_shards", n_shards, lo=1)
        self.window_us = float(window_us)
        self.n_shards = n_shards
        self.per_tenant = per_tenant
        self.sink = sink
        self.window = 0
        self.windows_closed = 0
        self.records_emitted = 0
        #: Largest observation timestamp seen — drives finalisation.
        self.max_ts_us = 0.0
        self._fleet = SloFold()
        self._shards = [SloFold() for _ in range(n_shards)]
        self._tenants: dict[str, SloFold] = {}

    @property
    def open_t0_us(self) -> float:
        return self.window * self.window_us

    @property
    def open_t1_us(self) -> float:
        return (self.window + 1) * self.window_us

    def observe(self, shard: int, job: Job) -> None:
        """Fold one terminal job from ``shard`` into the open window."""
        t = job.finish_us if job.finish_us >= 0 else job.submit_us
        self.max_ts_us = max(self.max_ts_us, t)
        self._fleet.observe(job)
        self._shards[shard].observe(job)
        if self.per_tenant:
            agg = self._tenants.get(job.spec.tenant)
            if agg is None:
                agg = self._tenants[job.spec.tenant] = SloFold()
            agg.observe(job)

    def close_window(self, depths: list[int]) -> list[SloInput]:
        """Flush the open window's records and open the next.

        ``depths`` are the per-shard queue depths sampled at the boundary.
        Returns the fleet + per-shard aggregates for the SLO engine (it
        needs raw latencies to count target violations per objective).
        """
        window = self.window
        t0, t1 = self.open_t0_us, self.open_t1_us
        fleet_depth = sum(depths)
        self._emit(
            rollup_record(self._fleet, window, t0, t1, "fleet", -1, "", fleet_depth)
        )
        for shard, agg in enumerate(self._shards):
            self._emit(
                rollup_record(agg, window, t0, t1, "shard", shard, "", depths[shard])
            )
        for tenant in sorted(self._tenants):
            self._emit(
                rollup_record(
                    self._tenants[tenant], window, t0, t1, "tenant", -1, tenant, -1
                )
            )
        slo_inputs: list[SloInput] = [("fleet", -1, self._fleet)]
        slo_inputs.extend(
            ("shard", shard, agg) for shard, agg in enumerate(self._shards)
        )
        self._fleet = SloFold()
        self._shards = [SloFold() for _ in range(self.n_shards)]
        self._tenants = {}
        self.window = window + 1
        self.windows_closed += 1
        return slo_inputs

    def _emit(self, record: dict[str, Any]) -> None:
        self.records_emitted += 1
        if self.sink is not None:
            self.sink(record)
