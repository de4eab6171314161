"""Sharded multi-cluster serving: the fleet tier above :mod:`repro.serve`.

One :class:`~repro.shard.router.ShardRouter` partitions tenants across N
independent simulated clusters (each a
:class:`~repro.serve.server.SimServer`) with consistent-hash routing,
bounded spill-over from hot shards, per-shard watermark autoscaling, and
hierarchical cross-shard SLO aggregation — all on one shared simulated
clock, byte-identical across runs and rank layouts.

See ``docs/serving.md`` ("Sharded fleet") for the full semantics.
"""

from repro.shard.autoscale import AutoscalePolicy, Autoscaler, ScaleDecision
from repro.shard.fleet import (
    FLEET_SCHEMA,
    FleetReport,
    ShardStats,
    build_fleet_report,
)
from repro.shard.loadgen import FleetLoadStats, fleet_open_loop
from repro.shard.ring import HashRing, RingConfig, RouteDecision, stable_hash64
from repro.shard.router import FleetConfig, ShardRouter

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "FLEET_SCHEMA",
    "FleetConfig",
    "FleetLoadStats",
    "FleetReport",
    "HashRing",
    "RingConfig",
    "RouteDecision",
    "ScaleDecision",
    "ShardRouter",
    "ShardStats",
    "build_fleet_report",
    "fleet_open_loop",
    "stable_hash64",
]
