"""Seeded fleet-scale load generation.

:func:`fleet_open_loop` is the headline-scenario driver: Poisson
open-loop arrivals over a synthetic tenant population of arbitrary size
(``t0`` … ``t{N-1}``), offered to a :class:`~repro.shard.router.ShardRouter`
in arrival order.  An optional popularity skew (``hot_fraction`` of
traffic concentrated on the first ``hot_tenants`` tenants) deterministically
overloads a few home shards and exercises ring spill-over.

Fleet-level rejections (:class:`~repro.errors.FleetFullError`) are a
load condition, not an error: they are counted, not raised, mirroring
how the single-cluster generators treat admission rejections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FleetFullError
from repro.serve.jobs import JobSpec
from repro.shard.router import ShardRouter
from repro.util.validation import check_positive, check_range, require


@dataclass(frozen=True)
class FleetLoadStats:
    """What the generator offered vs. what the fleet accepted."""

    offered: int
    routed: int
    fleet_rejected: int


def fleet_open_loop(
    router: ShardRouter,
    rate_per_s: float,
    jobs: int,
    tenants: int,
    model: str = "quickstart",
    cores: int = 8,
    ticks_lo: int = 10,
    ticks_hi: int = 40,
    priority_hi: int = 4,
    deadline_us: float | None = None,
    seed: int = 0,
    model_seed: int = 42,
    hot_fraction: float = 0.0,
    hot_tenants: int = 1,
) -> FleetLoadStats:
    """Offer ``jobs`` Poisson arrivals across ``tenants`` synthetic tenants.

    Tenant names are ``t{i}``; each arrival picks a tenant uniformly,
    except that with probability ``hot_fraction`` it is drawn from the
    first ``hot_tenants`` names instead (the popularity skew).  All
    draws come from one seeded generator, so the offered stream — and
    therefore the fleet's entire schedule — is a pure function of the
    arguments.
    """
    check_positive("rate_per_s", rate_per_s)
    check_positive("jobs", jobs)
    check_positive("tenants", tenants)
    check_range("hot_fraction", hot_fraction, lo=0.0, hi=1.0)
    check_positive("hot_tenants", hot_tenants)
    require(
        hot_tenants <= tenants,
        f"hot_tenants={hot_tenants} exceeds tenants={tenants}",
    )
    require(ticks_lo <= ticks_hi, f"ticks_lo={ticks_lo} exceeds ticks_hi={ticks_hi}")
    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / rate_per_s
    t = 0.0
    routed = 0
    rejected = 0
    for _ in range(jobs):
        t += float(rng.exponential(mean_gap_us))
        # Draw the skew coin unconditionally so hot and uniform configs
        # consume the RNG stream identically except for the tenant index.
        skewed = float(rng.random()) < hot_fraction
        if skewed:
            index = int(rng.integers(0, hot_tenants))
        else:
            index = int(rng.integers(0, tenants))
        spec = JobSpec(
            tenant=f"t{index}",
            model=model,
            cores=cores,
            ticks=int(rng.integers(ticks_lo, ticks_hi + 1)),
            priority=int(rng.integers(0, priority_hi + 1)),
            seed=model_seed,
            deadline_us=deadline_us,
        )
        try:
            router.submit(spec, at_us=t)
            routed += 1
        except FleetFullError:
            rejected += 1
    return FleetLoadStats(offered=jobs, routed=routed, fleet_rejected=rejected)
