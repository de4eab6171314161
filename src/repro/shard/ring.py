"""Consistent-hash tenant routing: the shard ring.

Tenants are placed on a 64-bit hash ring populated with ``vnodes``
virtual nodes per shard; a tenant's *home* shard is the owner of the
first virtual node at or clockwise-after the tenant's position.  Virtual
nodes smooth the per-shard key share (the classic consistent-hashing
construction), and the walk order around the ring doubles as each
tenant's deterministic *preference list* for spill-over.

Everything here must be byte-identical across processes and hosts:

- Positions come from SHA-256 (:func:`~repro.util.rng.stable_hash64`),
  never the builtin ``hash()`` — that one is salted per interpreter
  process.
- Ring points sort by ``(position, shard, vnode)``, so even a full
  64-bit position collision breaks ties explicitly.
- Spill-over picks the least-loaded candidate from the preference list,
  breaking load ties by preference order — the home shard, always first
  in the list, wins a full tie.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.util.rng import stable_hash64
from repro.util.validation import check_positive, check_range, require


@dataclass(frozen=True)
class RingConfig:
    """Validated ring topology and spill-over policy.

    ``spill`` is the number of clockwise neighbor shards a hot home
    shard may overflow onto (0 disables spill-over).  ``hot_depth`` is
    the queue depth at which the home shard counts as hot.
    """

    n_shards: int = 4
    vnodes: int = 64
    spill: int = 1
    hot_depth: int = 32

    def __post_init__(self) -> None:
        check_positive("n_shards", self.n_shards)
        check_positive("vnodes", self.vnodes)
        check_range("spill", self.spill, lo=0, hi=self.n_shards - 1)
        check_positive("hot_depth", self.hot_depth)


@dataclass(frozen=True)
class RouteDecision:
    """One routing decision: where a tenant lives vs. where the job went."""

    tenant: str
    home: int
    target: int

    @property
    def spilled(self) -> bool:
        return self.target != self.home


class HashRing:
    """Consistent-hash ring mapping tenant ids to shards."""

    def __init__(self, config: RingConfig | None = None) -> None:
        self.config = config or RingConfig()
        points: list[tuple[int, int, int]] = []
        for shard in range(self.config.n_shards):
            for vnode in range(self.config.vnodes):
                points.append((stable_hash64(f"shard-{shard}/vnode-{vnode}"), shard, vnode))
        # Sorting the full triple makes position collisions break by
        # (shard, vnode) explicitly rather than by insertion order.
        points.sort()
        self._points = points
        self._positions = [position for position, _, _ in points]

    def lookup(self, tenant: str) -> int:
        """Home shard of ``tenant``: owner of the next point clockwise."""
        index = bisect_right(self._positions, stable_hash64(tenant))
        return self._points[index % len(self._points)][1]

    def preference(self, tenant: str, k: int) -> list[int]:
        """First ``k`` distinct shards walking clockwise from ``tenant``.

        Element 0 is the home shard; the rest are its spill-over
        candidates in deterministic ring order.  ``k`` is clamped to the
        shard count.
        """
        check_positive("k", k)
        k = min(k, self.config.n_shards)
        start = bisect_right(self._positions, stable_hash64(tenant))
        chosen: list[int] = []
        for step in range(len(self._points)):
            shard = self._points[(start + step) % len(self._points)][1]
            if shard not in chosen:
                chosen.append(shard)
                if len(chosen) == k:
                    break
        return chosen

    def route(self, tenant: str, depths: list[int]) -> RouteDecision:
        """Route one job given per-shard queue ``depths``.

        The job stays home while the home queue is below ``hot_depth``;
        past that it goes to the least-loaded of home + ``spill``
        clockwise neighbors, ties broken by preference order (so the
        home shard keeps the job on a full tie — spilling is never
        gratuitous).
        """
        require(
            len(depths) == self.config.n_shards,
            f"depths has {len(depths)} entries for {self.config.n_shards} shards",
        )
        home = self.lookup(tenant)
        if self.config.spill == 0 or depths[home] < self.config.hot_depth:
            return RouteDecision(tenant=tenant, home=home, target=home)
        candidates = self.preference(tenant, self.config.spill + 1)
        best = min(range(len(candidates)), key=lambda i: (depths[candidates[i]], i))
        return RouteDecision(tenant=tenant, home=home, target=candidates[best])
