"""Synthetic CoCoMac-like connectivity database.

The real CoCoMac network (as processed by Modha & Singh [9]) has 383
hierarchically organised regions spanning cortex, thalamus, and basal
ganglia, with 6,602 directed white-matter edges; reducing child regions
into parents where both report connections yields 102 regions, 77 of which
report connections (§V-B).  The generator here reproduces those counts
deterministically from a seed:

* 102 top-level regions — 62 cortical, 30 thalamic, 10 basal ganglia —
  of which 77 report connections (55 cortical, 17 thalamic, 5 basal
  ganglia);
* 281 descendant regions (two hierarchy levels) distributed over the
  reporting top-level regions, all reporting connections;
* exactly 6,602 directed edges among reporting regions, drawn from a
  preferential-attachment-flavoured distribution so degree spread looks
  biological rather than uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

#: Published statistics reproduced by the generator.
FULL_REGIONS = 383
FULL_EDGES = 6602
REDUCED_REGIONS = 102
REDUCED_CONNECTED = 77

_TOP_LEVEL = {
    "cortical": (62, 55),  # (total, reporting)
    "thalamic": (30, 17),
    "basal_ganglia": (10, 5),
}


@dataclass(frozen=True)
class Region:
    """One database region."""

    index: int
    name: str
    region_class: str  #: cortical | thalamic | basal_ganglia
    parent: int  #: parent region index, or -1 for top level
    reports: bool  #: whether tracing studies report connections for it


@dataclass
class ConnectivityDatabase:
    """Regions plus directed white-matter edges between them."""

    regions: list[Region]
    edges: set[tuple[int, int]] = field(default_factory=set)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def connected_regions(self) -> list[Region]:
        """Regions that have at least one incident edge."""
        touched = {i for e in self.edges for i in e}
        return [r for r in self.regions if r.index in touched]

    def children_of(self, index: int) -> list[Region]:
        return [r for r in self.regions if r.parent == index]

    def top_level(self) -> list[Region]:
        return [r for r in self.regions if r.parent == -1]

    def graph(self) -> nx.DiGraph:
        """networkx view (used by analysis and tests)."""
        import networkx as nx  # here only: the simulator's import path goes without it
        g = nx.DiGraph()
        for r in self.regions:
            g.add_node(
                r.index,
                name=r.name,
                region_class=r.region_class,
                parent=r.parent,
                reports=r.reports,
            )
        g.add_edges_from(self.edges)
        return g

    def adjacency(self, order: list[int] | None = None) -> np.ndarray:
        """Binary adjacency matrix over ``order`` (defaults to all regions)."""
        if order is None:
            order = [r.index for r in self.regions]
        pos = {idx: i for i, idx in enumerate(order)}
        m = np.zeros((len(order), len(order)), dtype=np.int8)
        for a, b in self.edges:
            if a in pos and b in pos:
                m[pos[a], pos[b]] = 1
        return m


def synthetic_cocomac(seed: int = 0) -> ConnectivityDatabase:
    """Generate the synthetic full-resolution database (383 regions, 6602 edges)."""
    rng = np.random.default_rng(seed)
    regions: list[Region] = []
    reporting_top: list[int] = []

    # 1. Top-level regions per class.
    class_prefix = {"cortical": "CX", "thalamic": "TH", "basal_ganglia": "BG"}
    for cls, (total, reporting) in _TOP_LEVEL.items():
        for i in range(total):
            idx = len(regions)
            reports = i < reporting
            regions.append(
                Region(
                    index=idx,
                    name=f"{class_prefix[cls]}{i:02d}",
                    region_class=cls,
                    parent=-1,
                    reports=reports,
                )
            )
            if reports:
                reporting_top.append(idx)

    # 2. Descendants: FULL_REGIONS - 102 children over the reporting parents,
    #    two hierarchy levels deep (some children of children).
    n_descendants = FULL_REGIONS - len(regions)
    n_level1 = int(n_descendants * 0.7)
    level1: list[int] = []
    for i in range(n_level1):
        parent = reporting_top[i % len(reporting_top)]
        idx = len(regions)
        regions.append(
            Region(
                index=idx,
                name=f"{regions[parent].name}.{i // len(reporting_top)}",
                region_class=regions[parent].region_class,
                parent=parent,
                reports=True,
            )
        )
        level1.append(idx)
    for i in range(n_descendants - n_level1):
        parent = level1[i % len(level1)]
        idx = len(regions)
        regions.append(
            Region(
                index=idx,
                name=f"{regions[parent].name}.{i // len(level1)}",
                region_class=regions[parent].region_class,
                parent=parent,
                reports=True,
            )
        )

    # 3. Edges among reporting regions: preferential-attachment flavour.
    #    A ring over the reporting top-level regions is seeded first so that
    #    every reporting region is guaranteed connected after reduction.
    reporting = np.array([r.index for r in regions if r.reports], dtype=np.int64)
    weights = rng.pareto(1.5, size=reporting.size) + 1.0
    weights /= weights.sum()
    edges: set[tuple[int, int]] = set()
    for i, idx in enumerate(reporting_top):
        edges.add((idx, reporting_top[(i + 1) % len(reporting_top)]))
    while len(edges) < FULL_EDGES:
        deficit = FULL_EDGES - len(edges)
        src = rng.choice(reporting, size=deficit * 2, p=weights)
        dst = rng.choice(reporting, size=deficit * 2, p=weights)
        for a, b in zip(src, dst):
            if a != b:
                edges.add((int(a), int(b)))
                if len(edges) == FULL_EDGES:
                    break

    db = ConnectivityDatabase(regions=regions, edges=edges)
    assert db.n_regions == FULL_REGIONS
    assert db.n_edges == FULL_EDGES
    return db
