"""Synthetic Paxinos-like region volumes (§V-A).

"We derived volumetric information for each region from the Paxinos brain
atlas, which in turn was used to set relative neuron counts for each
region.  Volume information was not available for 5 cortical and 8
thalamic regions and so was approximated using the median size of the
other cortical or thalamic regions, respectively."

The synthetic atlas draws log-normal relative volumes (brain-region sizes
span about two orders of magnitude), deterministically marks 5 cortical
and 8 thalamic regions as missing, and imputes them with the class median
— exactly the paper's procedure, on synthetic values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cocomac.database import Region
from repro.util.validation import require

#: Regions lacking Paxinos volumes in the paper, per class.
MISSING_BY_CLASS = {"cortical": 5, "thalamic": 8, "basal_ganglia": 0}


@dataclass
class AtlasVolumes:
    """Relative volumes per region, plus which were imputed."""

    volumes: dict[str, float]
    imputed: set[str]

    def volume_array(self, names: list[str]) -> np.ndarray:
        return np.array([self.volumes[n] for n in names], dtype=float)


def synthetic_atlas(
    regions: list[Region], seed: int = 0, sigma: float = 0.9
) -> AtlasVolumes:
    """Assign relative volumes to ``regions`` with median imputation.

    Deterministic in ``seed``; the *last* ``MISSING_BY_CLASS[cls]`` regions
    of each class (by index order) play the role of the atlas's missing
    entries.
    """
    rng = np.random.default_rng(seed ^ 0xA71A5)
    by_class: dict[str, list[Region]] = {}
    for r in regions:
        by_class.setdefault(r.region_class, []).append(r)

    volumes: dict[str, float] = {}
    imputed: set[str] = set()
    for cls, members in by_class.items():
        members = sorted(members, key=lambda r: r.index)
        n_missing = min(MISSING_BY_CLASS.get(cls, 0), max(len(members) - 1, 0))
        known = members[: len(members) - n_missing]
        missing = members[len(members) - n_missing :]
        draws = rng.lognormal(mean=0.0, sigma=sigma, size=len(known))
        for r, v in zip(known, draws):
            volumes[r.name] = float(v)
        median = float(np.median(draws)) if len(draws) else 1.0
        for r in missing:
            volumes[r.name] = median
            imputed.add(r.name)
    return AtlasVolumes(volumes=volumes, imputed=imputed)


def cores_per_region(
    atlas: AtlasVolumes, names: list[str], total_cores: int
) -> np.ndarray:
    """Apportion ``total_cores`` to regions proportionally to volume.

    Largest-remainder apportionment with a floor of one core per region
    (every region must be simulable).
    """
    require(
        total_cores >= len(names),
        f"need at least one core per region: {total_cores} < {len(names)}",
    )
    v = atlas.volume_array(names)
    raw = v / v.sum() * total_cores
    out = np.maximum(1, np.floor(raw).astype(np.int64))
    # Largest remainder, respecting the floor when trimming overshoot.
    while out.sum() < total_cores:
        out[np.argmax(raw - out)] += 1
    while out.sum() > total_cores:
        candidates = np.where(out > 1)[0]
        out[candidates[np.argmin((raw - out)[candidates])]] -= 1
    return out
