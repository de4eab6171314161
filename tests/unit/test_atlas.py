"""Unit tests for the synthetic Paxinos-like atlas."""

import numpy as np
import pytest

from repro.cocomac.atlas import cores_per_region, synthetic_atlas
from repro.cocomac.database import synthetic_cocomac
from repro.cocomac.reduction import reduce_database
from repro.errors import ConfigurationError


def connected_regions():
    return sorted(
        reduce_database(synthetic_cocomac()).connected_regions(),
        key=lambda r: r.index,
    )


class TestVolumes:
    def test_every_region_has_volume(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        assert set(atlas.volumes) == {r.name for r in regions}
        assert all(v > 0 for v in atlas.volumes.values())

    def test_imputed_counts_match_paper(self):
        # §V-A: 5 cortical and 8 thalamic regions imputed at class median.
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        by_class = {}
        names = {r.name: r.region_class for r in regions}
        for name in atlas.imputed:
            by_class[names[name]] = by_class.get(names[name], 0) + 1
        assert by_class == {"cortical": 5, "thalamic": 8}

    def test_imputed_values_are_class_median(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        cortical = [r for r in regions if r.region_class == "cortical"]
        known = [
            atlas.volumes[r.name] for r in cortical if r.name not in atlas.imputed
        ]
        for r in cortical:
            if r.name in atlas.imputed:
                assert atlas.volumes[r.name] == pytest.approx(np.median(known))

    def test_deterministic(self):
        regions = connected_regions()
        a = synthetic_atlas(regions, seed=4)
        b = synthetic_atlas(regions, seed=4)
        assert a.volumes == b.volumes

    def test_volume_array_order(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        names = [r.name for r in regions[:5]]
        arr = atlas.volume_array(names)
        assert list(arr) == [atlas.volumes[n] for n in names]


class TestCoresPerRegion:
    def test_total_preserved(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        names = [r.name for r in regions]
        cores = cores_per_region(atlas, names, 4096)
        assert cores.sum() == 4096

    def test_floor_of_one(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        names = [r.name for r in regions]
        cores = cores_per_region(atlas, names, len(names))
        assert (cores == 1).all()

    def test_proportional_to_volume(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        names = [r.name for r in regions]
        cores = cores_per_region(atlas, names, 100_000)
        vols = atlas.volume_array(names)
        ratio = cores / vols
        # With a large budget, allocations track volume within a few %.
        assert ratio.std() / ratio.mean() < 0.05

    def test_too_few_cores_rejected(self):
        regions = connected_regions()
        atlas = synthetic_atlas(regions)
        names = [r.name for r in regions]
        with pytest.raises(ConfigurationError, match="one core per region"):
            cores_per_region(atlas, names, len(names) - 1)
