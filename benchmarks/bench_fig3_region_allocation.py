"""E8 / Fig 3: macaque region map — atlas volume vs post-IPFP allocation.

The paper's Fig 3 plots, per brain region, the relative core count
indicated by the Paxinos atlas (green) and the cores actually allocated
after the normalisation step (red), in log space.  This bench regenerates
that table for all 77 regions.
"""

import numpy as np

from repro.cocomac.model import build_macaque_coreobject
from repro.perf.report import format_table

MODEL_CORES = 4096


def test_fig3_region_allocation(compare_result):
    model = build_macaque_coreobject(MODEL_CORES, seed=0)
    vols = model.volumes.volume_array(model.region_names)
    vols_norm = vols / vols.sum()
    cores_norm = model.cores / model.cores.sum()
    out_deg = model.binary_matrix.sum(axis=1)
    rows = [
        (
            model.region_names[i],
            model.region_classes[i],
            round(float(np.log10(vols_norm[i])), 3),
            round(float(np.log10(cores_norm[i])), 3),
            int(model.cores[i]),
            int(out_deg[i]),
        )
        for i in np.argsort(-vols)
    ]
    table = format_table(
        ["region", "class", "log10_atlas_vol", "log10_alloc", "cores", "out_edges"],
        rows,
        title=f"Fig 3: {MODEL_CORES}-core macaque model, 77 regions "
        "(paper plots atlas volume vs normalised allocation in log space)",
    )
    compare_result("fig3_region_allocation", table)

    # The normalisation must track the atlas within rounding.
    assert np.corrcoef(vols_norm, cores_norm)[0, 1] > 0.99
