"""E7 / §IV: Parallel Compass Compiler set-up cost, modelled.

Sizes the compact CoreObject description against the explicit model file
it replaces and extrapolates both set-up paths to the paper's 256M-core
scale (compact description vs multi-terabyte explicit model; compile "in
minutes" vs disk I/O "in hours"; the paper reports a three-orders-of-
magnitude reduction in set-up time and 107 s to compile the 256M-core
model).  What the in-situ compile costs this host is
``compiler.pcc_compile_s`` on ``python3 -m bench --workload macaque_dense``.
"""

from repro.cocomac.model import build_macaque_coreobject
from repro.compiler.diskmodel import (
    PARALLEL_FS_BANDWIDTH,
    SERIAL_FS_BANDWIDTH,
    explicit_model_nbytes,
    modeled_compile_seconds,
    modeled_disk_seconds,
)
from repro.perf.report import format_table
from repro.util.units import fmt_bytes

CORES = 128


def test_pcc_set_up_model(compare_result):
    model = build_macaque_coreobject(CORES, seed=7)
    compact = model.coreobject.description_nbytes()
    explicit = explicit_model_nbytes(CORES)
    explicit_paper = explicit_model_nbytes(256 * 10**6)

    # Scale extrapolation: the §IV argument only bites at paper scale,
    # where the explicit model is terabytes and generation is parallel.
    paper_connections = 256 * 10**6 * 256  # one output per neuron
    t_compile_paper = modeled_compile_seconds(paper_connections, 16384)
    t_disk_parallel = modeled_disk_seconds(explicit_paper, PARALLEL_FS_BANDWIDTH)
    t_disk_serial = modeled_disk_seconds(explicit_paper, SERIAL_FS_BANDWIDTH)

    rows = [
        ("compact description", fmt_bytes(compact)),
        ("explicit model (this size)", fmt_bytes(explicit)),
        ("--- extrapolated to 256M cores ---", ""),
        ("explicit model", fmt_bytes(explicit_paper)),
        ("PCC compile on 16384 nodes (s)", round(t_compile_paper, 0)),
        ("disk write+read, parallel FS (s)", round(t_disk_parallel, 0)),
        ("disk write+read, single writer (h)", round(t_disk_serial / 3600, 1)),
        ("set-up speed-up vs single writer", f"{t_disk_serial / t_compile_paper:.0f}x"),
    ]
    table = format_table(
        ["quantity", "value"],
        rows,
        title=f"§IV: PCC set-up time, {CORES}-core macaque model "
        "(paper: in-situ generation ~1000x faster than multi-TB model files; "
        "256M-core compile took 107 s)",
    )
    compare_result("pcc_compile", table)

    # The explicit paper-scale model must be in the terabytes (§IV).
    assert explicit_paper > 1e12
    # The compact description stays around kilobytes regardless of scale.
    assert compact < 10 * 2**20
