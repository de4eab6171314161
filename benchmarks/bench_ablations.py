"""Ablations of the design choices DESIGN.md calls out (§5).

Each ablation removes one Compass design decision and quantifies the cost
through the same calibrated model used for the figures:

* spike aggregation (one message per process pair) vs per-spike sends;
* overlapping local delivery with the Reduce-Scatter vs serialising them;
* bit-packed crossbars vs C2-style per-synapse structures (storage and
  memory-boundedness);
* diffuse vs focused long-range targeting (§V-B).
"""

import numpy as np

from repro.cocomac.model import build_macaque_coreobject
from repro.perf.costmodel import phase_times_mpi
from repro.perf.report import format_table
from repro.perf.traffic import PER_CORE_STATE_BYTES, CocomacTraffic
from repro.runtime.machine import BLUE_GENE_Q, MachineConfig

NODES = 4096
CORES_PER_NODE = 16384


def _model():
    return build_macaque_coreobject(NODES * CORES_PER_NODE, seed=0)


def test_ablation_spike_aggregation(compare_result):
    model = _model()
    mc = MachineConfig(BLUE_GENE_Q, nodes=NODES, threads_per_proc=32)

    aggregated = CocomacTraffic(model, aggregate=True).summary(NODES)
    per_spike = CocomacTraffic(model, aggregate=False).summary(NODES)

    t_agg = phase_times_mpi(aggregated, mc)
    t_per = phase_times_mpi(per_spike, mc)
    rows = [
        ("aggregated (Compass)", f"{aggregated.messages/1e6:.2f}M", round(t_agg.network * 1e3, 1)),
        ("per-spike sends", f"{per_spike.messages/1e6:.2f}M", round(t_per.network * 1e3, 1)),
        ("slowdown without aggregation", "", f"{t_per.network / t_agg.network:.1f}x"),
    ]
    compare_result(
        "ablation_aggregation",
        format_table(
            ["variant", "msgs/tick", "network ms/tick"],
            rows,
            title="ablation: spike aggregation (§III)",
        ),
    )
    assert t_per.network > t_agg.network


def test_ablation_overlap(compare_result):
    model = _model()
    mc = MachineConfig(BLUE_GENE_Q, nodes=NODES, threads_per_proc=32)
    ts = CocomacTraffic(model).summary(NODES)
    t_overlap = phase_times_mpi(ts, mc, overlap=True)
    t_serial = phase_times_mpi(ts, mc, overlap=False)
    rows = [
        ("overlapped (Compass)", round(t_overlap.network * 1e3, 2)),
        ("serialised", round(t_serial.network * 1e3, 2)),
        ("penalty", f"{t_serial.network / t_overlap.network:.2f}x"),
    ]
    compare_result(
        "ablation_overlap",
        format_table(
            ["variant", "network ms/tick"],
            rows,
            title="ablation: overlap local delivery with Reduce-Scatter (§III)",
        ),
    )
    assert t_serial.network >= t_overlap.network


def test_ablation_crossbar_packing(compare_result):
    """§I: bit-packed synapses are 32x smaller than C2's struct; the
    working-set reduction also changes memory-boundedness."""
    packed_bytes = 256 * 32  # 256 axons x 32 packed bytes
    c2_bytes = 256 * 256 * 4  # one 4-byte struct per synapse
    cost = BLUE_GENE_Q.cost

    ws_packed = CORES_PER_NODE * PER_CORE_STATE_BYTES
    ws_c2 = ws_packed + CORES_PER_NODE * (c2_bytes - packed_bytes)
    rows = [
        ("crossbar bytes/core (packed)", packed_bytes),
        ("crossbar bytes/core (C2 struct)", c2_bytes),
        ("storage ratio", f"{c2_bytes / packed_bytes:.0f}x"),
        ("node working set (packed)", f"{ws_packed / 2**30:.1f} GiB"),
        ("node working set (C2-style)", f"{ws_c2 / 2**30:.1f} GiB"),
        ("memory cost factor (packed)", round(cost.memory_factor(ws_packed), 2)),
        ("memory cost factor (C2-style)", round(cost.memory_factor(ws_c2), 2)),
    ]
    compare_result(
        "ablation_crossbar_packing",
        format_table(
            ["quantity", "value"],
            rows,
            title="ablation: bit-packed crossbar vs C2 per-synapse struct (§I)",
        ),
    )
    assert c2_bytes / packed_bytes == 32
    # C2-style storage at 16384 cores/node would exceed BG/Q node memory.
    assert ws_c2 > BLUE_GENE_Q.memory_per_node / 4


def test_extension_topology_aware_placement(compare_result):
    """Extension beyond the paper: would topology-aware region placement
    reduce white-matter byte-hops on the 5-D torus?  (The paper places
    regions in database order.)"""
    from repro.compiler.placement import placement_improvement

    model = _model()
    flow = model.connection_counts.astype(float)
    np.fill_diagonal(flow, 0.0)
    procs = np.maximum(model.cores.astype(float) / model.cores.sum() * NODES, 1)
    default, optimised = placement_improvement(flow, procs, n_nodes=NODES)
    rows = [
        ("database order (paper)", f"{default.mean_hops:.2f}",
         f"{default.byte_hops:.3g}"),
        ("traffic-affinity order", f"{optimised.mean_hops:.2f}",
         f"{optimised.byte_hops:.3g}"),
        ("byte-hop reduction", "",
         f"{(1 - optimised.byte_hops / default.byte_hops):.1%}"),
    ]
    compare_result(
        "extension_placement",
        format_table(
            ["region placement", "mean hops", "byte-hops/tick"],
            rows,
            title="extension: topology-aware region placement on the torus",
        ),
    )
    assert optimised.byte_hops <= default.byte_hops * 1.02


def test_ablation_diffuse_targeting(compare_result):
    """§V-B: diffuse connections maximise the communication burden; the
    focused alternative concentrates each region pair onto single links."""
    model = _model()
    diffuse = CocomacTraffic(model, diffuse=True).summary(NODES)
    focused = CocomacTraffic(model, diffuse=False).summary(NODES)
    mc = MachineConfig(BLUE_GENE_Q, nodes=NODES, threads_per_proc=32)
    t_diffuse = phase_times_mpi(diffuse, mc)
    t_focused = phase_times_mpi(focused, mc)
    rows = [
        ("diffuse (paper's choice)", f"{diffuse.messages/1e6:.2f}M",
         round(t_diffuse.network * 1e3, 1)),
        ("focused", f"{focused.messages/1e6:.2f}M",
         round(t_focused.network * 1e3, 1)),
    ]
    compare_result(
        "ablation_diffuse_targeting",
        format_table(
            ["variant", "msgs/tick", "network ms/tick"],
            rows,
            title="ablation: diffuse vs focused long-range targeting (§V-B) — "
            "diffuse stresses the interconnect harder by design",
        ),
    )
    assert focused.messages < diffuse.messages
    assert np.isfinite(t_focused.network)
