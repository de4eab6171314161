"""The headline scale claim (§I / §VI-B).

"Compass simulated an unprecedented 256M TrueNorth cores containing 65B
neurons and 16T synapses ... At an average neuron spiking rate of 8.1 Hz
the simulation is only 388× slower than real time."  (The synapse count is
the number of *physical* crossbar synapses — 256M × 256 × 256 ≈ 16.8T —
not the number of programmed connections.)
"""

from __future__ import annotations

from repro.arch.params import NUM_AXONS, NUM_NEURONS
from repro.perf.power import blue_gene_power_watts, truenorth_power_watts
from repro.perf.report import paper_vs_model
from repro.perf.weak_scaling import weak_scaling_point
from repro.runtime.machine import BLUE_GENE_Q

#: The largest weak-scaling configuration in the paper.
HEADLINE_NODES = 16384
HEADLINE_CORES_PER_NODE = 16384

#: The paper's reported values, for side-by-side reporting.
PAPER = {
    "cores": 256e6,
    "neurons": 65e9,
    "synapses": 16e12,
    "mean_rate_hz": 8.1,
    "slowdown": 388.0,
    "spikes_per_tick": 22e6,
    "gb_per_tick": 0.44,
}


def headline_summary(seed: int = 0) -> dict[str, dict[str, float]]:
    """Model the paper's largest run; return paper-vs-model values."""
    point = weak_scaling_point(
        nodes=HEADLINE_NODES,
        cores_per_node=HEADLINE_CORES_PER_NODE,
        machine=BLUE_GENE_Q,
        seed=seed,
    )
    model = {
        "cores": float(point.cores),
        "neurons": float(point.neurons),
        "synapses": float(point.cores) * NUM_AXONS * NUM_NEURONS,
        "mean_rate_hz": point.mean_rate_hz,
        "slowdown": point.slowdown,
        "spikes_per_tick": point.spikes_per_tick,
        "gb_per_tick": point.bytes_per_tick / 1e9,
    }
    return {"paper": dict(PAPER), "model": model}


def headline_table(summary: dict[str, dict[str, float]] | None = None) -> str:
    """The headline scale table plus the §I use-case (e) power estimate."""
    summary = summary or headline_summary()
    tn = truenorth_power_watts(int(summary["model"]["cores"]), PAPER["mean_rate_hz"])
    bg = blue_gene_power_watts(HEADLINE_NODES / BLUE_GENE_Q.nodes_per_rack)
    return (
        "Headline (256M-core run)\n"
        + paper_vs_model(summary["paper"], summary["model"])
        + f"\n\npower estimate: TrueNorth {tn/1e3:.1f} kW vs "
        f"Blue Gene/Q simulator {bg/1e3:.0f} kW "
        f"({bg/tn:.0f}x) — the architecture's motivation"
    )
