"""The macaque kernel's spikes, pinned past the onset.

A small macaque (128 cores, seed 11, one rank) run for 200 ticks crosses
its onset near tick 80 and fires ~200-700 neurons a tick after it.  Its
neurons take the kernel's macaque shape: unit weights, a stochastic leak,
the ZERO reset and a threshold plane.  The exchange goldens compare a
scatter network, and the layout digests compare layouts with each other,
so a change to the Synapse or Neuron phase that moved every layout alike
would pass both; these two digests would not.
"""

import dataclasses
import hashlib

from repro.cocomac.model import build_macaque_model
from repro.core.config import CompassConfig
from repro.core.simulator import Compass
from repro.resilience import spike_digest

SPIKE_DIGEST = "03cb141449143bb9351f6f0b4325f8fcb2291d3a8527e5d9aa508997574a0957"
#: sha256 over ``repr(astuple(tm))`` of every tick's record, in tick order.
RECORD_DIGEST = "22dd390686b8d392853d4c8a3cf6abb8bde897b294dee9321fa9aecc00b3985a"
TOTAL_FIRED = 32798


def test_macaque_spikes_past_the_onset_are_pinned():
    network = build_macaque_model(total_cores=128, seed=11).compiled.network
    sim = Compass(network, CompassConfig(n_processes=1, record_spikes=True))
    result = sim.run(200)
    records = hashlib.sha256()
    for tm in sim.metrics.per_tick:
        records.update(repr(dataclasses.astuple(tm)).encode())
    assert sum(tm.fired for tm in sim.metrics.per_tick) == TOTAL_FIRED
    assert spike_digest(result.spikes) == SPIKE_DIGEST
    assert records.hexdigest() == RECORD_DIGEST
