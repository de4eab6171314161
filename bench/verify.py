"""Output checks run inside every workload.

A host-clock number only means something if the program still computes
the same thing, so every run checks two properties:

* **layout invariance** — 30 recorded ticks (more, in steps of 30, while
  the network is still silent) on the workload's own backend and rank
  layout give the same spike digest as a 1-rank ``sequential`` run of the
  same network (:func:`check_layout`);
* **round identity** — every round of a workload replays the same seeded
  inputs, so the per-tick counter digest (``sim_digest``), or for
  ``serve_zipf`` the fleet report and routing digest, must be identical
  across rounds (:func:`check_rounds`).

Any mismatch marks all of that workload's operations failed.  The digests
are printed, so two commits can be compared exactly.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

VERIFY_TICKS = 30
#: A network that has not spiked yet proves nothing: keep going, this many
#: times at most (the macaque model stays silent for its first ~50 ticks).
MAX_VERIFY_CHUNKS = 4

#: Per-tick counters folded into ``sim_digest``.
SIM_FIELDS = (
    "fired",
    "active_axons",
    "local_spikes",
    "remote_spikes",
    "messages",
    "bytes_sent",
)


def spike_digest(recorder: Any) -> str:
    """sha256 over the canonically sorted (tick, gid, neuron) spike trace."""
    h = hashlib.sha256()
    for arr in recorder.to_arrays():
        h.update(arr.tobytes())
    return h.hexdigest()


def sim_digest(per_tick: Iterable[Any]) -> str:
    """sha256 over each tick's :data:`SIM_FIELDS`."""
    h = hashlib.sha256()
    for tm in per_tick:
        h.update(repr(tuple(int(getattr(tm, f)) for f in SIM_FIELDS)).encode())
    return h.hexdigest()


def check_layout(
    network: Any, backend: str, ranks: int, ticks: int = VERIFY_TICKS, **adapter_kw: Any
) -> dict[str, Any]:
    """Spike digest on (backend, ranks) vs 1-rank sequential."""
    from repro.exec import ExecLayout, make_adapter
    from repro.obs import Observability

    digests = []
    for name, n_ranks, kw in ((backend, ranks, adapter_kw), ("sequential", 1, {})):
        adapter = make_adapter(name, obs=Observability.off(), **kw)
        try:
            adapter.prepare(network, ExecLayout(n_processes=n_ranks, record_spikes=True))
            for _ in range(MAX_VERIFY_CHUNKS):
                spikes = adapter.run(ticks).spikes
                if spikes.to_arrays()[0].size:
                    break
            digests.append(spike_digest(spikes))
        finally:
            adapter.teardown()
    return {
        "ok": digests[0] == digests[1],
        "spike_digest": digests[0],
        "reference_digest": digests[1],
    }


def check_rounds(rounds: list[dict[str, Any]]) -> list[str]:
    """Reasons the rounds of one workload disagree (empty when identical)."""
    problems = []
    first = rounds[0]
    for key in ("sim_digest", "fleet_report", "routing_digest", "counts"):
        if any(r.get(key) != first.get(key) for r in rounds[1:]):
            problems.append(f"{key} differs between rounds")
    for r in rounds:
        if "offered" in r and r["completed"] + r["rejected"] != r["offered"]:
            problems.append(
                f"serve accounting: completed {r['completed']} + rejected "
                f"{r['rejected']} != offered {r['offered']}"
            )
    return problems
