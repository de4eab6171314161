"""Adapters over the in-process sequential backends.

:class:`SequentialAdapter` drives the two-sided :class:`Compass`
simulator, :class:`PgasAdapter` the one-sided :class:`PgasCompass`.
Both are thin: the wrapped simulator already owns the full lifecycle,
so all that is left to say here is which simulator to build and that
its checkpoints are plain in-memory state copies.
"""

from __future__ import annotations

from typing import Any

from repro.core import checkpoint as ckpt
from repro.core.pgas_simulator import PgasCompass
from repro.core.simulator import Compass, CompassBase
from repro.exec.adapter import ExecLayout, SimulatorAdapter, register_backend
from repro.obs import Observability


class SequentialAdapter(SimulatorAdapter):
    """Adapter over the MPI-style sequential backend (:class:`Compass`)."""

    backend = "sequential"
    supports_simulated_faults = True
    _sim_cls: type = Compass

    def __init__(self, obs: Observability | None = None) -> None:
        self._obs_arg = obs

    @classmethod
    def wrap(cls, sim: CompassBase) -> "SequentialAdapter":
        """Adopt an already-built simulator instance."""
        adapter = cls()
        adapter._adopt(sim)
        return adapter

    def prepare(self, network: Any, layout: ExecLayout) -> "SequentialAdapter":
        self._adopt(
            self._sim_cls(
                network,
                layout.compass_config(),
                partition=layout.partition,
                sanitize=layout.sanitize,
                obs=self._obs_arg,
            )
        )
        return self

    def step(self) -> Any:
        return self._sim.step()

    def capture(self) -> dict[str, Any]:
        return ckpt.capture_state(self._sim)

    def restore(self, state: dict[str, Any]) -> None:
        ckpt.restore_state(self._sim, state)

    def state_nbytes(self) -> int:
        return ckpt.state_nbytes(self._sim)

    @property
    def sim(self) -> CompassBase:
        """The wrapped simulator, for what the contract does not carry
        (``ranks``, ``race_report()``, ``profile_report``)."""
        return self._sim


class PgasAdapter(SequentialAdapter):
    """Adapter over the one-sided PGAS backend (:class:`PgasCompass`)."""

    backend = "pgas"
    supports_simulated_faults = False
    _sim_cls = PgasCompass


register_backend(
    "sequential", SequentialAdapter, "in-process MPI-style reference backend"
)
register_backend("mpi", SequentialAdapter, "alias of sequential")
register_backend("pgas", PgasAdapter, "in-process one-sided (PGAS) backend")
