"""Simulated parallel machine substrate.

The paper runs Compass on IBM Blue Gene/Q (functional + scaling study) and
Blue Gene/P (PGAS vs MPI study).  Neither machine — nor MPI itself — is
available here, so this package provides a deterministic *virtual cluster*:

* :mod:`repro.runtime.machine` — machine descriptions (BG/Q, BG/P racks,
  nodes, CPUs, memory, torus links) and their calibrated cost constants;
* :mod:`repro.runtime.torus` — the 5-D/3-D torus topology whose hop
  counts region placement weighs;
* :mod:`repro.runtime.mpi` — two-sided message passing with the
  primitives of Listing 1 (``MPI_Isend``, ``MPI_Reduce_scatter``,
  ``MPI_Iprobe``/``MPI_Recv``), a tick's messages travelling as rows;
* :mod:`repro.runtime.pgas` — one-sided puts into globally addressable
  windows plus a global barrier (the UPC/GASNet model of §VII);
* :mod:`repro.runtime.threads` — the OpenMP-style intra-process thread
  timing model (Amdahl + critical-section serialisation);
* :mod:`repro.runtime.timing` — the per-phase cost model that converts
  event counts into simulated wall-clock time.

Functional behaviour is exact; time is modelled.  The split keeps the
simulator's *results* independent of the cost constants.
"""

from repro.runtime.machine import (
    MachineSpec,
    MachineConfig,
    BLUE_GENE_Q,
    BLUE_GENE_P,
)
from repro.runtime.torus import TorusTopology
from repro.runtime.mpi import VirtualMpiCluster, MpiEndpoint
from repro.runtime.pgas import PgasCluster, PgasEndpoint
from repro.runtime.timing import CostModel
from repro.runtime.threads import effective_threads, amdahl_speedup

__all__ = [
    "MachineSpec",
    "MachineConfig",
    "BLUE_GENE_Q",
    "BLUE_GENE_P",
    "TorusTopology",
    "VirtualMpiCluster",
    "MpiEndpoint",
    "PgasCluster",
    "PgasEndpoint",
    "CostModel",
    "effective_threads",
    "amdahl_speedup",
]
