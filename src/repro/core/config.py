"""Run configuration for the Compass simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class CompassConfig:
    """Everything about *how* to run (the model itself says *what* to run).

    Attributes
    ----------
    n_processes:
        Number of simulated MPI ranks the model is partitioned across.
    threads_per_process:
        OpenMP team size per rank.  The functional result never depends on
        it; it feeds the per-thread trace slices and the race detector.
    record_spikes:
        Record every (tick, gid, neuron) firing — needed for rasters and
        the partition-invariance regression tests; costs memory.
    """

    n_processes: int = 1
    threads_per_process: int = 1
    record_spikes: bool = False

    def __post_init__(self) -> None:
        check_positive("n_processes", self.n_processes)
        check_positive("threads_per_process", self.threads_per_process)
