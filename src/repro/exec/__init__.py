"""repro.exec — the unified execution backend layer.

One adapter contract (:class:`SimulatorAdapter`) over every backend:
the sequential MPI-style simulator, the one-sided PGAS simulator, and
the host-parallel process pool that runs simulated ranks on actual
cores with shared-memory spike windows.  See docs/execution.md.

    from repro.core.config import CompassConfig
    from repro.exec import make_adapter

    adapter = make_adapter("pool", workers=4)
    result = adapter.prepare(network, CompassConfig(n_processes=8)).run(100)
    adapter.teardown()
"""

from repro.core.config import CompassConfig
from repro.exec.adapter import (
    SetupCostModel,
    SimulatorAdapter,
    as_adapter,
    backend_names,
    backend_notes,
    make_adapter,
)
from repro.exec.pool import PoolCluster, ProcessPoolAdapter
from repro.exec.sequential import PgasAdapter, SequentialAdapter
from repro.exec.windows import SpikeWindow
from repro.exec.worker import CRASH_EXIT_CODE, WorkerSpec

#: The former name of the adapter's run configuration; the benchmark
#: harness still imports it.
ExecLayout = CompassConfig

__all__ = [
    "CRASH_EXIT_CODE",
    "ExecLayout",
    "PgasAdapter",
    "PoolCluster",
    "ProcessPoolAdapter",
    "SequentialAdapter",
    "SetupCostModel",
    "SimulatorAdapter",
    "SpikeWindow",
    "WorkerSpec",
    "as_adapter",
    "backend_names",
    "backend_notes",
    "make_adapter",
]
