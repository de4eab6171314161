"""A pool script with no ``__main__`` guard, run by the test
suite and by CI:

    python tests/unit/pool_without_main_guard.py

Each spawned worker re-runs this file and dies in bootstrap when it tries
to start workers of its own.  ``prepare`` must then raise the pool's
typed error naming ``startup``, not wait forever.  The network's
crossbars alone exceed 1 MiB, more than a pipe buffers, so a model sent as
a spawn argument would block the parent on a child that never reads it.
"""

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.exec import make_adapter

network = build_quickstart_network(n_cores=192, seed=3)
assert network.crossbars.nbytes > 2**20
make_adapter("pool", workers=2).prepare(network, CompassConfig(n_processes=4))
