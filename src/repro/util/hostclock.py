"""The single sanctioned host-clock accessor (HOST-ONLY).

Simulated-timeline code must never consult the host clock: failure
detection, recovery backoff, scheduling, and SLO accounting all advance
on simulated time (rules DET101/DET106).  The one legitimate use of the
host clock is *measurement* — reporting how many host seconds a phase of
the virtual cluster cost — and every such read goes through
:func:`host_perf_counter` so the intent is explicit and grep-able.

Importing this module from code that feeds rank-visible *state* is a
design error even though the lint engine cannot prove it; the marker in
the function name is the contract.
"""

from __future__ import annotations

import time


def host_perf_counter() -> float:
    """Monotonic host seconds — for host-cost *measurement* only.

    The returned value must never influence simulated behaviour: no
    branching on it, no feeding it into simulated timers, schedules, or
    deadlines.  It exists solely so ``RunMetrics.host`` can report what
    the simulation cost the machine it ran on.
    """
    return time.perf_counter()
