"""Batch formation: group compatible jobs into one virtual-cluster launch.

Building a network, compiling it, and setting up the virtual cluster is
the expensive part of serving a simulation job (``SETUP_US`` in
:mod:`repro.serve.server` dwarfs per-tick cost for short jobs).  Jobs that simulate the same
network — same :attr:`JobSpec.batch_key` — can share one launch: the
batch runs to its longest member's tick budget and each job completes at
its own, so the setup cost is paid once and amortised across the batch.

The batcher trades latency for goodput with two knobs:

``max_batch_size``
    Launch as soon as this many compatible jobs are waiting.
``max_batch_delay_us``
    Otherwise, hold the queue head at most this long (simulated time)
    waiting for companions before launching whatever is compatible.

With ``max_batch_delay_us=0`` batching is effectively disabled: every
launch takes whatever is compatible *right now*, which under light load
is a single job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.jobs import Job
from repro.serve.queue import FairShareQueue
from repro.util.validation import check_positive, check_range


@dataclass
class Batch:
    """A group of batch-compatible jobs sharing one launch."""

    key: tuple[str, int, int]
    jobs: list[Job] = field(default_factory=list)
    launch_us: float = 0.0

    @property
    def size(self) -> int:
        return len(self.jobs)

    @property
    def max_ticks(self) -> int:
        """The batch runs until its longest member's budget is done."""
        return max(job.spec.ticks for job in self.jobs)


@dataclass(frozen=True)
class BatchPolicy:
    """Batch-formation knobs (validated)."""

    max_batch_size: int = 8
    max_batch_delay_us: float = 0.0

    def __post_init__(self) -> None:
        check_positive("max_batch_size", self.max_batch_size)
        check_range("max_batch_delay_us", self.max_batch_delay_us, lo=0.0)


class Batcher:
    """Decides when the queue head should launch and forms its batch."""

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()

    def ready_at(self, queue: FairShareQueue, now_us: float) -> float | None:
        """When should the current queue head launch?

        Returns ``None`` if the queue is empty, ``now_us`` if the head
        should launch immediately (full batch available, or its delay
        budget is spent), or the future simulated instant at which the
        head's delay budget runs out — the caller schedules a flush
        event there.
        """
        head = queue.peek()
        if head is None:
            return None
        if queue.count_compatible(head.spec.batch_key) >= self.policy.max_batch_size:
            return now_us
        deadline = head.submit_us + self.policy.max_batch_delay_us
        if deadline <= now_us:
            return now_us
        return deadline

    def form(self, queue: FairShareQueue, now_us: float) -> Batch | None:
        """Pop the head's batch from the queue (up to ``max_batch_size``)."""
        head = queue.peek()
        if head is None:
            return None
        key = head.spec.batch_key
        jobs = queue.pop_compatible(key, self.policy.max_batch_size)
        if not jobs:
            return None
        return Batch(key=key, jobs=jobs, launch_us=now_us)
