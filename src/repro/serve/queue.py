"""Admission control and weighted fair-share scheduling for the service.

Admission is a two-gate check at submission time: a bounded global queue
(:class:`repro.errors.QueueFullError` on overflow) and a per-tenant
in-queue quota (:class:`repro.errors.TenantQuotaError`).  Rejections are
typed so load generators and the CLI can account for them separately.

Scheduling is start-time fair queuing (SFQ) layered under strict
priority.  Each tenant carries a virtual finish time; a job's virtual
start is ``max(global_vtime, tenant_vfinish)`` and its virtual finish
adds ``demand / weight``.  The ready order is::

    (priority, virtual_finish, seq)

with ``seq`` a monotonically increasing submission counter — the
explicit tie-break that makes the schedule fully deterministic: equal
priority and equal virtual finish always resolve by submission order,
never by hash order or heap internals (rule DET108).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import QueueFullError, TenantQuotaError
from repro.serve.jobs import Job
from repro.util.validation import check_positive

#: Heap entry layout: (priority, virtual_finish, seq, job).
_ENTRY_JOB = 3


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits and fair-share weight.

    ``weight`` scales the tenant's share of service capacity (2.0 drains
    twice as fast as 1.0 under contention); ``max_queued`` bounds how
    many of the tenant's jobs may wait in the queue at once.
    """

    weight: float = 1.0
    max_queued: int = 64

    def __post_init__(self) -> None:
        check_positive("weight", self.weight)
        check_positive("max_queued", self.max_queued)


class FairShareQueue:
    """Bounded, quota-enforcing, deterministic fair-share job queue."""

    def __init__(
        self,
        capacity: int = 256,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
    ) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self._quotas = dict(quotas) if quotas else {}
        self._default_quota = default_quota or TenantQuota()
        # Entries are (priority, vfinish, seq, job) tuples; seq is the
        # monotonic tie-break that pins the pop order (DET108).
        self._heap: list[tuple[int, float, int, Job]] = []
        self._seq = 0
        self._vtime = 0.0
        self._tenant_vfinish: dict[str, float] = {}
        self._queued_by_tenant: dict[str, int] = {}

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing ``tenant`` (explicit or default)."""
        return self._quotas.get(tenant, self._default_quota)

    def __len__(self) -> int:
        return len(self._heap)

    def submit(self, job: Job) -> None:
        """Admit ``job`` or raise a typed :class:`AdmissionError`.

        On rejection the queue state is untouched — virtual time does
        not advance for jobs that were never admitted.
        """
        tenant = job.spec.tenant
        if len(self._heap) >= self.capacity:
            raise QueueFullError(
                f"queue full: capacity={self.capacity}, cannot admit "
                f"job {job.job_id} (tenant {tenant!r})"
            )
        quota = self.quota_for(tenant)
        queued = self._queued_by_tenant.get(tenant, 0)
        if queued >= quota.max_queued:
            raise TenantQuotaError(
                f"tenant {tenant!r} quota exceeded: "
                f"{queued}/{quota.max_queued} jobs already queued"
            )
        vstart = max(self._vtime, self._tenant_vfinish.get(tenant, 0.0))
        vfinish = vstart + job.spec.demand() / quota.weight
        self._tenant_vfinish[tenant] = vfinish
        self._queued_by_tenant[tenant] = queued + 1
        heapq.heappush(
            self._heap, (job.spec.priority, vfinish, self._seq, job)
        )
        self._seq += 1

    def peek(self) -> Job | None:
        """The job that :meth:`pop` would return, or ``None`` if empty."""
        if not self._heap:
            return None
        return self._heap[0][_ENTRY_JOB]

    def pop(self) -> Job:
        """Remove and return the highest-ranked job, advancing vtime."""
        priority, vfinish, seq, job = heapq.heappop(self._heap)
        del priority, seq
        self._vtime = max(self._vtime, vfinish)
        tenant = job.spec.tenant
        self._queued_by_tenant[tenant] -= 1
        if self._queued_by_tenant[tenant] == 0:
            del self._queued_by_tenant[tenant]
        return job

    def count_compatible(self, key: tuple[str, int, int]) -> int:
        """How many queued jobs share batch key ``key``."""
        return sum(
            1 for entry in self._heap if entry[_ENTRY_JOB].spec.batch_key == key
        )

    def pop_compatible(self, key: tuple[str, int, int], limit: int) -> list[Job]:
        """Pop up to ``limit`` jobs with batch key ``key``, in fair order.

        Jobs with other keys are skipped and re-inserted with their
        original (priority, vfinish, seq) entries, so their relative
        order — and the determinism guarantee — is unchanged.
        """
        check_positive("limit", limit)
        taken: list[Job] = []
        skipped: list[tuple[int, float, int, Job]] = []
        while self._heap and len(taken) < limit:
            entry = heapq.heappop(self._heap)
            job = entry[_ENTRY_JOB]
            if job.spec.batch_key == key:
                self._vtime = max(self._vtime, entry[1])
                tenant = job.spec.tenant
                self._queued_by_tenant[tenant] -= 1
                if self._queued_by_tenant[tenant] == 0:
                    del self._queued_by_tenant[tenant]
                taken.append(job)
            else:
                skipped.append(entry)
        for entry in skipped:
            # repro: allow[DET108] entries keep their (priority, vfinish, seq, job) tuples
            heapq.heappush(self._heap, entry)
        return taken
