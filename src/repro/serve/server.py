"""The simulation service: a deterministic worker pool on a virtual clock.

:class:`SimServer` is a discrete-event loop over one simulated timeline
(microseconds).  Jobs arrive, pass admission control
(:class:`~repro.serve.queue.FairShareQueue`), wait for a compatible
batch (:class:`~repro.serve.batcher.Batcher`), and run on one of a pool
of virtual-cluster workers.  Every latency the service reports is the
sum of simulated costs — queue wait, batch-formation delay, setup, and
execution — so a seeded run produces byte-identical reports on any
machine, at any host load, across repeated runs.

Execution cost is charged from *partition-invariant* quantities only:
the tick count and the per-tick fired-spike counts of the underlying
Compass run (identical across 1-rank and 4-rank layouts by the §IV
partition-invariance property).  The worker-pool width in
:class:`ServeConfig` therefore changes throughput and queueing, but a
given job's run cost never depends on the process layout — which is
what makes latency reports reproducible across layouts.

Faulted jobs: when a :class:`~repro.resilience.faults.FaultSchedule` is
armed, the first launched batch runs under
:class:`~repro.resilience.recovery.ResilientRunner` (MPI backend only);
the simulated recovery overhead is charged to every job in that batch
and surfaces as ``retries`` in the report.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.apps import quicknet
from repro.arch.network import CoreNetwork
from repro.cocomac import model as macaque
from repro.compiler.diskmodel import read_model_file
from repro.compiler.pcc import ParallelCompassCompiler
from repro.core.config import CompassConfig
from repro.core.partition import Partition
from repro.errors import AdmissionError, ConfigurationError
from repro.exec import SetupCostModel, make_adapter
from repro.obs import Observability
from repro.obs.live.context import TraceContext
from repro.serve.batcher import Batch, Batcher, BatchPolicy
from repro.serve.jobs import (
    DONE,
    REJECTED,
    RUNNING,
    BatchRecord,
    Job,
    JobSpec,
)
from repro.serve.queue import FairShareQueue, TenantQuota
from repro.util.validation import check_positive, check_range, require

#: Service backends: the two in-process execution backends (``repro.exec``).
BACKENDS = ("mpi", "pgas")

#: Simulated cost of serving one batch: ``setup_us`` is the per-batch
#: virtual-cluster setup (network build, compile, partition, buffer
#: registration) — the cost batching exists to amortise; ``tick_us`` and
#: ``spike_us`` charge execution from the two partition-invariant run
#: quantities.
COSTS = SetupCostModel()

# Event kinds, in tie-break order at equal timestamps: arrivals first,
# then batch-delay flushes, then job completions, then worker releases.
_ARRIVAL = 0
_FLUSH = 1
_JOB_DONE = 2
_WORKER_FREE = 3

#: Ticks of fired counts one server's run memo may remember (8 B a tick:
#: 512 KB).  In ticks, not entries: a client chooses ``JobSpec.ticks``.
RUN_MEMO_TICKS = 1 << 16


def load_network(
    model: str, cores: int, seed: int, obs: Observability | None = None
) -> CoreNetwork:
    """The one ``(model, cores, seed[, obs]) → CoreNetwork``.

    ``model`` is a kind from :data:`~repro.serve.jobs.MODELS` or the path
    of an explicit model file (which carries its own size and seed).  The
    macaque model compiles under ``obs``, so a traced run shows its
    compile.  Builders are looked up on their modules at call time, so a
    wrapper installed there (the benchmark's spans) sees every call.
    """
    if model == "quickstart":
        return quicknet.build_quickstart_network(n_cores=cores, seed=seed)
    if model == "macaque":
        described = macaque.build_macaque_coreobject(total_cores=cores, seed=seed)
        return ParallelCompassCompiler(obs=obs).compile(described.coreobject).network
    return read_model_file(model)


@lru_cache(maxsize=8)
def build_network(model: str, cores: int, seed: int) -> CoreNetwork:
    """Build (and memoise) the network for a batch key.

    Networks are read-only to the simulators, so compatible batches —
    and repeated benches in one process — share one build.  The cache is
    keyed by the full batch key, which is exactly the compatibility
    predicate.
    """
    return load_network(model, cores, seed)


@dataclass(frozen=True)
class ServeConfig:
    """Validated service configuration."""

    workers: int = 2
    processes: int = 1
    backend: str = "mpi"
    max_batch_size: int = 8
    max_batch_delay_us: float = 0.0
    queue_capacity: int = 256
    quotas: tuple[tuple[str, TenantQuota], ...] = ()
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: When set, the first launched batch runs under ResilientRunner.
    fault_schedule: object | None = None
    checkpoint_interval: int = 10
    #: Retain per-job/per-batch records for post-hoc reports.  Fleet-scale
    #: runs (:mod:`repro.shard`) disable this and account for completions
    #: in hooks instead, keeping memory O(latencies), not O(job objects).
    keep_records: bool = True

    def __post_init__(self) -> None:
        check_positive("workers", self.workers)
        check_positive("processes", self.processes)
        require(
            self.backend in BACKENDS,
            f"backend={self.backend!r} not one of {BACKENDS}",
        )
        check_positive("queue_capacity", self.queue_capacity)
        check_positive("max_batch_size", self.max_batch_size)
        check_range("max_batch_delay_us", self.max_batch_delay_us, lo=0.0)
        check_positive("checkpoint_interval", self.checkpoint_interval)
        require(
            self.fault_schedule is None or self.backend == "mpi",
            "fault injection requires the mpi backend "
            "(recovery hooks live in the two-sided virtual cluster)",
        )


class SimServer:
    """Deterministic multi-tenant simulation service on a simulated clock."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        obs: Observability | None = None,
        rank: int = -1,
    ) -> None:
        self.config = config or ServeConfig()
        self.obs = obs or Observability.off()
        #: Trace-track identity: -1 = the cluster track (standalone
        #: service); the shard router assigns each shard's server its
        #: shard index so fleet traces get one row per shard.
        self.trace_rank = rank
        self.queue = FairShareQueue(
            capacity=self.config.queue_capacity,
            quotas=dict(self.config.quotas),
            default_quota=self.config.default_quota,
        )
        self.batcher = Batcher(
            BatchPolicy(
                max_batch_size=self.config.max_batch_size,
                max_batch_delay_us=self.config.max_batch_delay_us,
            )
        )
        self.jobs: dict[int, Job] = {}
        self.batches: list[BatchRecord] = []
        self._events: list[tuple[float, int, int, object]] = []
        self._event_seq = 0
        self._job_seq = 0
        self._batch_seq = 0
        # Free workers as a sorted id list: launches always take the
        # lowest-numbered free worker (explicit deterministic order).
        self._free_workers: list[int] = list(range(self.config.workers))
        #: Live pool width; moves with add_worker/remove_worker.
        self.workers = self.config.workers
        self._next_worker_id = self.config.workers
        self._hooks: list[Callable[[Job], None]] = []
        self._fault_pending = self.config.fault_schedule is not None
        # batch key -> cumulative fired counts of its longest run so far (a
        # prefix of any longer one: runs are deterministic); LRU, tick-bounded.
        self._run_memo: OrderedDict[tuple[str, int, int], np.ndarray] = OrderedDict()
        self._memo_ticks = 0
        self._tenant_ids: dict[str, int] = {}
        self.now_us = 0.0
        # Aggregate counters kept regardless of keep_records, so fleet
        # reports don't need the per-batch record list.
        self.n_batches = 0
        self.batch_jobs_total = 0
        self.retries_total = 0
        #: Largest simulator state footprint observed across launched
        #: batches (bytes), from :func:`repro.core.checkpoint.state_nbytes`.
        self.peak_state_nbytes = 0
        reg = self.obs.registry
        self._g_depth = reg.gauge("serve_queue_depth", help="jobs waiting in queue")
        self._h_batch = reg.histogram(
            "serve_batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            help="jobs per launched batch",
        )
        self._h_latency = reg.histogram(
            "serve_job_latency_us",
            buckets=(1e3, 1e4, 1e5, 1e6, 1e7, 1e8),
            help="submit-to-complete latency (simulated)",
            unit="us",
        )
        self._m_submitted = reg.counter(
            "serve_jobs_submitted_total", help="jobs submitted, keyed by tenant id"
        )
        self._m_completed = reg.counter(
            "serve_jobs_completed_total", help="jobs completed, keyed by tenant id"
        )
        self._m_rejected = reg.counter(
            "serve_jobs_rejected_total", help="admission rejections, keyed by tenant id"
        )
        self._m_miss = reg.counter(
            "serve_deadline_miss_total", help="SLO deadline misses, keyed by tenant id"
        )
        self._m_batches = reg.counter("serve_batches_total", help="batches launched")
        self._m_retries = reg.counter(
            "serve_retries_total", help="fault-recovery retries across batches"
        )
        self._m_memo_hits = reg.counter(
            "serve_run_memo_hits_total", help="batches served from a remembered run"
        )
        self._m_memo_misses = reg.counter(
            "serve_run_memo_misses_total", help="batches that ran a simulation"
        )
        self._m_memo_evicted = reg.counter(
            "serve_run_memo_evicted_ticks_total", help="remembered ticks evicted (LRU)"
        )

    # -- tenant bookkeeping ---------------------------------------------------

    def tenant_id(self, tenant: str) -> int:
        """Stable small-int key for per-tenant instrument cells.

        Ids are assigned in first-submission order, which is part of the
        deterministic schedule, so instrument cells line up across runs.
        """
        return self._tenant_ids.setdefault(tenant, len(self._tenant_ids))

    # -- submission -----------------------------------------------------------

    def add_completion_hook(self, hook: Callable[[Job], None]) -> None:
        """``hook(job)`` fires when a job completes *or* is rejected."""
        self._hooks.append(hook)

    def submit(self, spec: JobSpec, at_us: float = 0.0) -> int:
        """Schedule a job arrival at ``at_us`` on the simulated timeline.

        A spec the configured layout can never run (fewer cores than
        ``processes``) raises :class:`ConfigurationError` here, before the
        job exists: it is the caller's mistake, not load.
        """
        check_range("at_us", at_us, lo=0.0)
        Partition.require_spread(spec.cores, self.config.processes)
        job = Job(spec=spec, job_id=self._job_seq, submit_us=at_us)
        self._job_seq += 1
        self.jobs[job.job_id] = job
        self._push(at_us, _ARRIVAL, job)
        return job.job_id

    # -- event loop -----------------------------------------------------------

    def _push(self, t_us: float, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (t_us, kind, self._event_seq, payload))
        self._event_seq += 1

    def _drain(self, t_us: float, due: Callable[[float, float], bool]) -> None:
        """Pop and dispatch, in order, every event whose time is ``due(t, t_us)``."""
        while self._events and due(self._events[0][0], t_us):
            t, kind, _seq, payload = heapq.heappop(self._events)
            self.now_us = max(self.now_us, t)
            self._dispatch(kind, payload)

    def run(self) -> None:
        """Drain the event heap: process every arrival to completion."""
        self._drain(math.inf, operator.le)

    def run_until(self, t_us: float) -> None:
        """Process every event at or before ``t_us``, then stop.

        The sharded fleet (:mod:`repro.shard`) drives each shard's server
        as a sub-simulation on a shared clock, interleaving routing and
        autoscaling decisions between event batches; :meth:`run` is the
        drain-everything special case.  Advances ``now_us`` to at least
        ``t_us`` even when no events fall in the window.
        """
        self._drain(t_us, operator.le)
        self.now_us = max(self.now_us, t_us)

    def run_before(self, t_us: float) -> None:
        """Process every event *strictly* before ``t_us``, then stop.

        The telemetry pipeline's windows are half-open ``[t0, t1)``: a
        completion at exactly a boundary belongs to the next window, so
        the router drains sub-boundary events with this, closes the
        window, and only then runs the boundary instant itself via
        :meth:`run_until`.  Does not advance ``now_us`` past the last
        processed event — boundary-instant events still see their own
        timestamp.
        """
        self._drain(t_us, operator.lt)

    @property
    def idle(self) -> bool:
        """True when the event heap is drained (no pending work)."""
        return not self._events

    def _dispatch(self, kind: int, payload: object) -> None:
        if kind == _ARRIVAL:
            self._on_arrival(payload)
        elif kind == _FLUSH:
            self._maybe_launch()
        elif kind == _JOB_DONE:
            self._on_job_done(payload)
        else:
            # Only idle workers are ever retired, so a _WORKER_FREE event
            # always belongs to a live pool member: reinsert unconditionally.
            insort(self._free_workers, payload)
            self._maybe_launch()

    # -- worker-pool elasticity -----------------------------------------------

    def add_worker(self) -> int:
        """Grow the pool by one worker and return its id.

        Ids are never recycled: a new worker always gets the next id, so
        a retired worker's pending ``_WORKER_FREE`` event can never alias
        a live one and launch order stays deterministic.
        """
        wid = self._next_worker_id
        self._next_worker_id += 1
        insort(self._free_workers, wid)
        self.workers += 1
        self._maybe_launch()
        return wid

    def remove_worker(self) -> bool:
        """Retire one *idle* worker (the highest-numbered free one).

        Returns False when the pool is at one worker or every worker is
        busy — callers (the autoscaler) retry at their next evaluation
        boundary rather than interrupting a running batch.
        """
        if self.workers <= 1 or not self._free_workers:
            return False
        self._free_workers.pop()
        self.workers -= 1
        return True

    def _on_arrival(self, job: Job) -> None:
        tid = self.tenant_id(job.spec.tenant)
        self._m_submitted.inc(rank=tid)
        tracer = self.obs.tracer
        try:
            self.queue.submit(job)
        except AdmissionError as exc:
            self._reject(job, exc)
            return
        self._g_depth.set(-1, float(len(self.queue)))
        if tracer.enabled:
            tracer.instant(
                "serve.submit",
                rank=self.trace_rank,
                tick=-1,
                ts_us=self.now_us,
                cat="serve",
                job=job.job_id,
                tenant=job.spec.tenant,
                priority=job.spec.priority,
            )
            self._trace_stage(tracer, job, "queue", depth=len(self.queue))
        self._maybe_launch()

    def _reject(self, job: Job, exc: Exception) -> None:
        """End ``job`` as REJECTED, with the error's type as the reason."""
        job.status = REJECTED
        job.reject_reason = type(exc).__name__
        self._m_rejected.inc(rank=self.tenant_id(job.spec.tenant))
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "serve.reject",
                rank=self.trace_rank,
                tick=-1,
                ts_us=self.now_us,
                cat="serve",
                job=job.job_id,
                tenant=job.spec.tenant,
                reason=job.reject_reason,
            )
            self._trace_stage(
                tracer, job, "reject", terminal=True, reason=job.reject_reason
            )
        self._fire_hooks(job)
        if not self.config.keep_records:
            del self.jobs[job.job_id]

    def _on_job_done(self, job: Job) -> None:
        job.status = DONE
        job.finish_us = self.now_us
        tid = self.tenant_id(job.spec.tenant)
        self._m_completed.inc(rank=tid)
        self._h_latency.observe(-1, job.latency_us)
        self._h_latency.observe(tid, job.latency_us)
        if job.deadline_missed:
            self._m_miss.inc(rank=tid)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "serve.done",
                rank=self.trace_rank,
                tick=-1,
                ts_us=self.now_us,
                cat="serve",
                job=job.job_id,
                tenant=job.spec.tenant,
                latency_us=job.latency_us,
            )
            self._trace_stage(
                tracer, job, "done", terminal=True, latency_us=job.latency_us
            )
        self._fire_hooks(job)
        if not self.config.keep_records:
            del self.jobs[job.job_id]

    def _fire_hooks(self, job: Job) -> None:
        for hook in self._hooks:
            hook(job)

    def _trace_stage(
        self, tracer, job: Job, stage: str, terminal: bool = False, **attrs
    ) -> None:
        """Emit one causal stage of ``job``'s trace.

        Each stage is an ``X`` slice named ``job.<stage>`` carrying the
        trace/span/parent triplet, plus a flow event at the same instant
        binding the arrow to that slice: ``s`` on the job's first traced
        stage, ``f`` on its terminal one, ``t`` in between.  The job's
        context advances to the stage's child, so successive stages chain
        parent → span (see :mod:`repro.obs.live.journey`).  Callers guard
        on ``tracer.enabled``; nothing here runs when tracing is off.
        """
        ctx = job.trace
        first = ctx is None
        if first:
            # Standalone service (no router): the journey starts here.
            ctx = TraceContext.root(job.spec.tenant, job.job_id, job.submit_us)
        ctx = ctx.child(stage)
        job.trace = ctx
        tracer.complete(
            f"job.{stage}",
            rank=self.trace_rank,
            ts_us=self.now_us,
            cat="serve",
            tick=-1,
            job=job.job_id,
            tenant=job.spec.tenant,
            trace=ctx.trace_id,
            span=ctx.span_id,
            parent=ctx.parent_id,
            **attrs,
        )
        if first:
            tracer.flow(
                "job", rank=self.trace_rank, ph="s", flow_id=ctx.trace_id,
                ts_us=self.now_us, cat="serve", tick=-1, job=job.job_id,
            )
        if terminal:
            tracer.flow(
                "job", rank=self.trace_rank, ph="f", flow_id=ctx.trace_id,
                ts_us=self.now_us, cat="serve", tick=-1, job=job.job_id,
            )
        elif not first:
            tracer.flow(
                "job", rank=self.trace_rank, ph="t", flow_id=ctx.trace_id,
                ts_us=self.now_us, cat="serve", tick=-1, job=job.job_id,
            )

    # -- launching ------------------------------------------------------------

    def _maybe_launch(self) -> None:
        while self._free_workers:
            ready = self.batcher.ready_at(self.queue, self.now_us)
            if ready is None:
                return
            if ready > self.now_us:
                self._push(ready, _FLUSH, None)
                return
            batch = self.batcher.form(self.queue, self.now_us)
            if batch is None:
                return
            worker = self._free_workers.pop(0)
            self._g_depth.set(-1, float(len(self.queue)))
            self._execute(batch, worker)

    def _execute(self, batch: Batch, worker: int) -> None:
        max_ticks = batch.max_ticks
        try:
            cum, retries, overhead_us = self._run_batch(batch.key, max_ticks)
        except ConfigurationError as exc:
            # The batch key names a network that cannot be built or laid
            # out (known only now): its jobs end rejected, the worker is
            # free again, and the service keeps serving.
            for job in batch.jobs:
                self._reject(job, exc)
            insort(self._free_workers, worker)
            return
        record = BatchRecord(
            batch_id=self._batch_seq,
            key=batch.key,
            job_ids=[job.job_id for job in batch.jobs],
            launch_us=self.now_us,
            max_ticks=max_ticks,
            worker=worker,
            retries=retries,
            overhead_us=overhead_us,
        )
        self._batch_seq += 1

        def run_us(ticks: int) -> float:  # setup is charged on a memo hit too
            return COSTS.span_cost_us(ticks, int(cum[ticks]), cold=True)

        busy_until = self.now_us + run_us(max_ticks) + overhead_us
        record.end_us = busy_until
        self.n_batches += 1
        self.batch_jobs_total += record.size
        self.retries_total += retries
        if self.config.keep_records:
            self.batches.append(record)
        for job in batch.jobs:
            job.status = RUNNING
            job.launch_us = self.now_us
            job.batch_id = record.batch_id
            job.batch_size = record.size
            job.retries = retries
            job.overhead_us = overhead_us
            finish = self.now_us + run_us(job.spec.ticks) + overhead_us
            self._push(finish, _JOB_DONE, job)
        self._push(busy_until, _WORKER_FREE, worker)
        self._h_batch.observe(-1, float(record.size))
        self._m_batches.inc()
        if retries:
            self._m_retries.inc(value=retries)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "serve.launch",
                rank=self.trace_rank,
                tick=-1,
                ts_us=self.now_us,
                cat="serve",
                batch=record.batch_id,
                size=record.size,
                worker=worker,
                model=batch.key[0],
            )
            for job in batch.jobs:
                self._trace_stage(
                    tracer, job, "batch", batch=record.batch_id, size=record.size
                )
                self._trace_stage(
                    tracer, job, "run", worker=worker, ticks=job.spec.ticks
                )
                if retries:
                    self._trace_stage(
                        tracer, job, "recover",
                        retries=retries, overhead_us=overhead_us,
                    )

    def _run_batch(
        self, key: tuple[str, int, int], ticks: int
    ) -> tuple[np.ndarray, int, float]:
        """Run (or recall) the simulation behind a batch.

        Returns ``cum`` with ``cum[t]`` = spikes fired in the first ``t``
        ticks, for at least ``ticks`` ticks, plus fault-recovery accounting.
        Fired counts are partition-invariant and deterministic, so a long
        enough remembered run of the key answers; a fault-armed launch runs.
        """
        cum = self._run_memo.get(key)
        if cum is not None and ticks < len(cum) and not self._fault_pending:
            self._run_memo.move_to_end(key)
            self._m_memo_hits.inc()
            return cum, 0, 0.0
        self._m_memo_misses.inc()
        network = build_network(*key)
        config = CompassConfig(n_processes=self.config.processes)
        runner = None
        with make_adapter(self.config.backend, obs=Observability.off()) as adapter:
            adapter.prepare(network, config)
            if self._fault_pending:
                # One-shot: the armed schedule applies to the first launch.
                self._fault_pending = False
                from repro.resilience.recovery import ResilientRunner

                runner = ResilientRunner(
                    lambda: adapter,
                    schedule=self.config.fault_schedule,
                    checkpoint_interval=self.config.checkpoint_interval,
                )
            result = (runner or adapter).run(ticks)
            # Per-block snapshot arrays partition the same neurons whatever
            # the rank layout, so the peak is safe in byte-compared reports.
            self.peak_state_nbytes = max(
                self.peak_state_nbytes, adapter.state_nbytes()
            )
        cum = np.zeros(ticks + 1, dtype=np.int64)
        np.cumsum([tm.fired for tm in result.metrics.per_tick], out=cum[1:])
        if ticks <= RUN_MEMO_TICKS:  # a longer run was served and is not kept
            self._remember(key, cum)
        retries = len(runner.report.failures) if runner else 0
        return cum, retries, result.metrics.overhead_s * 1e6

    def _remember(self, key: tuple[str, int, int], cum: np.ndarray) -> None:
        """Keep ``cum`` (which fits the bound) as ``key``'s prefix and evict
        least recently used keys down to ``RUN_MEMO_TICKS`` remembered ticks."""
        memo = self._run_memo
        old = memo.pop(key, None)
        self._memo_ticks += len(cum) - (1 if old is None else len(old))
        memo[key] = cum
        while self._memo_ticks > RUN_MEMO_TICKS:
            gone = len(memo.popitem(last=False)[1]) - 1
            self._memo_ticks -= gone
            self._m_memo_evicted.inc(value=gone)

    # -- results --------------------------------------------------------------

    def finished_jobs(self) -> list[Job]:
        """All terminal jobs (done or rejected) in job-id order."""
        return [
            self.jobs[jid]
            for jid in sorted(self.jobs)
            if self.jobs[jid].status in (DONE, REJECTED)
        ]
