"""Simulated two-sided MPI, exposing exactly the primitives of Listing 1.

The Compass main loop uses: ``MPI_Isend`` (aggregated spike buffers),
``MPI_Reduce_scatter`` (each rank learns how many messages to expect),
and an ``MPI_Iprobe``/``MPI_Recv`` loop inside a critical section.
:class:`VirtualMpiCluster` reproduces those semantics deterministically
in one OS process:

* messages reach their destination immediately on send — valid because
  Compass is semi-synchronous: no rank receives before the collective,
  which itself globally orders the tick;
* ``reduce_scatter`` follows MPI semantics for ``MPI_Reduce_scatter_block``
  with one integer per rank: every rank contributes a length-P count
  vector, and rank *i* receives the sum of entry *i* over all ranks.

A tick's messages travel as rows (:class:`~repro.arch.spike.MessageRows`),
the only message there is: each rank posts its rows in one ``isend`` and
takes what arrived for it in one ``recv``.  Delivery is a bitwise OR
(§VII-A), so arrival order cannot matter and a row carries no envelope
beyond its ``(src, dst, start, count)``.

Traffic is not counted here: the simulator that drives the cluster
accounts every message into its metric registry, the one per-rank ledger
a checkpoint rolls back.

The cluster also detects collective misuse (a rank contributing twice, or
reading a result before all ranks contributed), which turns subtle
deadlocks of the real library into immediate errors.

Passing ``sanitizer=`` (a
:class:`repro.check.races.HappensBeforeDetector`) instruments every
posted and received row and both collective halves with happens-before
bookkeeping: rows get cluster-wide sequence numbers, a receive merges
each row's send-time clock, and the Reduce-Scatter acts as the
vector-clock fence.

An armed :class:`repro.resilience.faults.FaultInjector` drops,
duplicates or corrupts rows as they are posted; a ``tracer`` gets the
instants each message would emit (docs/internals.md, "The exchange as
rows").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.arch.spike import NO_ROWS, MessageRows
from repro.errors import (
    CommunicationError,
    MessageCorruptionError,
    RankFailureError,
)


class VirtualMpiCluster:
    """A deterministic in-process cluster of ``n_ranks`` MPI endpoints."""

    def __init__(
        self, n_ranks: int, sanitizer: Any = None, tracer: Any = None
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = n_ranks
        self.sanitizer = sanitizer
        #: Optional :class:`repro.resilience.faults.FaultInjector`,
        #: consulted on every posted row.
        self.injector: Any = None
        #: Ranks whose simulated node has crashed (fault injection).
        self.dead: set[int] = set()
        #: Optional :class:`repro.obs.SpanTracer` — when set, every posted
        #: and received row and each collective half emits an instant
        #: event on the simulated timeline.
        self.tracer = tracer
        self._rank_edges = np.arange(n_ranks + 1)
        #: Ranks that contributed to the open Reduce-Scatter, and their sum.
        self._rs_ranks: set[int] = set()
        self._rs_sum: np.ndarray | None = None
        self._next_seq = 0
        self._reset_rows()
        self.endpoints = [MpiEndpoint(self, r) for r in range(n_ranks)]

    def _reset_rows(self) -> None:
        """Forget the rows in flight: a new exchange starts empty."""
        self._posted: list[MessageRows] = []
        self._n_posted = self._seq0 = 0
        #: Posted rows that never arrive: dropped, or addressed to a dead rank.
        self._lost: set[int] = set()
        #: Corrupted row -> (stamped checksum, checksum of what arrived).
        self._checksums: dict[int, tuple[int, int]] = {}
        #: Per destination: duplicate copies queued, and the traced queue depth.
        self._dups = [0] * self.n_ranks
        self._depth = [0] * self.n_ranks
        #: Once receiving starts: the arrived rows by destination, their
        #: posting order, each destination's bounds; who has received.
        self._inbox: tuple[MessageRows, np.ndarray, list[int]] | None = None
        self._received: set[int] = set()

    # -- fault injection ------------------------------------------------------

    def fail_rank(self, rank: int) -> None:
        """Crash ``rank``: it stops participating; rows posted to it are lost."""
        if not 0 <= rank < self.n_ranks:
            raise CommunicationError(f"cannot fail invalid rank {rank}")
        self.dead.add(rank)

    def reset(self) -> None:
        """Return the exchange to a tick boundary: every rank alive, nothing
        in flight.

        A restore calls this after a mid-tick failure: half-posted rows and
        a half-entered Reduce-Scatter belong to the abandoned tick.  No
        tick-boundary capture has a dead rank (a tick with one never
        completes), and a crash fires once, so the replay needs them all.
        """
        self.dead.clear()
        self._rs_ranks.clear()
        self._rs_sum = None
        self._reset_rows()

    # -- point to point ------------------------------------------------------

    def send_rows(self, source: int, rows: MessageRows) -> None:
        """Post ``source``'s messages of this tick, one per row.

        ``rows.dst`` ascends.  Every row reaches its destination at once;
        an armed fault injector decides, row by row in order, whether it
        is dropped, duplicated or corrupted on the way.
        """
        n = len(rows)
        if not n:
            return
        if self._inbox is not None:  # the previous exchange was received
            self._reset_rows()
        dst = rows.dst
        if int(dst[0]) < 0 or int(dst[-1]) >= self.n_ranks:
            raise CommunicationError(f"send to invalid rank in {dst.tolist()}")
        if source in self.dead:
            raise RankFailureError(f"rank {source} crashed before posting its sends", (source,))
        base = self._n_posted
        if self.sanitizer is not None:
            if not base:
                self._seq0 = self._next_seq
            self.sanitizer.on_send_rows(source, dst, self._next_seq)
            self._next_seq += n
        fired = self.injector.on_rows(source, dst) if self.injector is not None else []
        if fired or self.dead or self.tracer is not None:
            self._post_row_by_row(source, rows, base, {row: rest for row, *rest in fired})
        self._posted.append(rows)
        self._n_posted += n

    def _post_row_by_row(
        self, source: int, rows: MessageRows, base: int, fired: dict[int, list]
    ) -> None:
        """What the wire does to each row, and the instants its send emits."""
        tr = self.tracer
        for row, (dest, nbytes) in enumerate(zip(rows.dst.tolist(), rows.nbytes.tolist())):
            action, ev = fired.get(row, (None, None))
            if tr is not None:
                if action is not None:
                    tr.instant(
                        f"fault.message_{action}", rank=source, cat="resilience",
                        tick=self.injector.tick, dest=dest, scheduled_tick=ev.tick,
                    )
                tr.instant("mpi.isend", rank=source, cat="net", dest=dest, bytes=nbytes)
            if dest in self.dead or action == "drop":
                self._lost.add(base + row)
                continue
            if action == "corrupt":
                batch = rows.batch(row, self.injector.tick)
                self._checksums[base + row] = (
                    zlib.crc32(batch.encode()),
                    zlib.crc32(self.injector.corrupt(batch).encode()),
                )
            copies = 2 if action == "duplicate" else 1
            self._dups[dest] += copies - 1
            for dup in (False, True)[:copies] if tr is not None else ():
                self._depth[dest] += 1
                tr.instant(
                    "mailbox.deliver", rank=dest, cat="net", src=source,
                    bytes=nbytes, depth=self._depth[dest], dup=dup,
                )

    def _inbox_rows(self) -> tuple[MessageRows, np.ndarray, list[int]]:
        """The posted rows that arrived, grouped by destination (built once)."""
        if self._inbox is None:
            rows = MessageRows.concat(self._posted) if self._posted else NO_ROWS
            order = np.argsort(rows.dst, kind="stable")
            if self._lost:
                order = order[~np.isin(order, list(self._lost))]
            by_dst = rows[order]
            bounds = np.searchsorted(by_dst.dst, self._rank_edges)
            self._inbox = (by_dst, order, bounds.tolist())
        return self._inbox

    def pending(self, rank: int) -> int:
        """Messages queued for ``rank``: rows not received, and duplicates."""
        queued = self._dups[rank]
        if self._posted and rank not in self._received:
            _, _, bounds = self._inbox_rows()
            queued += bounds[rank + 1] - bounds[rank]
        return queued

    def recv_rows(self, rank: int, count: int) -> MessageRows:
        """``rank`` takes its arrived rows, first posted first.

        ``count`` is what the Reduce-Scatter promised.  A corrupted row
        fails its checksum here.  With a tracer, each row taken emits an
        ``mpi.iprobe`` hit and an ``mpi.recv``, and coming up short of
        ``count`` one ``mpi.iprobe`` miss.
        """
        if rank in self._received or not (self._posted or count):
            return NO_ROWS
        by_dst, order, bounds = self._inbox_rows()
        self._received.add(rank)
        self._dups[rank] = 0  # taken with their originals
        lo, hi = bounds[rank], bounds[rank + 1]
        got, posted = by_dst[lo:hi], order[lo:hi].tolist()
        if self.sanitizer is not None:
            self.sanitizer.on_recv_rows(rank, [self._seq0 + row for row in posted])
        tr = self.tracer
        if self._checksums or tr is not None:
            for src, size, row in zip(got.src.tolist(), got.nbytes.tolist(), posted):
                if tr is not None:
                    tr.instant("mpi.iprobe", rank=rank, cat="net", hit=True)
                stamped, arrived = self._checksums.get(row, (0, 0))
                if stamped != arrived:
                    raise MessageCorruptionError(
                        f"rank {rank}: payload from rank {src} failed its end-to-end checksum"
                    )
                if tr is not None:
                    tr.instant("mpi.recv", rank=rank, cat="net", src=src, bytes=size)
            if tr is not None and len(got) < count:
                tr.instant("mpi.iprobe", rank=rank, cat="net", hit=False)
        return got

    # -- collective ------------------------------------------------------------

    def reduce_scatter_contribute(self, rank: int, counts: np.ndarray) -> None:
        if rank in self.dead:
            # The per-phase timeout of the tick loop: live ranks block on
            # the collective until the dead rank's contribution times out.
            raise RankFailureError(
                f"rank {rank} crashed; tick collective timed out waiting "
                f"for dead ranks {sorted(self.dead)}",
                ranks=tuple(sorted(self.dead)),
            )
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_ranks,):
            raise CommunicationError(
                f"reduce_scatter counts must have shape ({self.n_ranks},)"
            )
        if rank in self._rs_ranks:
            raise CommunicationError(f"rank {rank} contributed twice to reduce_scatter")
        self._rs_ranks.add(rank)
        self._rs_sum = counts.copy() if self._rs_sum is None else self._rs_sum + counts
        if self.sanitizer is not None:
            self.sanitizer.on_collective_contribute(rank)
        if self.tracer is not None:
            self.tracer.instant(
                "mpi.reduce_scatter",
                rank=rank,
                phase="sync",
                cat="net",
                sent=int(counts.sum()),
            )

    def reduce_scatter_result(self, rank: int) -> int:
        if len(self._rs_ranks) != self.n_ranks:
            missing = set(range(self.n_ranks)) - self._rs_ranks
            if missing <= self.dead:
                raise RankFailureError(
                    f"tick collective timed out; dead ranks "
                    f"{sorted(missing)[:8]} never contributed",
                    ranks=tuple(sorted(missing)),
                )
            raise CommunicationError(
                f"reduce_scatter incomplete; missing ranks {sorted(missing)[:8]}"
            )
        total = int(self._rs_sum[rank])
        if self.sanitizer is not None:
            self.sanitizer.on_collective_fetch(rank)
        if self.tracer is not None:
            self.tracer.instant(
                "mpi.reduce_scatter.fetch",
                rank=rank,
                phase="sync",
                cat="net",
                expected=total,
            )
        return total

    def reduce_scatter_finish(self) -> None:
        """Reset collective state once every rank has read its result."""
        self._rs_ranks.clear()
        self._rs_sum = None
        if self.sanitizer is not None:
            self.sanitizer.on_collective_finish()


@dataclass
class MpiEndpoint:
    """The per-rank face of the cluster: Listing 1's MPI calls."""

    cluster: VirtualMpiCluster
    rank: int

    def isend(self, rows: MessageRows) -> None:
        """Non-blocking send (completes immediately here) of this rank's
        rows of the tick: one aggregated message per row, to its ``dst``."""
        self.cluster.send_rows(self.rank, rows)

    def reduce_scatter(self, send_counts: np.ndarray) -> int:
        """Contribute per-destination counts; learn own incoming count.

        Single-call convenience valid because the virtual cluster runs
        ranks in lock-step: contributions are staged and the result is read
        after the last rank contributes (the driver arranges this by
        calling :meth:`reduce_scatter` on every rank before any receive).
        """
        self.cluster.reduce_scatter_contribute(self.rank, send_counts)
        return -1  # result must be fetched after all ranks contributed

    def reduce_scatter_fetch(self) -> int:
        return self.cluster.reduce_scatter_result(self.rank)

    def iprobe(self) -> bool:
        """Listing 1's probe: is any row posted to this rank still unreceived?"""
        return self.cluster.pending(self.rank) > 0

    def recv(self, count: int) -> MessageRows:
        """Blocking receive of this rank's rows of the tick, ``count`` of
        them promised (:meth:`VirtualMpiCluster.recv_rows`)."""
        return self.cluster.recv_rows(self.rank, count)

    def pending(self) -> int:
        return self.cluster.pending(self.rank)
