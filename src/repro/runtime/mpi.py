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

The ranks run in lock-step, so the cluster takes each step of Listing 1
for all of them at once: :meth:`~VirtualMpiCluster.isend` takes the
tick's rows (:class:`~repro.arch.spike.MessageRows`, the only message
there is), :meth:`~VirtualMpiCluster.reduce_scatter` the ``(P, P)``
count matrix (:meth:`~VirtualMpiCluster.reduce_scatter_fetch` hands
every rank its sum), :meth:`~VirtualMpiCluster.iprobe` counts what is
queued and :meth:`~VirtualMpiCluster.recv` checks every rank's arrivals
against its promised count.  Delivery is a bitwise OR
(§VII-A), so arrival order cannot matter and a row carries no envelope
beyond its ``(src, dst, start, count)``.  Only the hooks below walk the
ranks or the rows one at a time.

Traffic is not counted here: the simulator that drives the cluster
accounts every message into its metric registry, the one per-rank ledger
a checkpoint rolls back.

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
from typing import Any, Callable

import numpy as np

from repro.arch.spike import NO_ROWS, MessageRows
from repro.errors import (
    CommunicationError,
    MessageCorruptionError,
    MessageLossError,
    RankFailureError,
)


class VirtualMpiCluster:
    """A deterministic in-process cluster of ``n_ranks`` MPI ranks, driven
    a whole tick at a time."""

    def __init__(
        self, n_ranks: int, sanitizer: Any = None, tracer: Any = None
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = n_ranks
        self.sanitizer = sanitizer
        #: Optional :class:`repro.resilience.faults.FaultInjector`,
        #: consulted on every posted row while it has a fault armed.
        self.injector: Any = None
        #: Ranks whose simulated node has crashed (fault injection).
        self.dead: set[int] = set()
        #: Optional :class:`repro.obs.SpanTracer` — when set, every posted
        #: and received row and each collective half emits an instant
        #: event on the simulated timeline.
        self.tracer = tracer
        self._rank_edges = np.arange(n_ranks + 1)
        #: Nothing queued anywhere (shared: never written).
        self._none = np.zeros(n_ranks, dtype=np.int64)
        self._none.flags.writeable = False
        self._next_seq = 0
        self._reset_rows()

    def _reset_rows(self) -> None:
        """Forget the rows in flight: a new exchange starts empty."""
        self._rows = NO_ROWS
        self._seq0 = self._next_seq
        #: Posted rows that never arrive: dropped, or addressed to a dead rank.
        self._lost: set[int] = set()
        #: Corrupted row -> (stamped checksum, checksum of what arrived).
        self._checksums: dict[int, tuple[int, int]] = {}
        #: Per destination: duplicate copies queued (the hooks' own array
        #: once they post), and the traced queue depth.
        self._dups, self._depth = self._none, [0] * self.n_ranks
        self._received = False
        #: Every rank's promised count, between the collective's halves.
        self._expected: np.ndarray | None = None

    # -- fault injection ------------------------------------------------------

    def fail_rank(self, rank: int) -> None:
        """Crash ``rank``: it stops participating; rows posted to it are lost."""
        if not 0 <= rank < self.n_ranks:
            raise CommunicationError(f"cannot fail invalid rank {rank}")
        self.dead.add(rank)

    def reset(self) -> None:
        """Return the exchange to a tick boundary: every rank alive, nothing
        in flight.

        A restore calls this after a mid-tick failure: half-posted rows
        and a half-entered Reduce-Scatter belong to the abandoned tick.  No tick-boundary capture has a dead
        rank (a tick with one never completes), and a crash fires once,
        so the replay needs them all.
        """
        self.dead.clear()
        self._reset_rows()

    # -- point to point ------------------------------------------------------

    def isend(self, rows: MessageRows) -> None:
        """Every rank's Isends of the tick: one message per row, to its ``dst``.

        ``rows`` ascend by source; a new exchange starts here.  Every row
        reaches its destination at once, unless a hook says otherwise:
        a dead source fails, and an armed fault injector decides, source
        by source and row by row, whether a row is dropped, duplicated or
        corrupted on the way.
        """
        self._reset_rows()
        if not len(rows):
            return
        dst = rows.dst
        if int(dst.min()) < 0 or int(dst.max()) >= self.n_ranks:
            raise CommunicationError(f"send to invalid rank in {dst.tolist()}")
        self._rows = rows
        injector = self.injector
        if (self.sanitizer is not None or self.tracer is not None or self.dead
                or (injector is not None and injector.armed)):
            self._dups = np.zeros(self.n_ranks, dtype=np.int64)
            self._post_by_source(rows)

    def _post_by_source(self, rows: MessageRows) -> None:
        """The hooks of :meth:`isend`, each source's rows in rank order."""
        at = np.searchsorted(rows.src, self._rank_edges).tolist()
        for source, lo, hi in zip(range(self.n_ranks), at, at[1:]):
            if hi == lo:
                continue
            if source in self.dead:
                raise RankFailureError(
                    f"rank {source} crashed before posting its sends", (source,)
                )
            dst = rows.dst[lo:hi]
            if self.sanitizer is not None:
                self.sanitizer.on_send_rows(source, dst, self._next_seq)
                self._next_seq += hi - lo
            fired = self.injector.on_rows(source, dst) if self.injector is not None else []
            if fired or self.dead or self.tracer is not None:
                self._post_row_by_row(source, rows[lo:hi], lo, {row: rest for row, *rest in fired})

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

    def _arrived(self) -> np.ndarray:
        """The posted rows that arrived, as indices into the tick's rows."""
        arrived = np.arange(len(self._rows))
        return np.delete(arrived, sorted(self._lost)) if self._lost else arrived

    def iprobe(self) -> np.ndarray:
        """Messages queued for each rank (Listing 1's probe): arrived rows
        not yet received, and duplicate copies."""
        if self._received or not len(self._rows):
            return self._none
        dst = self._rows.dst[self._arrived()] if self._lost else self._rows.dst
        return np.bincount(dst, minlength=self.n_ranks) + self._dups

    def recv(
        self, expected: np.ndarray, on_rank: Callable[[int], None] | None = None
    ) -> np.ndarray:
        """Every rank takes its arrived rows; returns each rank's queue depth
        before it did (:meth:`iprobe`).

        ``expected`` is what the Reduce-Scatter promised each rank.  The
        first rank (in rank order) to find a corrupted row raises
        :class:`MessageCorruptionError`, and the first to come up short
        :class:`MessageLossError`: the count collective is the ground
        truth, so a short receive means the wire dropped a promised
        message.  ``on_rank(rank)`` runs after each rank's receive.
        """
        depth = self.iprobe()
        self._received = True
        if (self.sanitizer is not None or self.tracer is not None or self._checksums
                or on_rank is not None):
            self._receive_by_rank(depth - self._dups, expected, on_rank)
        elif len(self._rows) or np.count_nonzero(expected):  # something posted or promised
            # A duplicate is taken with its original.
            short = np.flatnonzero(depth - self._dups < expected)
            if short.size:
                raise _loss(int(short[0]))
        return depth

    def _receive_by_rank(
        self, arrived: np.ndarray, expected: np.ndarray, on_rank: Callable[[int], None] | None
    ) -> None:
        """:meth:`recv` rank by rank, each rank's rows first posted first.

        A corrupted row fails its checksum here.  With a tracer, each row
        taken emits an ``mpi.iprobe`` hit and an ``mpi.recv``, and coming
        up short one ``mpi.iprobe`` miss.
        """
        posted = self._arrived()
        posted = posted[np.argsort(self._rows.dst[posted], kind="stable")]
        got = self._rows[posted]
        at = np.concatenate(([0], np.cumsum(arrived))).tolist()
        tr = self.tracer
        for rank, (lo, hi, count) in enumerate(zip(at, at[1:], expected.tolist())):
            rows = posted[lo:hi].tolist()
            if self.sanitizer is not None:
                self.sanitizer.on_recv_rows(rank, [self._seq0 + row for row in rows])
            if self._checksums or tr is not None:
                for src, size, row in zip(got.src[lo:hi].tolist(), got.nbytes[lo:hi].tolist(), rows):
                    if tr is not None:
                        tr.instant("mpi.iprobe", rank=rank, cat="net", hit=True)
                    stamped, taken = self._checksums.get(row, (0, 0))
                    if stamped != taken:
                        raise MessageCorruptionError(
                            f"rank {rank}: payload from rank {src} failed its end-to-end checksum"
                        )
                    if tr is not None:
                        tr.instant("mpi.recv", rank=rank, cat="net", src=src, bytes=size)
                if tr is not None and hi - lo < count:
                    tr.instant("mpi.iprobe", rank=rank, cat="net", hit=False)
            if hi - lo < count:
                raise _loss(rank)
            if on_rank is not None:
                on_rank(rank)

    # -- collective ------------------------------------------------------------

    def reduce_scatter(self, counts: np.ndarray) -> None:
        """Every rank's contribution to ``MPI_Reduce_scatter_block`` over
        the tick's ``(R, R)`` count matrix: row ``s`` is rank ``s``'s
        per-destination counts.  Rank ``d`` learns the sum of column ``d``
        from :meth:`reduce_scatter_fetch`; :meth:`reduce_scatter_finish`
        ends the collective.

        A dead rank never contributes: the live ranks' collective times
        out (the tick loop's per-phase timeout) with ``RankFailureError``.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_ranks, self.n_ranks):
            raise CommunicationError(
                f"reduce_scatter counts must have shape ({self.n_ranks}, {self.n_ranks})"
            )
        hooked = self.sanitizer is not None or self.tracer is not None or self.dead
        for rank, sent in enumerate(counts.sum(axis=1).tolist()) if hooked else ():
            if rank in self.dead:
                raise RankFailureError(
                    f"rank {rank} crashed; tick collective timed out waiting "
                    f"for dead ranks {sorted(self.dead)}",
                    ranks=tuple(sorted(self.dead)),
                )
            if self.sanitizer is not None:
                self.sanitizer.on_collective_contribute(rank)
            if self.tracer is not None:
                self.tracer.instant(
                    "mpi.reduce_scatter", rank=rank, phase="sync", cat="net", sent=sent
                )
        self._expected = np.add.reduce(counts)  # only a collective every rank entered

    def reduce_scatter_fetch(self) -> np.ndarray:
        """Every rank's result of the collective: the messages it was
        promised, as one array."""
        if self._expected is None:
            raise CommunicationError("reduce_scatter_fetch before every rank contributed")
        hooked = self.sanitizer is not None or self.tracer is not None
        for rank, total in enumerate(self._expected.tolist()) if hooked else ():
            if self.sanitizer is not None:
                self.sanitizer.on_collective_fetch(rank)
            if self.tracer is not None:
                self.tracer.instant(
                    "mpi.reduce_scatter.fetch", rank=rank, phase="sync", cat="net",
                    expected=total,
                )
        return self._expected

    def reduce_scatter_finish(self) -> None:
        """End the collective once every rank has fetched its result."""
        self._expected = None
        if self.sanitizer is not None:
            self.sanitizer.on_collective_finish()


def _loss(rank: int) -> MessageLossError:
    return MessageLossError(f"rank {rank}: Reduce-Scatter promised a message that never arrived")


#: Listing 1's calls are every rank's at once, so each rank's endpoint is
#: the cluster itself.
MpiEndpoint = VirtualMpiCluster
