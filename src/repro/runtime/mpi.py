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
  with one integer per rank: rank *i* receives the sum of entry *i* of
  every rank's count vector, here a count of the tick's rows by ``dst``.

The ranks run in lock-step, so each step of Listing 1 is one call for
all of them: :meth:`~VirtualMpiCluster.isend` takes the tick's rows
(:class:`~repro.arch.spike.MessageRows`, the only message there is),
:meth:`~VirtualMpiCluster.reduce_scatter` counts them by destination,
:meth:`~VirtualMpiCluster.iprobe` counts what is queued and
:meth:`~VirtualMpiCluster.recv` checks every rank's arrivals against its
promised count.  Delivery is a bitwise OR (§VII-A), so arrival order
cannot matter and a row carries no envelope beyond its ``(src, dst,
start, count)``.

Each step is settled once, in array code over the whole tick: what dead
ranks and an armed :class:`repro.resilience.faults.FaultInjector` do to
the rows.  A ``sanitizer`` (:class:`repro.check.races.HappensBeforeDetector`)
is called once a step with arrays, and a ``tracer`` gets one emitter a
step, which reads the settled outcome: only the send's emitter walks rows
one at a time (docs/internals.md, "The exchange as rows").  A message is
one ``mpi.msg`` instant, at its send; a receive adds only the
``mpi.iprobe`` miss of a rank that comes up short.  The simulator driving
the cluster counts the traffic, in its metric registry.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.arch.spike import NO_ROWS, MessageRows
from repro.errors import (
    CommunicationError,
    MessageCorruptionError,
    MessageLossError,
    RankFailureError,
)

_NO_ROW = np.zeros(0, dtype=np.int64)


class VirtualMpiCluster:
    """A deterministic in-process cluster of ``n_ranks`` MPI ranks, driven
    a whole tick at a time."""

    def __init__(self, n_ranks: int, sanitizer: Any = None, tracer: Any = None) -> None:
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = n_ranks
        self.sanitizer = sanitizer
        #: Optional :class:`repro.resilience.faults.FaultInjector`, handed
        #: the tick's posted rows while it has a fault armed.
        self.injector: Any = None
        #: Ranks whose simulated node has crashed (fault injection).
        self.dead: set[int] = set()
        #: Optional :class:`repro.obs.SpanTracer`: every posted row, each
        #: collective half and a short receive emit instants.
        self.tracer = tracer
        #: Nothing queued anywhere (shared: never written).
        self._none = np.zeros(n_ranks, dtype=np.int64)
        self._none.flags.writeable = False
        self._next_seq = 0
        self._reset_rows()

    def _reset_rows(self) -> None:
        """Forget the rows in flight: a new exchange starts empty."""
        self._rows = NO_ROWS
        self._seq0 = self._next_seq
        #: Per posted row, whether it never arrives (dropped, or addressed
        #: to a dead rank); ``None`` while every row arrives.
        self._lost: np.ndarray | None = None
        #: The arrived rows that fail their checksum, ascending.
        self._corrupt = _NO_ROW
        #: Duplicate copies queued, per destination.
        self._dups = self._none
        self._received = False
        #: Every rank's promised count, between the collective's halves.
        self._expected: np.ndarray | None = None
        #: The collective's count when it is also the arrived rows'.
        self._arrived: np.ndarray | None = None

    # -- fault injection ------------------------------------------------------

    def fail_rank(self, rank: int) -> None:
        """Crash ``rank``: it stops participating; rows posted to it are lost."""
        if not 0 <= rank < self.n_ranks:
            raise CommunicationError(f"cannot fail invalid rank {rank}")
        self.dead.add(rank)

    def reset(self) -> None:
        """Return the exchange to a tick boundary: every rank alive, nothing
        in flight.  A restore calls this after a mid-tick failure: half-posted
        rows and a half-entered Reduce-Scatter belong to the abandoned tick.
        No tick-boundary capture has a dead rank (a tick with one never
        completes), and a crash fires once, so the replay needs them all.
        """
        self.dead.clear()
        self._reset_rows()

    # -- point to point ------------------------------------------------------

    def isend(self, rows: MessageRows) -> None:
        """Every rank's Isends of the tick: one message per row, to its ``dst``.

        ``rows`` ascend by source; a new exchange starts here.  Every row
        reaches its destination at once, except that a row to a dead rank
        is lost, the first row from a dead source fails the post (the rows
        before it are posted), and an armed fault injector drops,
        duplicates or corrupts the rows it fires on.
        """
        self._reset_rows()
        if not len(rows):
            return
        dst = rows.dst
        if int(dst.min()) < 0 or int(dst.max()) >= self.n_ranks:
            raise CommunicationError(f"send to invalid rank in {dst.tolist()}")
        self._rows = posted = rows
        failed = None
        if self.dead:
            dead = sorted(self.dead)
            from_dead = np.flatnonzero(np.isin(rows.src, dead))
            if from_dead.size:
                failed = int(from_dead[0])
                posted = rows[:failed]
            self._lost = np.isin(dst, dead)
        if self.sanitizer is not None:
            sent = np.bincount(posted.src, minlength=self.n_ranks)
            self.sanitizer.on_sends(sent.tolist(), self._next_seq)
            self._next_seq += len(posted)
        fired = None
        if self.injector is not None and self.injector.armed and len(posted):
            fired = self.injector.on_tick(posted)
            lost = np.zeros(len(rows), dtype=bool) if self._lost is None else self._lost
            lost[fired.row[fired.action == "drop"]] = True
            arrived = ~lost[fired.row]
            dup = fired.row[arrived & (fired.action == "duplicate")]
            self._dups = np.bincount(dst[dup], minlength=self.n_ranks)
            self._corrupt = fired.row[arrived & (fired.crc[:, 0] != fired.crc[:, 1])]
            self._lost = lost
        if self.tracer is not None:
            self._trace_isend(posted, fired)
        if failed is not None:
            source = int(rows.src[failed])
            raise RankFailureError(f"rank {source} crashed before posting its sends", (source,))

    def _trace_isend(self, rows: MessageRows, fired: Any) -> None:
        """One ``mpi.msg`` instant a posted row, first posted first, after
        the fault that fired on it: its ``dest`` and ``bytes`` and, unless it
        was lost, the destination's queue ``depth`` after it, with
        ``dup=True`` when a duplicate copy was queued too."""
        tr, depth = self.tracer, [0] * self.n_ranks
        faults = {} if fired is None else dict(
            zip(fired.row.tolist(), zip(fired.action.tolist(), fired.event))
        )
        lost = [False] * len(rows) if self._lost is None else self._lost.tolist()
        for row, (source, dest, nbytes) in enumerate(
            zip(rows.src.tolist(), rows.dst.tolist(), rows.nbytes.tolist())
        ):
            action, ev = faults.get(row, (None, None))
            if action is not None:
                tr.instant(
                    f"fault.message_{action}", rank=source, cat="resilience",
                    tick=self.injector.tick, dest=dest, scheduled_tick=ev.tick,
                )
            msg = {"dest": dest, "bytes": nbytes}
            if not lost[row]:
                depth[dest] += 1 + (action == "duplicate")
                msg["depth"] = depth[dest]
                if action == "duplicate":
                    msg["dup"] = True
            tr.instant("mpi.msg", rank=source, cat="net", **msg)

    def iprobe(self) -> np.ndarray:
        """Messages queued for each rank (Listing 1's probe): arrived rows
        not yet received, and duplicate copies."""
        if self._received or not len(self._rows):
            return self._none
        if self._arrived is not None:
            return self._arrived
        dst = self._rows.dst if self._lost is None else self._rows.dst[~self._lost]
        return np.bincount(dst, minlength=self.n_ranks) + self._dups

    def recv(self, expected: np.ndarray) -> np.ndarray:
        """Every rank takes its arrived rows; returns each rank's queue depth
        before it did (:meth:`iprobe`).

        ``expected`` is what the Reduce-Scatter promised each rank.  The
        first rank (in rank order) that finds a corrupted row raises
        :class:`MessageCorruptionError`, or that comes up short
        :class:`MessageLossError` after its ``mpi.iprobe`` miss (the count
        collective is the ground truth); either error carries that
        rank as ``ranks=(rank,)``, so the ranks below it are the ones that
        received.
        """
        depth = self.iprobe()
        self._received = True
        bad = _NO_ROW
        if len(self._rows) or np.count_nonzero(expected):  # something posted or promised
            failing = depth - self._dups < expected  # a duplicate is taken with its original
            if self._corrupt.size:
                failing[self._rows.dst[self._corrupt]] = True
            bad = np.flatnonzero(failing)
        fail = int(bad[0]) if bad.size else None
        if self.sanitizer is not None:
            taken = np.argsort(self._rows.dst, kind="stable")
            if self._lost is not None:
                taken = taken[~self._lost[taken]]
            if fail is not None:  # the ranks after the failing one take nothing
                taken = taken[self._rows.dst[taken] <= fail]
            got = self._rows[taken]
            self.sanitizer.on_receives(
                got.dst.tolist(), got.src.tolist(), (self._seq0 + taken).tolist()
            )
        if fail is None:
            return depth
        corrupt = self._rows.src[self._corrupt[self._rows.dst[self._corrupt] == fail]]
        if corrupt.size:
            raise MessageCorruptionError(
                f"rank {fail}: payload from rank {corrupt[0]} failed its end-to-end checksum",
                ranks=(fail,),
            )
        if self.tracer is not None:
            self.tracer.instant("mpi.iprobe", rank=fail, cat="net", hit=False)
        raise MessageLossError(
            f"rank {fail}: Reduce-Scatter promised a message that never arrived",
            ranks=(fail,),
        )

    # -- collective ------------------------------------------------------------

    def reduce_scatter(self) -> None:
        """Every rank's contribution to ``MPI_Reduce_scatter_block``: its
        posted rows, counted by destination.  Rank ``d`` learns the number
        of rows with destination ``d`` from :meth:`reduce_scatter_fetch`;
        :meth:`reduce_scatter_finish` ends the collective.  While every row
        arrived once, that count is also the probe's.

        A dead rank never contributes: the live ranks' collective times
        out (the tick loop's per-phase timeout) with ``RankFailureError``,
        once the ranks below it have contributed.
        """
        entered = range(min(self.dead) if self.dead else self.n_ranks)
        if self.sanitizer is not None:
            self.sanitizer.on_collective_contribute(entered)
        rows, n = self._rows, self.n_ranks
        if self.tracer is not None:  # no rows: shared zeros, no bincount
            sent = np.bincount(rows.src, minlength=n) if len(rows) else self._none
            self.tracer.per_rank(entered, ("i", "mpi.reduce_scatter", "sync", {
                "cat": "net", "sent": sent[: len(entered)].tolist(),
            }))
        if self.dead:
            raise RankFailureError(
                f"rank {entered.stop} crashed; tick collective timed out waiting "
                f"for dead ranks {sorted(self.dead)}",
                ranks=tuple(sorted(self.dead)),
            )
        if not len(rows):
            self._expected = self._none
            return
        self._expected = np.bincount(rows.dst, minlength=n)
        if self._lost is None and self._dups is self._none:
            self._arrived = self._expected  # the probe need not count again

    def reduce_scatter_fetch(self) -> np.ndarray:
        """Every rank's result of the collective: the messages it was
        promised, as one array."""
        if self._expected is None:
            raise CommunicationError("reduce_scatter_fetch before every rank contributed")
        ranks = range(self.n_ranks)
        if self.sanitizer is not None:
            self.sanitizer.on_collective_fetch(ranks)
        if self.tracer is not None:
            self.tracer.per_rank(ranks, ("i", "mpi.reduce_scatter.fetch", "sync", {
                "cat": "net", "expected": self._expected.tolist(),
            }))
        return self._expected

    def reduce_scatter_finish(self) -> None:
        """End the collective once every rank has fetched its result."""
        self._expected = None
        if self.sanitizer is not None:
            self.sanitizer.on_collective_finish()


#: Listing 1's calls are every rank's at once, so each rank's endpoint is
#: the cluster itself.
MpiEndpoint = VirtualMpiCluster
