"""Simulated two-sided MPI, exposing exactly the primitives of Listing 1.

The Compass main loop uses: ``MPI_Isend`` (aggregated spike buffers),
``MPI_Reduce_scatter`` (each rank learns how many messages to expect),
and an ``MPI_Iprobe``/``MPI_Get_count``/``MPI_Recv`` loop inside a critical
section.  :class:`VirtualMpiCluster` reproduces those semantics
deterministically in one OS process:

* messages are delivered to destination mailboxes immediately on send —
  valid because Compass is semi-synchronous: no rank receives before the
  collective, which itself globally orders the tick;
* ``reduce_scatter`` follows MPI semantics for ``MPI_Reduce_scatter_block``
  with one integer per rank: every rank contributes a length-P count
  vector, and rank *i* receives the sum of entry *i* over all ranks.

Traffic is not counted here: the simulator that drives the cluster
accounts every message into its metric registry, the one per-rank ledger
a checkpoint rolls back.

The cluster also detects collective misuse (a rank contributing twice, or
reading a result before all ranks contributed), which turns subtle
deadlocks of the real library into immediate errors.

Passing ``sanitizer=`` (a
:class:`repro.check.races.HappensBeforeDetector`) instruments every
``send``/``isend``/``iprobe``/``recv`` and both collective halves with
happens-before bookkeeping: messages get cluster-wide sequence numbers,
wildcard receives are checked against their candidate sets, and the
Reduce-Scatter acts as the vector-clock fence.  Receive sites whose
payload consumption is order-insensitive (bitwise-OR spike delivery,
§VII-A) pass ``commutative=True`` to opt out of the wildcard check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import (
    CommunicationError,
    MessageCorruptionError,
    RankFailureError,
)
from repro.runtime.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, Message


class VirtualMpiCluster:
    """A deterministic in-process cluster of ``n_ranks`` MPI endpoints."""

    def __init__(
        self, n_ranks: int, sanitizer: Any = None, tracer: Any = None
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = n_ranks
        self.sanitizer = sanitizer
        #: Optional :class:`repro.resilience.faults.FaultInjector` — when
        #: set, every send consults it for drop/duplicate/corrupt actions
        #: and payloads are checksummed end to end.
        self.injector: Any = None
        #: Ranks whose simulated node has crashed (fault injection).
        self.dead: set[int] = set()
        #: Optional :class:`repro.obs.SpanTracer` — when set, every send,
        #: receive, probe, delivery and collective half emits an instant
        #: event on the simulated timeline.  ``None`` keeps the hot path
        #: untouched.
        self.tracer = tracer
        self.mailboxes = [
            Mailbox(r, observer=sanitizer, tracer=tracer) for r in range(n_ranks)
        ]
        self._rs_contributions: dict[int, np.ndarray] = {}
        self._next_seq = 0
        self.endpoints = [MpiEndpoint(self, r) for r in range(n_ranks)]

    # -- fault injection ------------------------------------------------------

    def fail_rank(self, rank: int) -> None:
        """Crash ``rank``: it stops participating and its mailbox is lost."""
        if not 0 <= rank < self.n_ranks:
            raise CommunicationError(f"cannot fail invalid rank {rank}")
        self.dead.add(rank)
        self.mailboxes[rank].clear()

    def revive_rank(self, rank: int) -> None:
        """The node hosting ``rank`` rejoins (reboot or spare takeover)."""
        self.dead.discard(rank)

    def reset_communication(self) -> None:
        """Drop all in-flight state so a restored tick starts clean.

        Called by the recovery driver after a mid-tick failure: partially
        delivered messages and partial collective contributions belong to
        the abandoned tick and must not leak into the replay.
        """
        for mb in self.mailboxes:
            mb.clear()
        self._rs_contributions.clear()

    # -- point to point ------------------------------------------------------

    def send(self, source: int, dest: int, tag: int, payload: Any, nbytes: int) -> None:
        if not 0 <= dest < self.n_ranks:
            raise CommunicationError(f"send to invalid rank {dest}")
        if source in self.dead:
            raise RankFailureError(
                f"rank {source} crashed before posting its sends",
                ranks=(source,),
            )
        seq = -1
        if self.sanitizer is not None:
            seq = self._next_seq
            self._next_seq += 1
            self.sanitizer.on_send(source, dest, tag, seq)
        action = None
        checksum = -1
        if self.injector is not None:
            action = self.injector.on_send(source, dest)
            checksum = self.injector.payload_checksum(payload)
            if action == "corrupt":
                payload = self.injector.corrupt(payload)
        if self.tracer is not None:
            self.tracer.instant(
                "mpi.isend", rank=source, cat="net", dest=dest, bytes=nbytes
            )
        if dest in self.dead or action == "drop":
            return  # the wire ate it; the count collective still promised it
        msg = Message(
            source=source,
            dest=dest,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            seq=seq,
            checksum=checksum,
        )
        self.mailboxes[dest].deliver(msg)
        if action == "duplicate":
            self.mailboxes[dest].deliver(
                Message(
                    source=source,
                    dest=dest,
                    tag=tag,
                    payload=payload,
                    nbytes=nbytes,
                    seq=seq,
                    checksum=checksum,
                    duplicate=True,
                )
            )

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
        if rank in self._rs_contributions:
            raise CommunicationError(f"rank {rank} contributed twice to reduce_scatter")
        self._rs_contributions[rank] = counts.copy()
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
        if len(self._rs_contributions) != self.n_ranks:
            missing = set(range(self.n_ranks)) - set(self._rs_contributions)
            if missing <= self.dead:
                raise RankFailureError(
                    f"tick collective timed out; dead ranks "
                    f"{sorted(missing)[:8]} never contributed",
                    ranks=tuple(sorted(missing)),
                )
            raise CommunicationError(
                f"reduce_scatter incomplete; missing ranks {sorted(missing)[:8]}"
            )
        total = int(
            sum(self._rs_contributions[r][rank] for r in sorted(self._rs_contributions))
        )
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
        self._rs_contributions.clear()
        if self.sanitizer is not None:
            self.sanitizer.on_collective_finish()

    # -- introspection -----------------------------------------------------------

    def pending_messages(self) -> int:
        return sum(len(mb) for mb in self.mailboxes)


@dataclass
class MpiEndpoint:
    """The per-rank face of the cluster: Listing 1's MPI calls."""

    cluster: VirtualMpiCluster
    rank: int

    def isend(self, dest: int, payload: Any, nbytes: int, tag: int = 0) -> None:
        """Non-blocking aggregated-buffer send (completes immediately here)."""
        self.cluster.send(self.rank, dest, tag, payload, nbytes)

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

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        mailbox = self.cluster.mailboxes[self.rank]
        sanitizer = self.cluster.sanitizer
        if sanitizer is not None:
            sanitizer.on_iprobe(self.rank, source, tag, mailbox.matching(source, tag))
        hit = mailbox.probe(source, tag) is not None
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.instant("mpi.iprobe", rank=self.rank, cat="net", hit=hit)
        return hit

    def get_count(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> int:
        msg = self.cluster.mailboxes[self.rank].probe(source, tag)
        if msg is None:
            raise CommunicationError(f"rank {self.rank}: get_count with no message")
        return msg.nbytes

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        commutative: bool = False,
    ) -> Message:
        """Blocking receive.

        ``commutative=True`` asserts the caller consumes the payload in an
        order-insensitive way (Compass's bit-OR spike delivery), waiving
        the sanitizer's wildcard-order race check for this receive.
        """
        mailbox = self.cluster.mailboxes[self.rank]
        sanitizer = self.cluster.sanitizer
        candidates = (
            mailbox.matching(source, tag) if sanitizer is not None else ()
        )
        msg = mailbox.pop(source, tag)
        if sanitizer is not None:
            sanitizer.on_recv(self.rank, msg.seq, source, candidates, commutative)
        injector = self.cluster.injector
        if injector is not None and msg.checksum != -1:
            if injector.payload_checksum(msg.payload) != msg.checksum:
                raise MessageCorruptionError(
                    f"rank {self.rank}: payload from rank {msg.source} "
                    "failed its end-to-end checksum"
                )
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.instant(
                "mpi.recv", rank=self.rank, cat="net", src=msg.source, bytes=msg.nbytes
            )
        return msg

    def pending(self) -> int:
        return len(self.cluster.mailboxes[self.rank])
