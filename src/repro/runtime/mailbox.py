"""Per-rank mailboxes for the simulated two-sided messaging layer."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import CommunicationError

#: Wildcards matching MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class Message:
    """One in-flight message: envelope plus payload.

    ``seq`` is a cluster-wide delivery sequence number assigned by the
    sending side; the race detector uses it to associate a message with
    the sender's vector-clock snapshot.  ``-1`` means unsequenced
    (no sanitizer installed).
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    seq: int = -1


@dataclass
class Mailbox:
    """FIFO of delivered messages for one rank.

    Matching follows MPI semantics: ``probe``/``pop`` return the *earliest*
    message whose (source, tag) matches, so per-pair ordering is preserved
    while unrelated pairs can interleave.

    An optional ``observer`` (duck-typed; see
    :class:`repro.check.races.HappensBeforeDetector`) is notified of every
    delivery and removal, giving the sanitizer a complete event stream
    without the mailbox knowing anything about vector clocks.
    """

    rank: int
    _queue: deque[Message] = field(default_factory=deque)
    observer: Any = None

    def deliver(self, message: Message) -> None:
        if message.dest != self.rank:
            raise CommunicationError(
                f"message for rank {message.dest} delivered to mailbox {self.rank}"
            )
        self._queue.append(message)
        if self.observer is not None:
            self.observer.on_mailbox_deliver(self.rank, message)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message | None:
        """Return (without removing) the first matching message, if any."""
        for msg in self._queue:
            if self._matches(msg, source, tag):
                return msg
        return None

    def matching(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> list[Message]:
        """Every queued message the (source, tag) filter matches, in order.

        This is the wildcard-receive *candidate set*: when it holds
        concurrent messages from distinct sources, which one ``pop``
        returns is an accident of delivery order.
        """
        return [m for m in self._queue if self._matches(m, source, tag)]

    def pop(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Remove and return the first matching message."""
        for i, msg in enumerate(self._queue):
            if self._matches(msg, source, tag):
                del self._queue[i]
                if self.observer is not None:
                    self.observer.on_mailbox_pop(self.rank, msg)
                return msg
        raise CommunicationError(
            f"rank {self.rank}: no message matching source={source} tag={tag}"
        )

    @staticmethod
    def _matches(msg: Message, source: int, tag: int) -> bool:
        return (source in (ANY_SOURCE, msg.source)) and (tag in (ANY_TAG, msg.tag))

    def purge(self, predicate) -> int:
        """Remove every queued message matching ``predicate``; return count.

        The observer is *not* notified — these removals model the
        network, not an application receive.
        """
        kept = deque(m for m in self._queue if not predicate(m))
        removed = len(self._queue) - len(kept)
        self._queue = kept
        return removed

    def __len__(self) -> int:
        return len(self._queue)

    def clear(self) -> None:
        self._queue.clear()
