"""Shared-memory spike windows for the host-parallel pool.

The pool mirrors the paper's one-sided design (§VII) on real hardware:
every host worker owns one globally addressable window backed by
:class:`multiprocessing.shared_memory.SharedMemory`, and any worker may
*put* wire-format spikes directly into a remote window — no pickling
through a pipe, no receive-side matching.

Window layout: two regions of ``capacity`` bytes, one per tick parity,
each holding raw wire-format spikes (20 B each,
:data:`repro.arch.spike.SPIKE_DTYPE`) appended from its offset 0, one
put per sending worker a tick.  Nothing else is stored: the owner
decodes the bytes and delivers every spike to its own block, so no
envelope names a source or destination rank.

``put`` appends at the region's shared ``write_pos`` under the window
lock; ``drain`` takes ``[0, write_pos)`` and resets it to 0.  The
parent's gather is the only barrier: a tick-*t* put precedes its
worker's reply, and ``step t+1`` is sent after every reply, so the owner
drains region *t* % 2 whole at the start of ``step t+1`` (or before a
``capture``); a tick-*t+2* put waits for a ``step`` sent after every
tick-*t+1* reply, each of which follows its worker's drain.

``capacity`` is the most one tick can put (derived from the network by
``repro.exec.pool.window_capacity``), so a put past it is a broken
invariant and raises a typed :class:`ExecError` instead of corrupting
spikes.  Put order inside a region is arbitrary — safe because spike
delivery is a commutative bit-OR (§VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExecError


@dataclass
class SpikeWindow:
    """One worker's shared spike window (descriptor is spawn-picklable).

    Built parent-side with :meth:`create`; workers call :meth:`attach`
    once after spawn.  The parent keeps the created handle and calls
    :meth:`unlink` at teardown.
    """

    name: str
    #: Bytes of one region: the most one tick may put.
    capacity: int
    #: Shared counters, one a region: bytes put since its last drain.
    write_pos: Any
    lock: Any
    _shm: Any = field(default=None, repr=False)

    @classmethod
    def create(cls, ctx: Any, owner: int, capacity: int) -> "SpikeWindow":
        """Allocate the segment and control state (parent side)."""
        from multiprocessing import shared_memory

        # A lone worker's window can receive nothing (capacity 0), but a
        # segment cannot be empty.
        shm = shared_memory.SharedMemory(create=True, size=max(2 * capacity, 1))
        win = cls(
            name=shm.name,
            capacity=capacity,
            write_pos=ctx.Array("q", 2, lock=False),
            lock=ctx.Lock(),
        )
        win._shm = shm
        return win

    def attach(self) -> None:
        """Map the segment in this process (worker side)."""
        if self._shm is not None:
            return
        from multiprocessing import shared_memory

        try:
            # ``track=False`` (3.13+) keeps the resource tracker from
            # unlinking the parent-owned segment when a worker exits.
            # Older interpreters share one tracker across the spawn tree,
            # so the worker's attach registration is a harmless no-op and
            # the parent's unlink stays the single point of release.
            self._shm = shared_memory.SharedMemory(name=self.name, track=False)
        except TypeError:
            self._shm = shared_memory.SharedMemory(name=self.name)

    # -- the one-sided operations --------------------------------------------

    def put(self, payload: bytes, tick: int) -> None:
        """One-sided append of ``tick``'s wire-format spikes (any process)."""
        region = tick & 1
        with self.lock:
            pos = self.write_pos[region]
            end = pos + len(payload)
            if end > self.capacity:
                raise ExecError(
                    f"spike window overflow: {pos} B this tick + {len(payload)} B "
                    f"put exceeds the {self.capacity} B per-tick bound"
                )
            base = region * self.capacity
            self._shm.buf[base + pos : base + end] = payload
            self.write_pos[region] = end

    def drain(self, tick: int) -> bytes:
        """Take ``tick``'s bytes (owner only; unlocked, as no put can reach them)."""
        region = tick & 1
        base = region * self.capacity
        out = bytes(self._shm.buf[base : base + self.write_pos[region]])
        self.write_pos[region] = 0
        return out

    def clear(self) -> None:
        """Drop both regions' bytes (owner only, while no put is in flight)."""
        self.write_pos[0] = self.write_pos[1] = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Free the segment (parent side, after all workers closed it)."""
        from multiprocessing import shared_memory

        if self._shm is None:
            try:
                self._shm = shared_memory.SharedMemory(name=self.name)
            except FileNotFoundError:
                return
        shm = self._shm
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __getstate__(self) -> dict:
        # The mapped segment never crosses a process boundary; workers
        # re-attach by name.
        state = self.__dict__.copy()
        state["_shm"] = None
        return state
