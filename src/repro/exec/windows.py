"""Shared-memory spike windows for the host-parallel pool.

The pool mirrors the paper's one-sided design (§VII) on real hardware:
every host worker owns one globally addressable window backed by
:class:`multiprocessing.shared_memory.SharedMemory`, and any worker may
*put* an encoded spike batch directly into a remote window — no
pickling through a queue, no receive-side matching.

Window layout (all offsets byte offsets into the segment):

    [record][record]...   variable-length records from offset 0

    record := header (16 B) + payload (``nbytes`` B, wire-format spikes)
    header := <i4 src_rank> <i4 dest_rank> <i4 nbytes> <i4 pad=0>

A window is a flat per-tick region: ``put`` appends at the shared
``write_pos`` under the window lock, ``drain`` walks ``[0, write_pos)``
and resets it to 0.  Two epoch separations make that sufficient.
Within a tick, the worker barrier stands between every worker's puts
and the owner's drain.  Across ticks, the parent gathers every worker's
``tick`` reply — sent after the drain — before the next ``step``, so no
put of tick *t+1* meets an undrained record of tick *t*.

``capacity`` is the most one tick can put (derived from the network by
``repro.exec.pool.window_capacity``), so a put past it is a broken
invariant and raises a typed :class:`ExecError` instead of corrupting
spikes.  Record order inside a window is arbitrary — safe because spike
delivery is a commutative bit-OR (§VII-A).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExecError

_HEADER = struct.Struct("<iiii")
HEADER_BYTES = _HEADER.size


@dataclass
class SpikeWindow:
    """One worker's shared spike window (descriptor is spawn-picklable).

    Built parent-side with :meth:`create`; workers call :meth:`attach`
    once after spawn.  The parent keeps the created handle and calls
    :meth:`unlink` at teardown.
    """

    name: str
    capacity: int
    #: Shared counter: bytes put since the last drain.
    write_pos: Any
    lock: Any
    _shm: Any = field(default=None, repr=False)

    @classmethod
    def create(cls, ctx: Any, owner: int, capacity: int) -> "SpikeWindow":
        """Allocate the segment and control state (parent side)."""
        from multiprocessing import shared_memory

        # A lone worker's window can receive nothing (capacity 0), but a
        # segment cannot be empty.
        shm = shared_memory.SharedMemory(create=True, size=max(capacity, 1))
        win = cls(
            name=shm.name,
            capacity=capacity,
            write_pos=ctx.Value("q", 0, lock=False),
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

    def put(self, src_rank: int, dest_rank: int, payload: bytes) -> None:
        """One-sided insertion of an encoded spike batch (any process)."""
        rec = _HEADER.pack(src_rank, dest_rank, len(payload), 0) + payload
        with self.lock:
            pos = self.write_pos.value
            end = pos + len(rec)
            if end > self.capacity:
                raise ExecError(
                    f"spike window overflow: {pos} B this tick + {len(rec)} B "
                    f"record exceeds the {self.capacity} B per-tick bound"
                )
            self._shm.buf[pos:end] = rec
            self.write_pos.value = end

    def drain(self) -> list[tuple[int, int, bytes]]:
        """Take this tick's records (owner only); returns (src, dest, payload)."""
        buf = self._shm.buf
        out: list[tuple[int, int, bytes]] = []
        with self.lock:
            end = self.write_pos.value
            pos = 0
            while pos < end:
                src, dest, nbytes, _pad = _HEADER.unpack_from(buf, pos)
                pos += HEADER_BYTES
                out.append((src, dest, bytes(buf[pos : pos + nbytes])))
                pos += nbytes
            self.write_pos.value = 0
        return out

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
