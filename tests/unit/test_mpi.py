"""Unit tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.arch.spike import MessageRows
from repro.errors import CommunicationError
from repro.runtime.mpi import VirtualMpiCluster


def rows(src, dests):
    """``src``'s rows of a tick: one two-spike message to each of ``dests``."""
    table = np.array(
        [(src, d, 2 * i, 2) for i, d in enumerate(dests)], dtype=np.int64
    ).reshape(-1, 4)
    spikes = np.zeros(2 * len(dests), dtype=np.int64)
    return MessageRows(spikes, spikes.astype(np.int32), spikes.astype(np.int32), table)


class TestPointToPoint:
    def test_isend_recv(self):
        c = VirtualMpiCluster(3)
        c.endpoints[0].isend(rows(0, [2]))
        ep2 = c.endpoints[2]
        assert ep2.iprobe()
        got = ep2.recv(count=1)
        assert got.src.tolist() == [0]
        assert got.nbytes.tolist() == [40]
        assert not ep2.iprobe()

    def test_iprobe_empty(self):
        c = VirtualMpiCluster(2)
        assert not c.endpoints[1].iprobe()

    def test_send_to_invalid_rank(self):
        c = VirtualMpiCluster(2)
        with pytest.raises(CommunicationError):
            c.endpoints[0].isend(rows(0, [5]))

    def test_pending_messages_counts_the_unreceived(self):
        c = VirtualMpiCluster(3)
        c.endpoints[0].isend(rows(0, [1, 2]))
        c.endpoints[1].isend(rows(1, [2]))
        assert [c.pending(r) for r in range(3)] == [0, 1, 2]
        c.endpoints[2].recv(count=2)
        assert [c.pending(r) for r in range(3)] == [0, 1, 0]


class TestReduceScatter:
    def test_counts_sum_per_destination(self):
        c = VirtualMpiCluster(3)
        # rank r sends r messages to every destination.
        for r in range(3):
            c.endpoints[r].reduce_scatter(np.full(3, r, dtype=np.int64))
        results = [c.endpoints[r].reduce_scatter_fetch() for r in range(3)]
        assert results == [3, 3, 3]  # 0 + 1 + 2 per destination
        c.reduce_scatter_finish()

    def test_incomplete_collective_raises(self):
        c = VirtualMpiCluster(2)
        c.endpoints[0].reduce_scatter(np.zeros(2, dtype=np.int64))
        with pytest.raises(CommunicationError, match="incomplete"):
            c.endpoints[0].reduce_scatter_fetch()

    def test_double_contribution_raises(self):
        c = VirtualMpiCluster(2)
        c.endpoints[0].reduce_scatter(np.zeros(2, dtype=np.int64))
        with pytest.raises(CommunicationError, match="twice"):
            c.endpoints[0].reduce_scatter(np.zeros(2, dtype=np.int64))

    def test_wrong_shape_raises(self):
        c = VirtualMpiCluster(3)
        with pytest.raises(CommunicationError):
            c.endpoints[0].reduce_scatter(np.zeros(2, dtype=np.int64))

    def test_finish_resets_for_next_tick(self):
        c = VirtualMpiCluster(2)
        for tick in range(3):
            for r in range(2):
                c.endpoints[r].reduce_scatter(np.ones(2, dtype=np.int64))
            assert c.endpoints[0].reduce_scatter_fetch() == 2
            assert c.endpoints[1].reduce_scatter_fetch() == 2
            c.reduce_scatter_finish()

    def test_listing1_protocol(self):
        """The full Network-phase protocol: RS tells how many to receive."""
        c = VirtualMpiCluster(4)
        sends = {0: [1, 2], 1: [3], 2: [], 3: [0, 1, 2]}
        counts = np.zeros((4, 4), dtype=np.int64)
        for src, dests in sends.items():
            c.endpoints[src].isend(rows(src, dests))
            counts[src, dests] = 1
        for r in range(4):
            c.endpoints[r].reduce_scatter(counts[r])
        for r in range(4):
            ep = c.endpoints[r]
            expect = ep.reduce_scatter_fetch()
            assert ep.iprobe() == (expect > 0)
            got = ep.recv(count=expect)
            assert sorted(got.src.tolist()) == [s for s, d in sends.items() if r in d]
            assert not ep.iprobe()
        c.reduce_scatter_finish()
        assert not any(map(c.pending, range(4)))
