"""Unit tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.errors import CommunicationError
from repro.runtime.mpi import VirtualMpiCluster


class TestPointToPoint:
    def test_isend_recv(self):
        c = VirtualMpiCluster(3)
        c.endpoints[0].isend(2, payload="data", nbytes=40)
        ep2 = c.endpoints[2]
        assert ep2.iprobe()
        assert ep2.get_count() == 40
        m = ep2.recv()
        assert m.payload == "data"
        assert m.source == 0

    def test_iprobe_empty(self):
        c = VirtualMpiCluster(2)
        assert not c.endpoints[1].iprobe()

    def test_get_count_without_message_raises(self):
        c = VirtualMpiCluster(2)
        with pytest.raises(CommunicationError):
            c.endpoints[1].get_count()

    def test_send_to_invalid_rank(self):
        c = VirtualMpiCluster(2)
        with pytest.raises(CommunicationError):
            c.endpoints[0].isend(5, payload=None, nbytes=0)

    def test_pending_messages_counts_the_unreceived(self):
        c = VirtualMpiCluster(2)
        c.endpoints[0].isend(1, "a", 10)
        c.endpoints[0].isend(1, "b", 30)
        c.endpoints[1].recv()
        assert c.pending_messages() == 1


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
            for d in dests:
                c.endpoints[src].isend(d, payload=(src, d), nbytes=20)
                counts[src, d] += 1
        for r in range(4):
            c.endpoints[r].reduce_scatter(counts[r])
        for r in range(4):
            expect = c.endpoints[r].reduce_scatter_fetch()
            got = 0
            while c.endpoints[r].iprobe():
                c.endpoints[r].recv()
                got += 1
            assert got == expect
        c.reduce_scatter_finish()
        assert c.pending_messages() == 0
