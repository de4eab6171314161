"""Unit tests for the simulated PGAS layer."""

import pytest

from repro.errors import CommunicationError
from repro.runtime.pgas import PgasCluster


class TestPuts:
    def test_put_lands_in_destination_window(self):
        c = PgasCluster(3)
        c.endpoints[0].put(2, payload="spikes", nbytes=100)
        assert c.endpoints[2].read_window() == ["spikes"]

    def test_read_window_drains(self):
        c = PgasCluster(2)
        c.endpoints[0].put(1, "a", 1)
        c.endpoints[1].read_window()
        assert c.endpoints[1].read_window() == []

    def test_put_invalid_rank(self):
        c = PgasCluster(2)
        with pytest.raises(CommunicationError):
            c.endpoints[0].put(9, None, 0)

    def test_multiple_sources_accumulate(self):
        c = PgasCluster(3)
        c.endpoints[0].put(2, "a", 1)
        c.endpoints[1].put(2, "b", 1)
        assert sorted(c.endpoints[2].read_window()) == ["a", "b"]


class TestBarrier:
    def test_epoch_advances_when_all_arrive(self):
        c = PgasCluster(3)
        for r in range(3):
            assert c.epoch == 0
            c.endpoints[r].barrier()
        assert c.epoch == 1

    def test_double_arrival_raises(self):
        c = PgasCluster(2)
        c.endpoints[0].barrier()
        with pytest.raises(CommunicationError, match="twice"):
            c.endpoints[0].barrier()

    def test_epoch_counts_completed_barriers(self):
        c = PgasCluster(2)
        for _ in range(3):
            c.endpoints[0].barrier()
            c.endpoints[1].barrier()
        assert c.epoch == 3
