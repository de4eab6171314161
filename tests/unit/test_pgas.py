"""Unit tests for the simulated PGAS layer."""

import numpy as np
import pytest

from repro.arch.spike import MessageRows
from repro.errors import CommunicationError
from repro.runtime.pgas import PgasCluster


def rows(src, dst, count=None):
    """``src``'s rows to the ascending ``dst``, ``count`` spikes each."""
    dst = np.asarray(dst, dtype=np.int64)
    count = np.ones_like(dst) if count is None else np.asarray(count, dtype=np.int64)
    n = int(count.sum())
    table = np.stack([np.full_like(dst, src), dst, np.cumsum(count) - count, count], axis=1)
    return MessageRows(
        np.arange(n, dtype=np.int64), np.zeros(n, np.int32), np.ones(n, np.int32), table
    )


class TestPuts:
    def test_put_lands_in_destination_window(self):
        c = PgasCluster(3)
        sent = rows(0, [1, 2], [3, 5])
        c.endpoints[0].put(sent)
        got = c.endpoints[2].read_window()
        assert got.src.tolist() == [0] and got.nbytes.tolist() == [100]
        assert got.batch(0, tick=4) == sent.batch(1, tick=4)

    def test_read_window_drains(self):
        c = PgasCluster(2)
        c.endpoints[0].put(rows(0, [1]))
        c.endpoints[1].read_window()
        assert len(c.endpoints[1].read_window()) == 0

    def test_put_invalid_rank(self):
        c = PgasCluster(2)
        with pytest.raises(CommunicationError):
            c.endpoints[0].put(rows(0, [9]))

    def test_multiple_sources_accumulate(self):
        c = PgasCluster(3)
        c.endpoints[0].put(rows(0, [2]))
        c.endpoints[1].put(rows(1, [0, 2]))
        assert c.endpoints[2].read_window().src.tolist() == [0, 1]


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


class TestReset:
    def test_reset_returns_to_a_tick_boundary(self):
        """An aborted tick's puts, window contents and barrier arrivals go;
        the epoch keeps counting."""
        c = PgasCluster(2)
        c.endpoints[0].barrier()
        c.endpoints[1].barrier()
        c.endpoints[0].put(rows(0, [1]))
        assert len(c.windows[1]) == 1  # filled, not yet drained
        c.endpoints[1].put(rows(1, [0]))  # pending
        c.endpoints[0].barrier()
        c.reset()
        assert [len(ep.read_window()) for ep in c.endpoints] == [0, 0]
        c.endpoints[0].barrier()  # not a second arrival
        c.endpoints[1].barrier()
        assert c.epoch == 2
