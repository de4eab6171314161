"""Unit tests for the simulated PGAS layer: the tick's whole-cluster calls."""

import numpy as np
import pytest

from repro.arch.spike import MessageRows
from repro.errors import CommunicationError
from repro.runtime.pgas import PgasCluster

#: More ranks than any test addresses: the rows' pair keys are ``src * WIDTH + dst``.
WIDTH = 16


def rows(src, dst, count=None):
    """The rows of ``src`` (one source, or one per row) to ``dst``, ``count`` spikes each."""
    dst = np.asarray(dst, dtype=np.int64)
    count = np.ones_like(dst) if count is None else np.asarray(count, dtype=np.int64)
    n = int(count.sum())
    src = np.broadcast_to(np.asarray(src, dtype=np.int64), dst.shape)
    table = np.stack([src, dst, np.cumsum(count) - count, count], axis=1)
    key = np.repeat(src * WIDTH + dst, count)
    return MessageRows(
        np.arange(n, dtype=np.int64), np.zeros(n, np.int32), np.ones(n, np.int32), table, key, WIDTH
    )


class TestPuts:
    def test_put_lands_in_destination_window(self):
        c = PgasCluster(3)
        sent = rows(0, [1, 2], [3, 5])
        c.put(sent)
        got = c.windows[2]
        assert got.src.tolist() == [0] and got.nbytes.tolist() == [100]
        assert got.batch(0, tick=4) == sent.batch(1, tick=4)
        assert c.read_window().tolist() == [0, 1, 1]

    def test_read_window_drains(self):
        c = PgasCluster(2)
        c.put(rows(0, [1]))
        assert c.read_window().tolist() == [0, 1]
        assert c.read_window().tolist() == [0, 0]
        assert [len(w) for w in c.windows] == [0, 0]

    def test_put_invalid_rank(self):
        c = PgasCluster(2)
        with pytest.raises(CommunicationError):
            c.put(rows(0, [9]))
        with pytest.raises(CommunicationError):
            c.put(rows([0, 1], [1, -1]))

    def test_multiple_sources_accumulate(self):
        c = PgasCluster(3)
        c.put(rows([0, 1, 1], [2, 0, 2]))  # destinations ascend per source only
        assert c.windows[2].src.tolist() == [0, 1]
        assert c.read_window().tolist() == [1, 0, 2]


class TestBarrier:
    def test_epoch_advances_when_all_arrive(self):
        c = PgasCluster(3)
        assert c.epoch == 0
        c.barrier()
        assert c.epoch == 1

    def test_epoch_counts_completed_barriers(self):
        c = PgasCluster(2)
        for _ in range(3):
            c.barrier()
        assert c.epoch == 3


class TestReset:
    def test_reset_returns_to_a_tick_boundary(self):
        """An aborted tick's puts and window contents go; the epoch keeps
        counting."""
        c = PgasCluster(2)
        c.barrier()
        c.put(rows([0, 1], [1, 0]))
        assert [len(w) for w in c.windows] == [1, 1]  # filled, not yet drained
        c.reset()
        assert c.read_window().tolist() == [0, 0]
        c.barrier()
        assert c.epoch == 2
