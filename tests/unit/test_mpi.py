"""Unit tests for the simulated MPI layer: the tick's whole-cluster calls."""

import numpy as np
import pytest

from repro.arch.spike import MessageRows
from repro.errors import CommunicationError, MessageLossError, RankFailureError
from repro.runtime.mpi import VirtualMpiCluster

#: More ranks than any test addresses: the rows' pair keys are ``src * WIDTH + dst``.
WIDTH = 16


def rows(sends):
    """A tick's rows: one two-spike message per (src, dst) of ``sends``,
    ascending by source as the simulator posts them."""
    table = np.array(
        [(src, d, 2 * i, 2) for i, (src, d) in enumerate(sends)], dtype=np.int64
    ).reshape(-1, 4)
    spikes = np.zeros(2 * len(sends), dtype=np.int64)
    key = np.repeat(table[:, 0] * WIDTH + table[:, 1], 2)
    return MessageRows(spikes, spikes.astype(np.int32), spikes.astype(np.int32), table, key, WIDTH)


class TestPointToPoint:
    def test_isend_recv(self):
        c = VirtualMpiCluster(3)
        c.isend(rows([(0, 2)]))
        assert c.iprobe().tolist() == [0, 0, 1]
        assert c.recv(np.array([0, 0, 1])).tolist() == [0, 0, 1]
        assert not c.iprobe().any()

    def test_iprobe_empty(self):
        c = VirtualMpiCluster(2)
        assert not c.iprobe().any()
        c.isend(rows([]))
        assert not c.iprobe().any()

    def test_send_to_invalid_rank(self):
        c = VirtualMpiCluster(2)
        with pytest.raises(CommunicationError):
            c.isend(rows([(0, 5)]))
        with pytest.raises(CommunicationError):
            c.isend(rows([(0, -1)]))

    def test_destinations_need_not_ascend(self):
        """The tick's ``dst`` ascends per source only; the range check is
        over all of it."""
        c = VirtualMpiCluster(3)
        c.isend(rows([(0, 2), (1, 0), (1, 1)]))
        assert c.iprobe().tolist() == [1, 1, 1]
        with pytest.raises(CommunicationError):
            c.isend(rows([(0, 1), (1, 0), (2, 3)]))

    def test_pending_messages_counts_the_unreceived(self):
        c = VirtualMpiCluster(3)
        c.isend(rows([(0, 1), (0, 2), (1, 2)]))
        assert c.iprobe().tolist() == [0, 1, 2]
        c.recv(np.array([0, 1, 2]))
        assert c.iprobe().tolist() == [0, 0, 0]

    def test_a_new_post_starts_a_new_exchange(self):
        c = VirtualMpiCluster(2)
        c.isend(rows([(0, 1)]))
        c.isend(rows([(1, 0)]))
        assert c.iprobe().tolist() == [1, 0]


class TestLossAndFaults:
    def test_a_short_receive_is_a_lost_message(self):
        c = VirtualMpiCluster(3)
        c.isend(rows([(0, 2)]))
        with pytest.raises(MessageLossError, match="rank 1") as err:
            c.recv(np.array([0, 1, 2]))
        assert err.value.ranks == (1,)  # the ranks below it received

    def test_the_first_short_rank_is_named(self):
        c = VirtualMpiCluster(4)
        c.isend(rows([(0, 3)]))
        with pytest.raises(MessageLossError, match="rank 2"):
            c.recv(np.array([0, 0, 1, 2]))

    def test_a_promise_on_an_empty_exchange_is_a_lost_message(self):
        """Nothing posted skips the arrival count, not the loss check."""
        c = VirtualMpiCluster(3)
        c.isend(rows([]))
        assert c.recv(np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0]
        c.isend(rows([]))
        with pytest.raises(MessageLossError, match="rank 1"):
            c.recv(np.array([0, 1, 0]))

    def test_a_promise_past_the_posted_rows_is_a_lost_message(self):
        """The probe reuses the collective's count of the posted rows only
        while every row arrived once: promised more than the rows hold, or
        with a row dropped, the receive still comes up short."""
        from repro.resilience import FaultInjector, FaultSchedule, MessageDrop

        c = VirtualMpiCluster(3)
        posted = rows([(0, 2), (1, 2)])
        c.isend(posted)
        c.reduce_scatter()  # the posted rows' own count: reused
        assert c.reduce_scatter_fetch().tolist() == c.iprobe().tolist() == [0, 0, 2]
        c.reduce_scatter_finish()
        with pytest.raises(MessageLossError, match="rank 1"):
            c.recv(np.array([0, 1, 2]))  # a promise nothing keeps
        c.injector = FaultInjector(FaultSchedule([MessageDrop(tick=0, source=1, dest=2)]))
        c.injector.begin_tick(c, 0)
        c.isend(posted)
        c.reduce_scatter()
        expected = c.reduce_scatter_fetch()
        c.reduce_scatter_finish()
        assert c.iprobe().tolist() == [0, 0, 1] != expected.tolist()  # counted afresh
        with pytest.raises(MessageLossError, match="rank 2"):
            c.recv(expected)

    def test_a_row_to_a_dead_rank_never_arrives(self):
        c = VirtualMpiCluster(3)
        c.fail_rank(2)
        c.isend(rows([(0, 1), (0, 2)]))
        assert c.iprobe().tolist() == [0, 1, 0]

    def test_a_dead_source_fails_its_post(self):
        c = VirtualMpiCluster(3)
        c.fail_rank(1)
        c.isend(rows([(0, 2)]))  # a rank with no rows posts nothing
        with pytest.raises(RankFailureError, match="rank 1 crashed before posting"):
            c.isend(rows([(0, 2), (1, 0)]))

    def test_faults_around_a_dead_source(self):
        """Sources below the dead one post first and take their faults; a
        fault on a row after it stays armed."""
        from repro.resilience import FaultInjector, FaultSchedule, MessageDrop

        c = VirtualMpiCluster(4)
        c.fail_rank(2)
        c.injector = FaultInjector(FaultSchedule([
            MessageDrop(tick=0, source=0, dest=1), MessageDrop(tick=0, source=3, dest=0),
        ]))
        c.injector.begin_tick(c, 0)
        with pytest.raises(RankFailureError, match="rank 2 crashed before posting"):
            c.isend(rows([(0, 1), (2, 0), (3, 0)]))
        assert c.injector.dropped == 1
        assert c.injector.armed and list(c.injector._armed) == [(3, 0)]

    def test_a_duplicate_is_queued_and_taken_with_its_original(self):
        from repro.resilience import FaultInjector, FaultSchedule, MessageDuplicate

        c = VirtualMpiCluster(3)
        c.injector = FaultInjector(FaultSchedule([MessageDuplicate(tick=0, source=0, dest=2)]))
        c.injector.begin_tick(c, 0)
        c.isend(rows([(0, 1), (0, 2)]))
        assert c.iprobe().tolist() == [0, 1, 2]
        assert c.recv(np.array([0, 1, 1])).tolist() == [0, 1, 2]
        assert not c.iprobe().any()
        assert c.injector.duplicated == 1

    def test_a_corrupted_row_fails_its_checksum_on_receive(self):
        from repro.errors import MessageCorruptionError
        from repro.resilience import FaultInjector, FaultSchedule, MessageCorruption

        c = VirtualMpiCluster(3)
        c.injector = FaultInjector(FaultSchedule([MessageCorruption(tick=0, source=1, dest=0)]))
        c.injector.begin_tick(c, 0)
        c.isend(rows([(0, 2), (1, 0)]))
        with pytest.raises(MessageCorruptionError, match="rank 0: payload from rank 1") as err:
            c.recv(np.array([1, 0, 1]))
        assert err.value.ranks == (0,)

    def test_reset_revives_and_empties(self):
        c = VirtualMpiCluster(2)
        c.fail_rank(1)
        c.isend(rows([(0, 1)]))
        c.reset()
        assert not c.dead and not c.iprobe().any()
        with pytest.raises(CommunicationError):
            c.fail_rank(2)


class TestReduceScatter:
    def test_counts_sum_per_destination(self):
        c = VirtualMpiCluster(3)
        # rank r sends r messages to every destination.
        c.isend(rows([(r, d) for r in range(3) for d in range(3) for _ in range(r)]))
        c.reduce_scatter()
        assert c.reduce_scatter_fetch().tolist() == [3, 3, 3]  # 0 + 1 + 2 per destination

    def test_no_messages_promise_nothing(self):
        """A tick without messages promises every rank zero, from one
        shared read-only array."""
        c = VirtualMpiCluster(3)
        c.isend(rows([]))
        c.reduce_scatter()
        expected = c.reduce_scatter_fetch()
        assert expected.tolist() == [0, 0, 0] and not expected.flags.writeable

    def test_incomplete_collective_raises(self):
        """A dead rank never contributes: the live ranks time out."""
        c = VirtualMpiCluster(3)
        c.fail_rank(1)
        c.isend(rows([(0, 2), (2, 0)]))
        with pytest.raises(RankFailureError, match="timed out") as err:
            c.reduce_scatter()
        assert err.value.ranks == (1,)
        with pytest.raises(CommunicationError, match="before every rank contributed"):
            c.reduce_scatter_fetch()

    def test_fetch_before_contribution_raises(self):
        with pytest.raises(CommunicationError, match="before every rank contributed"):
            VirtualMpiCluster(2).reduce_scatter_fetch()

    def test_finish_resets_for_next_tick(self):
        """Nothing carries to the next tick's collective."""
        c = VirtualMpiCluster(2)
        for tick in range(3):
            c.isend(rows(sorted([(s, d) for s in range(2) for d in range(2)] * tick)))
            c.reduce_scatter()
            assert c.reduce_scatter_fetch().tolist() == [2 * tick, 2 * tick]
            c.reduce_scatter_finish()
            with pytest.raises(CommunicationError):
                c.reduce_scatter_fetch()

    def test_listing1_protocol(self):
        """The full Network-phase protocol: RS tells how many to receive."""
        c = VirtualMpiCluster(4)
        sends = [(0, 1), (0, 2), (1, 3), (3, 0), (3, 1), (3, 2)]
        c.isend(rows(sends))
        c.reduce_scatter()
        expect = c.reduce_scatter_fetch()
        c.reduce_scatter_finish()
        assert expect.tolist() == [1, 2, 2, 1]
        assert ((c.iprobe() > 0) == (expect > 0)).all()
        assert c.recv(expect).tolist() == expect.tolist()
        assert not c.iprobe().any()
