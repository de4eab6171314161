"""Unit tests for the happens-before race detector.

Covers the vector-clock algebra, the happens-before edges a rows
exchange adds (message order, the collective fence), the shared-buffer
race with its vector-clock witness, the orderings that must *not* be
flagged (fork/join), and the end-to-end contract: a sanitized Compass
run reports zero races and bit-identical spikes.
"""

import numpy as np

from repro.arch.spike import MessageRows
from repro.check.races import HappensBeforeDetector, VectorClock
from repro.core.config import CompassConfig
from repro.core.simulator import Compass
from repro.runtime.mpi import VirtualMpiCluster
from repro.runtime.threads import sanitize_thread_writes


class TestVectorClock:
    def test_tick_and_get(self):
        c = VectorClock()
        assert c.get("a") == 0
        c.tick("a")
        c.tick("a")
        assert c.get("a") == 2

    def test_merge_is_componentwise_max(self):
        a = VectorClock({"x": 3, "y": 1})
        b = VectorClock({"y": 5, "z": 2})
        a.merge(b)
        assert a.as_dict() == {"x": 3, "y": 5, "z": 2}

    def test_happens_before_after_message(self):
        sender = VectorClock()
        sender.tick("s")  # the send event
        receiver = VectorClock()
        receiver.merge(sender)
        receiver.tick("r")  # the receive event
        assert sender.happens_before(receiver)
        assert not receiver.happens_before(sender)
        assert not sender.concurrent(receiver)

    def test_concurrent_when_neither_dominates(self):
        a = VectorClock({"a": 1})
        b = VectorClock({"b": 1})
        assert a.concurrent(b)
        assert b.concurrent(a)

    def test_equal_clocks_not_happens_before(self):
        a = VectorClock({"a": 1})
        b = VectorClock({"a": 1})
        assert not a.happens_before(b)
        assert a.dominates(b) and b.dominates(a)

    def test_copy_is_independent(self):
        a = VectorClock({"a": 1})
        b = a.copy()
        b.tick("a")
        assert a.get("a") == 1 and b.get("a") == 2


def cluster_with_detector(n_ranks):
    det = HappensBeforeDetector(n_ranks)
    return VirtualMpiCluster(n_ranks, sanitizer=det), det


def rows(src, dests):
    """``src``'s rows of a tick: one one-spike message to each of ``dests``."""
    table = np.array([(src, d, i, 1) for i, d in enumerate(dests)], dtype=np.int64)
    spikes = np.zeros(len(dests), dtype=np.int64)
    key, width = table[:, 0] * 16 + table[:, 1], 16  # more ranks than any test addresses
    return MessageRows(spikes, spikes.astype(np.int32), spikes.astype(np.int32), table, key, width)


class TestMessageOrder:
    def test_rows_receive_dominates_the_send_snapshot(self):
        """A receive merges the sender's send-time clock: after rank 0
        takes rank 1's row, rank 0's clock dominates that snapshot."""
        cluster, det = cluster_with_detector(2)
        cluster.isend(rows(1, [0]))
        sent = det.clocks["rank1"].copy()
        cluster.recv(np.array([1, 0]))
        receiver = det.clocks["rank0"]
        assert receiver.dominates(sent)
        assert sent.happens_before(receiver)
        assert det.report().events == {
            "sends": 1, "deliveries": 1, "iprobes": 1, "pops": 1, "recvs": 1,
        }

    def test_collective_is_a_fence(self):
        """Every fetch merges every contribution: after a Reduce-Scatter
        each rank's clock dominates every rank's clock before it."""
        cluster, det = cluster_with_detector(3)
        cluster.isend(rows(1, [0]))
        before = [clock.copy() for clock in det.clocks.values()]
        cluster.reduce_scatter()
        cluster.reduce_scatter_fetch()
        cluster.reduce_scatter_finish()
        for clock in det.clocks.values():
            assert all(clock.dominates(b) for b in before)


class TestSharedBufferRace:
    def test_overlapping_concurrent_writes_detected(self):
        det = HappensBeforeDetector(1, threads_per_rank=2)
        t0, t1 = det.fork_threads(0, 2)
        det.on_shared_write(t0, ("pending", 0), 0, 10)
        det.on_shared_write(t1, ("pending", 0), 5, 15)
        report = det.report()
        (race,) = report.races
        assert race.kind == "shared-buffer"
        assert set(race.actors) == {t0, t1}
        a, b = (VectorClock(c) for c in race.witness.values())
        assert a.concurrent(b)

    def test_write_read_conflict_detected(self):
        det = HappensBeforeDetector(1, threads_per_rank=2)
        t0, t1 = det.fork_threads(0, 2)
        det.on_shared_write(t0, "buf", 0, 10)
        det.on_shared_read(t1, "buf", 0, 10)
        assert [r.kind for r in det.report().races] == ["shared-buffer"]

    def test_disjoint_spans_do_not_race(self):
        det = HappensBeforeDetector(1, threads_per_rank=2)
        t0, t1 = det.fork_threads(0, 2)
        det.on_shared_write(t0, "buf", 0, 10)
        det.on_shared_write(t1, "buf", 10, 20)
        assert det.report().passed

    def test_reads_never_race_reads(self):
        det = HappensBeforeDetector(1, threads_per_rank=2)
        t0, t1 = det.fork_threads(0, 2)
        det.on_shared_read(t0, "buf", 0, 10)
        det.on_shared_read(t1, "buf", 0, 10)
        assert det.report().passed

    def test_join_orders_successive_teams(self):
        """A write in tick N's team happens-before any write in tick N+1's
        team: the join/fork chain orders them, so no race."""
        det = HappensBeforeDetector(1, threads_per_rank=2)
        t0, _ = det.fork_threads(0, 2)
        det.on_shared_write(t0, "buf", 0, 10)
        det.join_threads(0, 2)
        _, t1 = det.fork_threads(0, 2)
        det.on_shared_write(t1, "buf", 0, 10)
        assert det.report().passed

    def test_sanitize_thread_writes_partition_is_race_free(self):
        det = HappensBeforeDetector(2, threads_per_rank=4)
        for tick in range(3):
            sanitize_thread_writes(det, [16, 16], n_threads=4)
        report = det.report()
        assert report.passed
        assert report.events["shared_writes"] == 3 * 2 * 4


class TestSanitizedSimulation:
    def test_sanitized_run_is_race_free_and_bit_identical(self, quicknet):
        """The paper's main loop under the sanitizer: zero races, and the
        instrumentation must not perturb the spike raster."""
        cfg = CompassConfig(n_processes=4, record_spikes=True)
        plain = Compass(quicknet, cfg)
        plain.run(40)
        sanitized = Compass(quicknet, cfg, sanitize=True)
        sanitized.run(40)
        report = sanitized.race_report()
        assert report.passed, report.format()
        assert report.events["sends"] > 0
        assert report.events["collective_contributions"] == 40 * 4
        for a, b in zip(plain.recorder.to_arrays(), sanitized.recorder.to_arrays()):
            assert np.array_equal(a, b)

    def test_unsanitized_run_has_no_detector(self, quicknet):
        sim = Compass(quicknet, CompassConfig(n_processes=2))
        assert sim.race_report() is None

    def test_pgas_backend_sanitized(self, quicknet):
        from repro.core.pgas_simulator import PgasCompass

        sim = PgasCompass(quicknet, CompassConfig(n_processes=4), sanitize=True)
        sim.run(20)
        report = sim.race_report()
        assert report.passed, report.format()
