"""Unit tests for the thread timing model and core partitioning."""

import pytest

from repro.runtime.threads import (
    amdahl_speedup,
    effective_threads,
    partition_cores,
)


class TestEffectiveThreads:
    def test_linear_up_to_core_count(self):
        # Modulo the small false-sharing penalty, <= cores is ~linear.
        assert effective_threads(8, 16, false_sharing=0.0) == 8.0

    def test_smt_gives_fractional_benefit(self):
        base = effective_threads(16, 16, false_sharing=0.0)
        smt = effective_threads(32, 16, false_sharing=0.0)
        assert base < smt < 2 * base

    def test_false_sharing_penalty(self):
        clean = effective_threads(16, 16, false_sharing=0.0)
        dirty = effective_threads(16, 16, false_sharing=0.05)
        assert dirty < clean

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_threads(0, 16)


class TestAmdahl:
    def test_no_serial_fraction_is_linear(self):
        assert amdahl_speedup(8, 0.0) == pytest.approx(8.0)

    def test_all_serial_is_one(self):
        assert amdahl_speedup(100, 1.0) == pytest.approx(1.0)

    def test_classic_limit(self):
        # 5% serial caps speed-up at 20x.
        assert amdahl_speedup(1e9, 0.05) == pytest.approx(20.0, rel=1e-6)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.5)


class TestPartitionCores:
    def test_covers_all_cores_once(self):
        parts = partition_cores(100, 7)
        seen = [i for p in parts for i in p]
        assert seen == list(range(100))

    def test_balanced_within_one(self):
        parts = partition_cores(100, 7)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_threads_than_cores(self):
        parts = partition_cores(3, 8)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 3
        assert max(sizes) == 1

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ValueError):
            partition_cores(10, 0)


class TestThreadSlicesInTheTrace:
    """A traced run with an OpenMP team shows each thread's static slice."""

    def test_one_span_per_thread_per_rank_tick_covering_the_rank(self):
        from repro.apps.quicknet import build_quickstart_network
        from repro.core.config import CompassConfig
        from repro.core.simulator import Compass
        from repro.obs import Observability

        obs = Observability.with_tracing()
        config = CompassConfig(n_processes=2, threads_per_process=3)
        Compass(build_quickstart_network(n_cores=8, seed=5), config, obs=obs).run(2)
        slices = [e for e in obs.tracer.events if e["name"] == "omp-thread"]
        assert len(slices) == 2 * 2 * 3  # ticks x ranks x threads
        rank0_tick0 = [e for e in slices if e["rank"] == 0 and e["tick"] == 0]
        assert [(e["thread"], e["args"]) for e in rank0_tick0] == [
            (t, {"core_lo": p.start, "core_hi": p.stop})
            for t, p in enumerate(partition_cores(4, 3))
        ]
