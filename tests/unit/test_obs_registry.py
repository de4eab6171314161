"""Unit tests for the metric registry (repro.obs.registry)."""

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricRegistry


class TestCounter:
    def test_per_rank_and_total(self):
        c = Counter("spikes")
        c.inc(0, 3)
        c.inc(1, 5)
        c.inc(0)
        assert c.value(0) == 4
        assert c.value(1) == 5
        assert c.value(7) == 0
        assert c.total() == 9
        assert c.ranks() == [0, 1]

    def test_negative_increment_rejected(self):
        c = Counter("spikes")
        with pytest.raises(ValueError, match="negative increment"):
            c.inc(0, -1)

    def test_snapshot_roundtrip(self):
        c = Counter("spikes")
        c.inc(0, 3)
        snap = c.snapshot()
        c.inc(0, 4)
        c.restore(snap)
        assert c.value(0) == 3


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("depth")
        g.set(0, 5)
        g.set(0, 2)
        g.set(1, 9)
        assert g.value(0) == 2
        assert g.value(1) == 9
        assert g.total() == 11


class TestHistogram:
    def test_binning_is_bisect_left(self):
        h = Histogram("msg", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 2.0, 10.0, 11.0):
            h.observe(0, v)
        # le-edges: value == edge lands in that bucket (bisect_left).
        assert h.counts(0) == [2, 2, 1]
        assert h.count(0) == 5
        assert h.sum(0) == pytest.approx(24.5)

    def test_cumulative_ends_at_inf(self):
        h = Histogram("msg", buckets=(1.0, 10.0))
        h.observe(0, 0.5)
        h.observe(1, 99.0)
        cum = h.cumulative()
        assert cum[-1][0] == float("inf")
        assert cum == [(1.0, 1), (10.0, 1), (float("inf"), 2)]

    def test_reduced_counts_sum_ranks(self):
        h = Histogram("msg", buckets=(1.0,))
        h.observe(0, 0.0)
        h.observe(1, 5.0)
        assert h.counts() == [1, 1]
        assert h.count() == 2

    def test_an_integer_row_looks_its_buckets_up(self):
        """A long row of small non-negative ints takes the bucket table,
        which grows with the largest value; one past the table, a
        negative or a float row is searched.  All bin as ``observe``."""
        rng = np.random.default_rng(7)
        rows = [
            rng.choice([0, 1, 2, 9, 10, 11], 100),  # on and beside the edges
            rng.integers(0, 3000, 100),  # the table grows
            rng.integers(0, 10**5, 100),  # past the table
            rng.integers(-20, 20, 100),
            rng.integers(0, 20, 100).astype(np.float64),
        ]
        by_row, by_call = Histogram("h", (1.0, 10.0, 2500.5)), Histogram("h", (1.0, 10.0, 2500.5))
        for values in rows:
            ranks = rng.integers(0, 4, len(values))
            by_row.observe_each(ranks, values)
            for rank, value in zip(ranks.tolist(), values.tolist()):
                by_call.observe(rank, value)
            assert by_row.snapshot() == by_call.snapshot()

    def test_nan_observation_rejected(self):
        h = Histogram("msg", buckets=(0.0, 1.0))
        with pytest.raises(ValueError, match="histogram msg: NaN"):
            h.observe(0, float("nan"))
        with pytest.raises(ValueError, match="histogram msg: NaN"):
            h.observe_each((1,), (float("nan"),))
        assert h.count() == 0

    def test_needs_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("msg", buckets=())


class TestRegistry:
    def test_accessors_idempotent_and_kind_checked(self):
        reg = MetricRegistry()
        c = reg.counter("a", help="h")
        assert reg.counter("a") is c
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("a")
        with pytest.raises(KeyError, match="no instrument"):
            reg.get("missing")
        assert "a" in reg
        assert len(reg) == 1

    def test_collect_sorted(self):
        reg = MetricRegistry()
        reg.counter("zz")
        reg.gauge("aa")
        assert [i.name for i in reg.collect()] == ["aa", "zz"]

    def test_snapshot_prefix_scopes_rollback(self):
        """compass_* rolls back; resilience meta-counters stay monotone."""
        reg = MetricRegistry()
        reg.counter("compass_fired_total").inc(0, 10)
        reg.counter("resilience_checkpoints_total").inc(-1, 1)
        snap = reg.snapshot(prefix="compass_")
        assert list(snap) == ["compass_fired_total"]
        reg.counter("compass_fired_total").inc(0, 99)
        reg.counter("resilience_checkpoints_total").inc(-1, 1)
        reg.restore(snap)
        assert reg.counter("compass_fired_total").value(0) == 10
        assert reg.counter("resilience_checkpoints_total").value(-1) == 2

    def test_restore_ignores_unknown_names(self):
        reg = MetricRegistry()
        reg.restore({"never_registered": {"values": {0: 1}}})
        assert "never_registered" not in reg
