"""Unit tests for the metric registry (repro.obs.registry)."""

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
        assert g.max() == 9
        assert g.total() == 11

    def test_empty_max(self):
        assert Gauge("depth").max() == 0.0


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

    def test_observe_row_equals_one_observe_each(self):
        """Same bins and the same float sum, added in the same order."""
        values = [0.1, 0.2, 0.3, 1e16, 1.0, 10.0, 11.0, 0.7]
        one_by_one = Histogram("msg", buckets=(1.0, 10.0))
        by_row = Histogram("msg", buckets=(1.0, 10.0))
        for h in (one_by_one, by_row):
            h.observe(3, 0.25)
        for v in values:
            one_by_one.observe(3, v)
        by_row.observe_row(3, values)
        by_row.observe_row(3, [])
        assert by_row.snapshot() == one_by_one.snapshot()

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
