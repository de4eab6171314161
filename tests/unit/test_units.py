"""Unit tests for formatting and unit helpers."""

from repro.util.units import (
    SPIKE_BYTES,
    fmt_bytes,
    fmt_count,
)


class TestFormatting:
    def test_fmt_count_suffixes(self):
        assert fmt_count(256e6) == "256M"
        assert fmt_count(65e9) == "65B"
        assert fmt_count(16e12) == "16T"
        assert fmt_count(1500) == "1.5K"
        assert fmt_count(12) == "12"

    def test_fmt_bytes(self):
        assert fmt_bytes(2048) == "2 KiB"
        assert fmt_bytes(3 * 2**30) == "3 GiB"
        assert fmt_bytes(10) == "10 B"


class TestSlowdown:
    def test_spike_wire_size_matches_paper(self):
        assert SPIKE_BYTES == 20
