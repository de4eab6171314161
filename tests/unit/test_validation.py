"""Unit tests for validation helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_positive,
    check_range,
    require,
)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ConfigurationError, match="bad thing"):
            require(False, "bad thing")


class TestCheckRange:
    def test_within(self):
        assert check_range("x", 5, 0, 10) == 5

    def test_boundaries_inclusive(self):
        check_range("x", 0, 0, 10)
        check_range("x", 10, 0, 10)

    def test_below(self):
        with pytest.raises(ConfigurationError, match="below minimum"):
            check_range("x", -1, 0, 10)

    def test_above(self):
        with pytest.raises(ConfigurationError, match="above maximum"):
            check_range("x", 11, 0, 10)

    def test_open_bounds(self):
        check_range("x", 1e9, 0, None)
        check_range("x", -1e9, None, 0)


class TestCheckPositive:
    def test_positive(self):
        assert check_positive("n", 3) == 3

    def test_zero_and_negative(self):
        for bad in (0, -1, -0.5):
            with pytest.raises(ConfigurationError):
                check_positive("n", bad)

