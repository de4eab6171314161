"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless condition."""
    if not condition:
        raise ConfigurationError(message)


def check_range(name: str, value: Any, lo: Any = None, hi: Any = None) -> Any:
    """Check ``lo <= value <= hi`` (either bound may be None) and return it."""
    if lo is not None and value < lo:
        raise ConfigurationError(f"{name}={value!r} below minimum {lo!r}")
    if hi is not None and value > hi:
        raise ConfigurationError(f"{name}={value!r} above maximum {hi!r}")
    return value


def check_positive(name: str, value: Any) -> Any:
    """Check ``value > 0`` and return it."""
    if not value > 0:
        raise ConfigurationError(f"{name}={value!r} must be positive")
    return value

