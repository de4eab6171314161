"""Shared ``argparse`` type validators for the repro CLI.

Every subcommand family (run, resilience, obs, serve) takes counts that
must be positive, tolerances that must be nonzero, and structured fault
specifications.  These validators centralise the parsing and the error
messages so a bad ``--ticks`` reads identically everywhere.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable


def _number(cast: type, noun: str, allow_zero: bool) -> Callable[[str], Any]:
    """An argparse type: ``cast(text)``, refused when negative (or zero)."""
    sign = "non-negative" if allow_zero else "positive"

    def parse(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if value < 0 or (value == 0 and not allow_zero):
            raise argparse.ArgumentTypeError(
                f"expected a {sign} {noun.split()[-1]}, got {value}"
            )
        return value

    parse.__name__ = f"{sign.replace('-', '_')}_{cast.__name__}"
    return parse


#: Counts that must be >= 1 (ticks, ranks, cores).
positive_int = _number(int, "an integer", allow_zero=False)
#: Counts that may be zero but not negative (random-fault counts).
non_negative_int = _number(int, "an integer", allow_zero=True)
#: Tolerances/factors/rates that must be > 0.
positive_float = _number(float, "a number", allow_zero=False)
#: Delays/waits that may be zero but not negative.
non_negative_float = _number(float, "a number", allow_zero=True)


def _colon_spec(
    name: str, fields: str, example: str
) -> Callable[[str], tuple[int, ...]]:
    """An argparse type for ``A:B[:C]`` tuples of non-negative integers."""

    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(":")
        if len(parts) != fields.count(":") + 1:
            raise argparse.ArgumentTypeError(
                f"expected {fields} (e.g. {example}), got {text!r}"
            )
        try:
            values = tuple(int(part) for part in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {fields} as integers, got {text!r}"
            )
        if min(values) < 0:
            raise argparse.ArgumentTypeError(f"fields must be >= 0: {text!r}")
        return values

    parse.__name__ = name
    return parse


#: A ``TICK:RANK`` crash specification (e.g. ``40:1``).
crash_spec = _colon_spec("crash_spec", "TICK:RANK", "40:1")
#: A ``TICK:SRC:DEST`` message-fault specification.
message_spec = _colon_spec("message_spec", "TICK:SRC:DEST", "12:0:1")
