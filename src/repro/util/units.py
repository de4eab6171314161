"""Unit helpers: human-readable counts and sizes, and the spike wire size.

The performance layer reports numbers at Blue Gene scale (GB/tick, racks,
hundreds of seconds); these helpers keep the report code tidy and make the
benchmark output self-describing.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024**2
GIB = 1024**3
TIB = 1024**4

#: Spike wire format size used by the paper's bandwidth estimate (§VI-B).
SPIKE_BYTES = 20


def fmt_count(n: float) -> str:
    """Format a count with K/M/B/T suffix, matching the paper's usage."""
    n = float(n)
    for factor, suffix in ((1e12, "T"), (1e9, "B"), (1e6, "M"), (1e3, "K")):
        if abs(n) >= factor:
            return f"{n / factor:.3g}{suffix}"
    return f"{n:.3g}"


def fmt_bytes(n: float) -> str:
    """Format a byte count in binary units."""
    n = float(n)
    for factor, suffix in ((TIB, "TiB"), (GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if abs(n) >= factor:
            return f"{n / factor:.3g} {suffix}"
    return f"{n:.3g} B"
