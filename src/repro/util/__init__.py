"""Low-level utilities: deterministic PRNGs, bit packing, units, statistics."""

from repro.util.rng import Lcg32, LcgArray, derive_seed
from repro.util.bitops import (
    pack_bits,
    unpack_bits,
    get_bit,
    set_bit,
    popcount_rows,
)
from repro.util.runs import run_starts

__all__ = [
    "Lcg32",
    "LcgArray",
    "derive_seed",
    "pack_bits",
    "unpack_bits",
    "get_bit",
    "set_bit",
    "popcount_rows",
    "run_starts",
]
