"""Bit-packing helpers for the binary synaptic crossbar.

The paper's first listed difference from the older C2 simulator (§I) is that
"the synapse is simplified to a bit, resulting in 32× less storage required
for the synapse data structure".  We honour that by storing crossbars packed
8 synapses per byte (NumPy ``packbits`` layout, big-endian within a byte),
and provide the small algebra the simulator needs on packed rows.
"""

from __future__ import annotations

import numpy as np

#: Lookup table: byte value -> number of set bits.
_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
).astype(np.uint8)


def pack_bits(dense: np.ndarray) -> np.ndarray:
    """Pack a boolean/0-1 array along its last axis, 8 entries per byte.

    ``dense`` of shape ``(..., n)`` becomes ``uint8`` of shape
    ``(..., ceil(n/8))``.  Bit 7 of byte 0 is element 0 (NumPy 'big' order).
    """
    dense = np.asarray(dense)
    return np.packbits(dense.astype(bool), axis=-1)


def unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a bool array of width ``n``."""
    packed = np.asarray(packed, dtype=np.uint8)
    # unpackbits yields 0/1 bytes, which is what bool stores: no second copy.
    return np.unpackbits(packed, axis=-1, count=n).view(bool)


def get_bit(packed: np.ndarray, index: int) -> np.ndarray:
    """Read bit ``index`` along the last axis of a packed array."""
    byte = np.asarray(packed, dtype=np.uint8)[..., index >> 3]
    shift = 7 - (index & 7)
    return ((byte >> shift) & 1).astype(bool)


def set_bit(packed: np.ndarray, index: int, value: bool | np.ndarray = True) -> None:
    """Write bit ``index`` along the last axis of a packed array, in place."""
    packed = np.asarray(packed)
    shift = 7 - (index & 7)
    bit = np.uint8(1 << shift)
    col = packed[..., index >> 3]
    value = np.asarray(value, dtype=bool)
    packed[..., index >> 3] = np.where(value, col | bit, col & ~bit)


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Number of set bits per row (sum over the last, packed axis)."""
    return _POPCOUNT8[np.asarray(packed, dtype=np.uint8)].sum(axis=-1).astype(np.int64)
