"""Bit-packing helpers for the binary synaptic crossbar.

The paper's first listed difference from the older C2 simulator (§I) is that
"the synapse is simplified to a bit, resulting in 32× less storage required
for the synapse data structure".  We honour that by storing crossbars packed
8 synapses per byte (NumPy ``packbits`` layout, big-endian within a byte),
and provide the small algebra the simulator needs on packed rows.
"""

from __future__ import annotations

import numpy as np

#: The eight bits of every byte value, in ``unpackbits`` order: (256, 8) 0/1.
_BITS8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)

#: Lookup table: byte value -> number of set bits.
_POPCOUNT8 = _BITS8.sum(axis=1).astype(np.uint8)

#: Lookup table: byte value -> its bits as eight 16-bit lanes of two ``uint64``
#: words.  Built and read back in memory order (``.view``): byte-order-free.
_LANES16 = _BITS8.astype(np.uint16).view(np.uint64)

#: The longest run :func:`sum_packed_runs` sums exactly: what a lane counts to.
MAX_RUN_ROWS = 65535
#: Rows it widens at a time (512 B each at 256 bits): more would leave the cache.
TILE_ROWS = 1024


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


def sum_packed_runs(
    packed: np.ndarray, rows: np.ndarray, starts: np.ndarray, n: int
) -> np.ndarray:
    """Column sums of runs of packed rows, without unpacking them.

    ``packed`` is an ``(R, B) uint8`` table of packed rows, ``rows`` the
    ``(M,)`` indices into it in run order, ``starts`` where in ``rows`` each
    of the ``G`` runs begins.  Returns ``(G, n) uint16``: row ``i`` is
    ``unpack_bits(packed[rows[s:e]], n).sum(0)`` of run ``i``.

    A byte becomes two ``uint64`` words of four 16-bit lanes, a lane per bit,
    so one add sums four columns; no run is longer than :data:`MAX_RUN_ROWS`
    (``CoreNetwork`` bounds ``num_axons`` by it), so no carry ever leaves a
    lane.  Runs are taken whole, about :data:`TILE_ROWS` rows at a time.
    """
    n_rows, n_runs = rows.shape[0], starts.shape[0]
    sums = np.empty((n_runs, n), dtype=np.uint16)
    first = 0
    while first < n_runs:
        lo = int(starts[first])
        # The tile ends at the first run start TILE_ROWS or more rows on.
        last = int(starts.searchsorted(lo + TILE_ROWS))
        hi = int(starts[last]) if last < n_runs else n_rows
        lanes = _LANES16.take(packed.take(rows[lo:hi], axis=0), axis=0).reshape(hi - lo, -1)
        words = np.add.reduceat(lanes, starts[first:last] - lo, axis=0)
        del lanes  # freed before the next tile's are built
        sums[first:last] = words.view(np.uint16)[:, :n]
        first = last
    return sums
