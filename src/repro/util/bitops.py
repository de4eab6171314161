"""Bit-packing helpers for the binary synaptic crossbar.

The paper's first listed difference from the older C2 simulator (§I) is that
"the synapse is simplified to a bit, resulting in 32× less storage required
for the synapse data structure".  We honour that by storing crossbars packed
8 synapses per byte (NumPy ``packbits`` layout, big-endian within a byte),
and provide the small algebra the simulator needs on packed rows: column sums
widen a row only to a byte a synapse.
"""

from __future__ import annotations

import numpy as np

#: Lookup table: byte value -> number of set bits.
_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, np.uint8)

#: The longest run :func:`sum_packed_runs` sums exactly: what its result counts to.
MAX_RUN_ROWS = 65535
#: The rows a byte lane sums without a carry: every run is cut into pieces this long.
LANE_ROWS = 255
#: Rows it widens at a time (256 B each at 256 bits): more would leave the cache.
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
    """Column sums of runs of packed rows, a byte lane per column.

    ``packed`` is an ``(R, B) uint8`` table of packed rows, ``rows`` the
    ``(M,)`` indices into it in run order, ``starts`` where in ``rows`` each
    of the ``G`` non-empty runs begins.  Returns ``(G, n) uint16``: row ``i``
    is ``unpack_bits(packed[rows[s:e]], n).sum(0)`` of run ``i``.

    A byte lane counts to 255, so a run longer than :data:`LANE_ROWS` is cut
    into pieces that long: its sum is its first piece plus ``np.add.at`` of
    the rest.  No run is longer than :data:`MAX_RUN_ROWS` (``CoreNetwork``
    bounds ``num_axons`` by it).
    """
    n_rows = rows.shape[0]
    # No run is longer than its call: a short call's lengths need not be taken.
    lengths = starts[:0] if n_rows <= LANE_ROWS else np.append(starts[1:], n_rows) - starts
    if lengths.max(initial=0) <= LANE_ROWS:  # every run is one piece
        return _piece_sums(packed, rows, starts, n)
    n_pieces = (lengths + (LANE_ROWS - 1)) // LANE_ROWS
    first = np.cumsum(n_pieces) - n_pieces  # each run's first piece
    run = np.repeat(np.arange(starts.size), n_pieces)  # each piece's run
    pieces = starts[run] + (np.arange(run.size) - first[run]) * LANE_ROWS
    piece_sums = _piece_sums(packed, rows, pieces, n)
    sums = piece_sums[first]
    rest = np.flatnonzero(run[1:] == run[:-1]) + 1
    np.add.at(sums, run[rest], piece_sums[rest])
    return sums


def _piece_sums(packed: np.ndarray, rows: np.ndarray, pieces: np.ndarray, n: int) -> np.ndarray:
    """:func:`sum_packed_runs` of pieces of at most :data:`LANE_ROWS` rows: a
    ``uint64`` view of ``np.unpackbits``' bytes is eight lanes, so one add
    sums eight columns.  Pieces are taken whole, ~:data:`TILE_ROWS` rows at a time."""
    n_rows, n_pieces = rows.shape[0], pieces.shape[0]
    sums = np.empty((n_pieces, n), dtype=np.uint16)
    i = 0
    while i < n_pieces:
        lo = int(pieces[i])
        # The tile ends at the first piece start TILE_ROWS or more rows on.
        j = int(pieces.searchsorted(lo + TILE_ROWS))
        hi = int(pieces[j]) if j < n_pieces else n_rows
        bits = np.unpackbits(packed.take(rows[lo:hi], axis=0).ravel()).view(np.uint64)
        lanes = np.add.reduceat(bits.reshape(hi - lo, -1), pieces[i:j] - lo, axis=0)
        del bits  # freed before the next tile's are built
        sums[i:j] = lanes.view(np.uint8)[:, :n]
        i = j
    return sums
