"""Core → process partitioning.

§III: "each process in Compass ... uses an implicit TrueNorth core to
process map".  We use the same contiguous block map: process *p* owns a
contiguous gid range, computable in O(1) from the gid — no lookup tables
cross process boundaries.  The PCC lays regions out contiguously in gid
space precisely so this map keeps each functional region on as few
processes as necessary (§IV).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_positive


class Partition:
    """Contiguous partition of ``n_cores`` gids over ``n_ranks``.

    The default split is uniform: the first ``n_cores % n_ranks`` ranks own
    one extra core, matching the thread partition rule and keeping the map
    implicit.  :meth:`from_boundaries` builds the region-aligned partitions
    the PCC emits (§V: "We simulate each brain region using non-overlapping
    sets of 1 or more processes").
    """

    def __init__(self, n_cores: int, n_ranks: int) -> None:
        check_positive("n_cores", n_cores)
        check_positive("n_ranks", n_ranks)
        self.require_spread(n_cores, n_ranks)
        self.n_cores = int(n_cores)
        self.n_ranks = int(n_ranks)
        base, extra = divmod(self.n_cores, self.n_ranks)
        #: First gid of each rank, plus the end sentinel (length n_ranks+1).
        starts = np.zeros(self.n_ranks + 1, dtype=np.int64)
        sizes = np.full(self.n_ranks, base, dtype=np.int64)
        sizes[:extra] += 1
        starts[1:] = np.cumsum(sizes)
        self._starts = starts

    @staticmethod
    def require_spread(n_cores: int, n_ranks: int) -> None:
        """Raise :class:`ConfigurationError` unless every rank can own a core.

        The one statement of the rule; layers that must refuse a layout
        before building anything (``SimServer.submit``) ask here.
        """
        if n_ranks > n_cores:
            raise ConfigurationError(
                f"cannot spread {n_cores} cores over {n_ranks} ranks: "
                "every rank must own at least one core"
            )

    @classmethod
    def from_boundaries(cls, starts: np.ndarray) -> "Partition":
        """Build a partition from explicit rank start offsets.

        ``starts`` has length ``n_ranks + 1`` with ``starts[0] == 0``,
        strictly increasing, and ``starts[-1] == n_cores``.
        """
        starts = np.asarray(starts, dtype=np.int64)
        if starts.ndim != 1 or starts.size < 2:
            raise ValueError("boundaries must be a 1-D array of length >= 2")
        if starts[0] != 0 or np.any(np.diff(starts) <= 0):
            raise ValueError("boundaries must start at 0 and strictly increase")
        part = cls.__new__(cls)
        part.n_cores = int(starts[-1])
        part.n_ranks = starts.size - 1
        part._starts = starts.copy()
        return part

    def range_of_rank(self, rank: int) -> tuple[int, int]:
        """gid interval [lo, hi) owned by ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return int(self._starts[rank]), int(self._starts[rank + 1])

    def size_of_rank(self, rank: int) -> int:
        lo, hi = self.range_of_rank(rank)
        return hi - lo

    def rank_of_gid(self, gid: np.ndarray | int) -> np.ndarray | int:
        """Owning rank(s) for gid(s) — the implicit map, vectorised."""
        gids = np.asarray(gid, dtype=np.int64)
        if gids.size and (gids.min() < 0 or gids.max() >= self.n_cores):
            raise ValueError("gid out of range")
        ranks = np.searchsorted(self._starts, gids, side="right") - 1
        if np.isscalar(gid) or (isinstance(gid, np.ndarray) and gid.ndim == 0):
            return int(ranks)
        return ranks

    def ranks_of_range(self, gid_lo: int, gid_hi: int) -> range:
        """All ranks overlapping the gid interval [lo, hi)."""
        if gid_lo >= gid_hi:
            return range(0)
        first = int(self.rank_of_gid(gid_lo))
        last = int(self.rank_of_gid(gid_hi - 1))
        return range(first, last + 1)

    def __iter__(self):
        for rank in range(self.n_ranks):
            yield self.range_of_rank(rank)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Partition(cores={self.n_cores}, ranks={self.n_ranks})"
