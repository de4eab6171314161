"""Named metric instruments with per-rank and reduced cluster-wide views.

The registry is the one home of per-rank counters — nothing on the
simulator's rank span or in the clusters keeps a second copy — with
three instrument kinds:

* :class:`Counter` — monotone per-rank accumulators (spikes, messages,
  bytes, checkpoints);
* :class:`Gauge` — last-written per-rank values (mailbox queue depth);
* :class:`Histogram` — fixed-bucket distributions (messages/tick,
  bytes/send, spikes/core) whose bucket edges are declared up front so
  two runs always bin identically.

Values are keyed by rank (``-1`` is the cluster-wide key used by
whole-tick observations).  Every reduction iterates ranks in sorted
order, so floating-point sums are deterministic.  Registries support
:meth:`MetricRegistry.snapshot`/:meth:`MetricRegistry.restore`, which the
resilience checkpoints use to roll instrument state back together with
simulator state — after a recovery, registry counters match a fault-free
run bit for bit.

Instrument accessors are idempotent: asking for an existing name returns
the existing instrument (kind-checked), so simulators that share a bundle
continue one series and a reader can look an instrument up by name.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

#: Longest row :meth:`Histogram.observe_each` takes one element at a time:
#: Python scalars bisect, hash and add fastest, while the whole-array
#: calls past it cost ~15 µs however short the row (the two meet at 20-30
#: values on a 2-core host).
_ROW_CUT = 24

#: Past this value an integer row's buckets are searched, not looked up.
_INT_TABLE = 1 << 12


def _keys(keys: Sequence[int]) -> np.ndarray:
    """A row's keys as one ``int64`` array; a ``range`` without a Python step."""
    if isinstance(keys, range):
        return np.arange(keys.start, keys.stop, keys.step)
    return np.asarray(keys, dtype=np.int64)


class _Instrument:
    kind = ""

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit

    def ranks(self) -> list[int]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        raise NotImplementedError

    def restore(self, snap: dict[str, Any]) -> None:
        raise NotImplementedError


class _Cells(_Instrument):
    """One value cell per rank: the store :class:`Counter` and :class:`Gauge` share."""

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit)
        self._values: dict[int, float] = {}

    def value(self, rank: int = -1) -> float:
        return self._values.get(rank, 0)

    def total(self) -> float:
        return sum(self._values[r] for r in sorted(self._values))

    def ranks(self) -> list[int]:
        return sorted(self._values)

    def snapshot(self) -> dict[str, Any]:
        return {"values": dict(self._values)}

    def restore(self, snap: dict[str, Any]) -> None:
        self._values = dict(snap["values"])


class Counter(_Cells):
    """Monotone accumulator with one cell per rank."""

    kind = "counter"

    def inc(self, rank: int = -1, value: float = 1) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name}: negative increment {value}")
        self._values[rank] = self._values.get(rank, 0) + value

    def inc_row(self, ranks: Iterable[int], values: Iterable[float]) -> None:
        """Add ``values[i]`` to ``ranks[i]``, in order: equal to one :meth:`inc` each."""
        cells = self._values
        for rank, value in zip(ranks, values):
            if value < 0:
                raise ValueError(f"counter {self.name}: negative increment {value}")
            cells[rank] = cells.get(rank, 0) + value


class Gauge(_Cells):
    """Last-written value per rank (queue depths, window sizes)."""

    kind = "gauge"

    def set(self, rank: int, value: float) -> None:
        self._values[rank] = value

    def set_row(self, ranks: Iterable[int], values: Iterable[float]) -> None:
        """Set ``ranks[i]`` to ``values[i]``, in order: equal to one :meth:`set` each."""
        self._values.update(zip(ranks, values))


class Histogram(_Instrument):
    """Fixed-bucket distribution with per-rank counts.

    ``buckets`` are upper bounds (``le`` edges); observations above the
    last edge land in the implicit overflow bucket.  Bucket edges are
    frozen at creation so different runs — and different ranks — always
    bin identically, which keeps reduced views associative.

    The counts are one ``(keys, B + 1)`` ``int64`` table and the sums one
    ``float64`` vector, a row per key in the order keys were first
    observed; nothing is allocated before the first observation.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...],
        help: str = "",
        unit: str = "",
    ) -> None:
        super().__init__(name, help, unit)
        if not buckets:
            raise ValueError(f"histogram {self.name}: needs at least one bucket edge")
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        self._width = len(self.buckets) + 1
        #: Bucket of each int 0, 1, ..., built on the first integer row.
        self._by_int: np.ndarray | None = None
        self._clear()

    def _clear(self) -> None:
        #: Key -> table row, in first-observed order.
        self._rows: dict[int, int] = {}
        self._counts = self._sums = self._index = None

    def _add(self, key: int) -> int:
        """Give ``key`` the next row, growing the tables when they are full."""
        row = self._rows[key] = len(self._rows)
        if self._sums is None or row == len(self._sums):
            counts = np.zeros((max(8, 2 * row), self._width), dtype=np.int64)
            sums = np.zeros(len(counts))
            if row:
                counts[:row], sums[:row] = self._counts, self._sums
            self._counts, self._sums, self._edges = counts, sums, np.array(self.buckets)
            # One-element writes go through flat memoryviews of the tables,
            # a fraction of what a numpy scalar write costs.
            self._cells, self._totals = memoryview(counts.reshape(-1)), memoryview(sums)
        self._index = None
        return row

    def _rows_of(self, keys: np.ndarray) -> np.ndarray:
        """Each key's row; keys not seen before get theirs in order of appearance."""
        rows = self._lookup(keys)
        if rows.min() < 0:
            for key in dict.fromkeys(keys[rows < 0].tolist()):
                if key not in self._rows:
                    self._add(key)
            rows = self._lookup(keys)
        return rows

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Each key's row by one ``take`` from a table over the span of the
        keys seen (ranks: a small span); -1 for a key not seen."""
        if self._index is None:
            known = np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))
            lo = int(known.min(initial=0)) - 1  # -1 on both sides of the span
            table = np.full(int(known.max(initial=0)) - lo + 2, -1)
            table[known - lo] = np.arange(known.size)
            self._index = lo, table
        lo, table = self._index
        return table.take(keys - lo, mode="clip")

    def observe(self, rank: int, value: float) -> None:
        if value != value:  # NaN: no bucket holds it, and it would poison the sum
            raise ValueError(f"histogram {self.name}: NaN observation")
        row = self._rows.get(rank)
        if row is None:
            row = self._add(rank)
        self._cells[row * self._width + bisect_left(self.buckets, value)] += 1
        self._totals[row] += value

    def observe_each(self, ranks: Sequence[int], values: Sequence[float]) -> None:
        """Observe ``values[i]`` on ``ranks[i]``, in order: equal to one
        :meth:`observe` each.

        A row longer than :data:`_ROW_CUT` is one bucket lookup, one count
        of (row, bucket) cells and one in-order add of the sums, so each
        sum adds its values in the order the loop would.
        """
        if len(values) <= _ROW_CUT:
            # Python scalars bisect, hash and add fastest.
            ranks = ranks.tolist() if isinstance(ranks, np.ndarray) else ranks
            values = values.tolist() if isinstance(values, np.ndarray) else values
            for rank, value in zip(ranks, values):
                self.observe(rank, value)
            return
        values = np.asarray(values)
        if values.dtype.kind == "f" and np.isnan(values).any():
            raise ValueError(f"histogram {self.name}: NaN observation")
        rows = self._rows_of(_keys(ranks))
        cells = rows * self._width + self._bucket(values)
        n = len(self._rows) * self._width
        self._counts.reshape(-1)[:n] += np.bincount(cells, minlength=n)
        # ufunc.at is fast only when it needs no cast.
        np.add.at(self._sums, rows, values.astype(np.float64, copy=False))

    def _bucket(self, values: np.ndarray) -> np.ndarray:
        """Each value's ``bisect_left`` bucket: for a row of small
        non-negative ints (message sizes) one ``take`` from a table over
        0, 1, ..., else one search."""
        if values.dtype.kind in "iu" and values.min() >= 0:
            top = int(values.max())
            if top < _INT_TABLE:
                if self._by_int is None or len(self._by_int) <= top:
                    self._by_int = self._edges.searchsorted(np.arange(min(2 * top + 1, _INT_TABLE)))
                return self._by_int.take(values)
        return self._edges.searchsorted(values.astype(np.float64, copy=False))

    def counts(self, rank: int | None = None) -> list[int]:
        """Raw per-bucket counts for ``rank``, or reduced over all ranks."""
        if rank is None and self._rows:
            return self._counts[: len(self._rows)].sum(axis=0).tolist()
        row = self._rows.get(rank)
        return [0] * self._width if row is None else self._counts[row].tolist()

    def cumulative(self, rank: int | None = None) -> list[tuple[float, int]]:
        """Prometheus-style cumulative (le, count) pairs, +Inf last."""
        counts = self.counts(rank)
        out: list[tuple[float, int]] = []
        running = 0
        for edge, c in zip(self.buckets, counts):
            running += c
            out.append((edge, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def count(self, rank: int | None = None) -> int:
        return sum(self.counts(rank))

    def sum(self, rank: int | None = None) -> float:
        if rank is not None:
            row = self._rows.get(rank)
            return 0.0 if row is None else float(self._sums[row])
        sums = self._lists()[1]
        return sum(sums[self._rows[r]] for r in sorted(self._rows))

    def ranks(self) -> list[int]:
        return sorted(self._rows)

    def _lists(self) -> tuple[list[list[int]], list[float]]:
        """The count table's and the sum vector's rows as Python lists."""
        if self._sums is None:
            return [], []
        return self._counts.tolist(), self._sums.tolist()

    def snapshot(self) -> dict[str, Any]:
        counts, sums = self._lists()
        return {
            "counts": {r: counts[row] for r, row in self._rows.items()},
            "sums": {r: sums[row] for r, row in self._rows.items()},
        }

    def restore(self, snap: dict[str, Any]) -> None:
        self._clear()
        for r in snap["counts"]:
            self._add(r)
        if self._rows:
            n = len(self._rows)
            self._counts[:n] = list(snap["counts"].values())
            self._sums[:n] = [snap["sums"][r] for r in snap["counts"]]


class MetricRegistry:
    """Name-indexed instrument store shared by one virtual cluster."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, *args: Any, **kwargs: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"instrument {name!r} already registered as {existing.kind}"
                )
            return existing
        inst = cls(name, *args, **kwargs)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help, unit)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...],
        help: str = "",
        unit: str = "",
    ) -> Histogram:
        return self._get_or_create(Histogram, name, buckets, help=help, unit=unit)

    def get(self, name: str) -> _Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            raise KeyError(f"no instrument named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def collect(self) -> Iterator[_Instrument]:
        """All instruments in sorted-name order (the export order)."""
        for name in sorted(self._instruments):
            yield self._instruments[name]

    # -- checkpoint support ---------------------------------------------------

    def snapshot(self, prefix: str | None = None) -> dict[str, dict[str, Any]]:
        """Deep-copy instrument state, optionally only names under ``prefix``.

        Resilience checkpoints snapshot with ``prefix="compass_"`` so that
        simulator counters roll back on recovery while the resilience
        meta-counters (checkpoints taken, recoveries performed) stay
        monotone across the rollback.
        """
        return {
            name: inst.snapshot()
            for name, inst in self._instruments.items()
            if prefix is None or name.startswith(prefix)
        }

    def restore(self, snap: dict[str, dict[str, Any]]) -> None:
        """Restore previously snapshotted instruments; others are untouched."""
        for name in sorted(snap):
            inst = self._instruments.get(name)
            if inst is not None:
                inst.restore(snap[name])
