"""Named metric instruments with per-rank and reduced cluster-wide views.

The registry replaces the scattered counter plumbing that used to live on
``RankState`` (``cum_fired`` etc.) with three instrument kinds:

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
from typing import Any, Iterable, Iterator


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


class Counter(_Instrument):
    """Monotone accumulator with one cell per rank."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit)
        self._values: dict[int, float] = {}

    def inc(self, rank: int = -1, value: float = 1) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name}: negative increment {value}")
        self._values[rank] = self._values.get(rank, 0) + value

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


class Gauge(_Instrument):
    """Last-written value per rank (queue depths, window sizes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit)
        self._values: dict[int, float] = {}

    def set(self, rank: int, value: float) -> None:
        self._values[rank] = value

    def value(self, rank: int = -1) -> float:
        return self._values.get(rank, 0)

    def total(self) -> float:
        return sum(self._values[r] for r in sorted(self._values))

    def max(self) -> float:
        if not self._values:
            return 0.0
        return max(self._values[r] for r in sorted(self._values))

    def ranks(self) -> list[int]:
        return sorted(self._values)

    def snapshot(self) -> dict[str, Any]:
        return {"values": dict(self._values)}

    def restore(self, snap: dict[str, Any]) -> None:
        self._values = dict(snap["values"])


class Histogram(_Instrument):
    """Fixed-bucket distribution with per-rank counts.

    ``buckets`` are upper bounds (``le`` edges); observations above the
    last edge land in the implicit overflow bucket.  Bucket edges are
    frozen at creation so different runs — and different ranks — always
    bin identically, which keeps reduced views associative.
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
        self._counts: dict[int, list[int]] = {}
        self._sums: dict[int, float] = {}

    def observe(self, rank: int, value: float) -> None:
        self.observe_row(rank, (value,))

    def observe_row(self, rank: int, values: Iterable[float]) -> None:
        """Observe ``values`` in order: equal to one :meth:`observe` each."""
        counts = self._counts.get(rank)
        if counts is None:
            counts = self._counts[rank] = [0] * (len(self.buckets) + 1)
            self._sums[rank] = 0.0
        total = self._sums[rank]
        for value in values:
            counts[bisect_left(self.buckets, value)] += 1
            total += value
        self._sums[rank] = total

    def counts(self, rank: int | None = None) -> list[int]:
        """Raw per-bucket counts for ``rank``, or reduced over all ranks."""
        if rank is not None:
            return list(self._counts.get(rank, [0] * (len(self.buckets) + 1)))
        reduced = [0] * (len(self.buckets) + 1)
        for r in sorted(self._counts):
            for i, c in enumerate(self._counts[r]):
                reduced[i] += c
        return reduced

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
            return self._sums.get(rank, 0.0)
        return sum(self._sums[r] for r in sorted(self._sums))

    def ranks(self) -> list[int]:
        return sorted(self._counts)

    def snapshot(self) -> dict[str, Any]:
        return {
            "counts": {r: list(c) for r, c in self._counts.items()},
            "sums": dict(self._sums),
        }

    def restore(self, snap: dict[str, Any]) -> None:
        self._counts = {r: list(c) for r, c in snap["counts"].items()}
        self._sums = dict(snap["sums"])


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
