"""Small statistics helpers shared by the model builders and reports.

The robust helpers (:func:`median`, :func:`mad`, :func:`robust_outlier`,
:func:`max_over_mean`) are pure Python on plain floats — exact, order-
stable; the imbalance analyzer (:mod:`repro.obs.analysis.imbalance`) and
the fleet report (:mod:`repro.shard.fleet`) share them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Consistency constant: 1.4826·MAD estimates the standard deviation of
#: normally distributed data.
MAD_SIGMA = 1.4826


def median(values: Sequence[float]) -> float:
    """Exact median of a non-empty sequence (mean of the middle two)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of empty sequence")
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median (unscaled)."""
    center = median(values)
    return median([abs(float(v) - center) for v in values])


def robust_outlier(
    value: float,
    baseline: Sequence[float],
    k: float = 4.0,
    rel_tol: float = 0.15,
    min_n: int = 4,
) -> bool:
    """Is ``value`` a high-side outlier against ``baseline``?

    With ``min_n`` or more baseline points the threshold is the robust
    ``median + k·1.4826·MAD``, floored at ``median·(1+rel_tol)`` so a
    degenerate zero-MAD history (identical repeats) still tolerates
    measurement noise.  Shorter histories fall back to the pure relative
    tolerance.  Only regressions (``value`` above the baseline) count —
    improvements are never outliers.
    """
    center = median(baseline)
    rel_threshold = center + rel_tol * abs(center)
    if len(baseline) < min_n:
        return value > rel_threshold
    mad_threshold = center + k * MAD_SIGMA * mad(baseline)
    return value > max(mad_threshold, rel_threshold)


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an *already sorted*, non-empty sequence.

    ``q`` is in [0, 100].  The nearest-rank convention returns an actual
    observed value (never an interpolation), so latency reports built
    from it are byte-identical whenever the underlying simulated
    latencies are — the property the serving-layer SLO accounting
    (:mod:`repro.serve`) relies on.  Callers sort once: the fleet
    reduction (:mod:`repro.shard.fleet`) merges pre-sorted per-shard
    lists with ``heapq.merge`` and reads percentiles straight off the
    merged sequence, never re-sorting.
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q!r} outside [0, 100]")
    if q == 0.0:
        return float(ordered[0])
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def max_over_mean(values: Sequence[float]) -> float:
    """Max/mean imbalance factor (1.0 = perfectly balanced, or empty/zero)."""
    vals = [float(v) for v in values]
    if not vals:
        return 1.0
    mean = sum(vals) / len(vals)
    return max(vals) / mean if mean > 0 else 1.0


def mean_rate_hz(spike_count: int, n_neurons: int, ticks: int) -> float:
    """Mean firing rate in Hz given 1 ms ticks.

    ``rate = spikes / neurons / simulated_seconds``; with 1 ms ticks the
    simulated duration is ``ticks / 1000`` seconds.
    """
    if n_neurons <= 0 or ticks <= 0:
        raise ValueError("n_neurons and ticks must be positive")
    return spike_count / n_neurons / (ticks / 1000.0)


def geometric_mean(values: np.ndarray) -> float:
    """Geometric mean of strictly positive values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty input")
    if np.any(values <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


def lognormal_volumes(
    n: int, rng: np.random.Generator, sigma: float = 0.9, mean: float = 1.0
) -> np.ndarray:
    """Draw plausible relative region volumes (log-normal, unit mean).

    Brain-region volumes span ~2 orders of magnitude; a log-normal with
    sigma≈0.9 reproduces that spread.  The result is normalised to mean 1 so
    downstream code can scale by total core budget.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    v = rng.lognormal(mean=0.0, sigma=sigma, size=n)
    return v * (mean / v.mean())


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sorted values, CDF heights) for quick distribution checks."""
    values = np.sort(np.asarray(values, dtype=float))
    heights = np.arange(1, values.size + 1) / values.size
    return values, heights
