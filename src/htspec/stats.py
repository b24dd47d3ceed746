"""Empirical distributions and the statistical comparisons used in verdicts.

Everything here is a pure function of its sample inputs, so aggregation over
replicates is reproducible regardless of how the replicates were scheduled.
"""

from __future__ import annotations

import math

import numpy as np

from .limits import mp_cdf, pp_mean_count


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF callable.

    ``D = max_i max(|i/n - F(x_(i))|, |(i-1)/n - F(x_(i))|)``; the callable
    must accept an array of sorted sample points.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    x = np.sort(arr)
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise ValueError("cdf callable must return one value per sample point")
    grid = np.arange(1, x.size + 1, dtype=np.float64) / x.size
    upper = np.abs(grid - f)
    lower = np.abs(grid - 1.0 / x.size - f)
    return float(np.max(np.maximum(upper, lower)))


def poisson_count_test(replicate_points, thresholds, a: float) -> list[dict]:
    """Compare exceedance counts of normalized extreme points to the Poisson
    point process prediction.

    ``replicate_points`` is one collection of points per replicate.  For each
    threshold ``x`` the count of points above ``x`` is Poisson with mean
    ``pp_mean_count(x, a)`` in the limit, so the replicate mean has
    standard error ``sqrt(mean / R)``; ``z_score`` is the standardized gap,
    and the sample variance is reported for the mean = variance diagnostic.
    """
    reps = [np.asarray(pts, dtype=np.float64) for pts in replicate_points]
    if not reps:
        raise ValueError("need at least one replicate")
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("need at least one threshold")
    records = []
    for x in thresholds:
        expected = pp_mean_count(x, a)
        counts = np.array([float(np.sum(pts > x)) for pts in reps])
        mean = float(counts.mean())
        var = float(counts.var(ddof=1)) if counts.size > 1 else 0.0
        z = (mean - expected) / math.sqrt(expected / counts.size)
        records.append(
            {
                "threshold": x,
                "observed_mean": mean,
                "observed_var": var,
                "expected": expected,
                "z_score": z,
            }
        )
    return records


def esd(spectrum, scale: float, rho: float) -> float:
    """Kolmogorov-Smirnov distance from the empirical spectral distribution of
    ``spectrum / scale`` to the Marchenko-Pastur law of shape ``rho``."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive: {scale!r}")
    values = np.asarray(spectrum, dtype=np.float64) / scale
    return ks_statistic(values, lambda x: mp_cdf(x, rho))
