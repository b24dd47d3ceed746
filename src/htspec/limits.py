"""Limit objects the experiments compare against.

Normalizing constants invert the entry tail at the extreme-value level:
``c_np`` solves ``G(t) = 1/(p n^mu)`` for the rectangular ensemble and
``c_n`` solves ``G(t) = 2/((n+1) n^mu)`` for the symmetric one; both grow
like ``n^((1+mu)/alpha)`` up to slow variation.

The heavy-tailed regime sends normalized extreme eigenvalues to a Frechet
law and the top of the spectrum to a Poisson point process; the light-tailed
regime sends the spectral distribution of ``M M^T / n^mu`` to the
Marchenko-Pastur law with shape ``rho``.  The boundary between the regimes
is ``alpha = 2 (1 + 1/mu)``.  The Marchenko-Pastur distribution function is
evaluated in closed form (the formula is in :func:`mp_cdf`).
"""

from __future__ import annotations

import math

import numpy as np

from .tails import TailLaw, quantile_abs

POISSONIAN = "poissonian"
EDGE = "edge"
CRITICAL = "critical"


def classify_regime(alpha: float, mu: float) -> str:
    """Classify ``(alpha, mu)`` as ``poissonian``, ``edge``, or ``critical``.

    ``mu == 0`` is always Poissonian.  The critical line is reported so
    callers can refuse to draw conclusions there; no limit is claimed on it.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive: {alpha!r}")
    if not (math.isfinite(mu) and 0.0 <= mu <= 1.0):
        raise ValueError(f"mu must lie in [0, 1]: {mu!r}")
    if mu == 0.0:
        return POISSONIAN
    threshold = 2.0 * (1.0 + 1.0 / mu)
    if alpha < threshold:
        return POISSONIAN
    if alpha > threshold:
        return EDGE
    return CRITICAL


def c_np(law: TailLaw, n: int, p: int, mu: float) -> float:
    """Normalizing constant for the largest entry of a ``p x n`` matrix with
    mask probability ``n^(mu-1)``: smallest ``t`` with ``tail(t) <= 1/(p n^mu)``."""
    if n < 1 or p < 1:
        raise ValueError(f"n and p must be positive: n={n}, p={p}")
    target = 1.0 / (p * float(n) ** mu)
    if target > 1.0:
        raise ValueError(f"p * n^mu must be at least 1 (target tail {target})")
    return quantile_abs(law, target)


def c_n(law: TailLaw, n: int, mu: float) -> float:
    """Symmetric-matrix analogue of :func:`c_np`: smallest ``t`` with
    ``tail(t) <= 2/((n+1) n^mu)``, matching the count of independent entries."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    target = 2.0 / ((n + 1) * float(n) ** mu)
    if target > 1.0:
        raise ValueError(f"(n+1) n^mu must be at least 2 (target tail {target})")
    return quantile_abs(law, target)


def frechet_cdf(t, a: float):
    """Frechet distribution function ``exp(-t^-a)`` for ``t > 0``, else 0."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"Frechet exponent must be finite and positive: {a!r}")
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = np.exp(-arr[pos] ** -a)
    return float(out[0]) if scalar else out


def pp_mean_count(x: float, a: float) -> float:
    """Mean number of limiting point-process points above ``x > 0``: ``x^-a``.

    Normalized extreme eigenvalues converge to a Poisson process whose
    intensity integrates to ``x^-a``, with the Frechet exponent ``a`` of the
    top point (:func:`frechet_cdf`): ``alpha/2`` for the covariance ensemble
    and ``alpha`` for the symmetric one.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be finite and positive: {x!r}")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"Frechet exponent must be finite and positive: {a!r}")
    return x ** -a


def mp_edges(rho: float) -> tuple[float, float]:
    """Support endpoints ``(1 -+ sqrt(rho))^2`` of the Marchenko-Pastur law."""
    if not (math.isfinite(rho) and 0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1]: {rho!r}")
    s = math.sqrt(rho)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def mp_density(x, rho: float):
    """Marchenko-Pastur density ``sqrt((l+ - x)(x - l-)) / (2 pi rho x)`` on its
    support, 0 elsewhere."""
    lo, hi = mp_edges(rho)
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    inside = (arr > lo) & (arr < hi) & (arr > 0)
    xi = arr[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * rho * xi)
    return float(out[0]) if scalar else out


def mp_cdf(x, rho: float):
    """Marchenko-Pastur distribution function: on ``(l-, l+)``, with
    ``r = sqrt((l+ - x)(x - l-))`` and ``s = sqrt(rho)``, ``F(x) = 1/2 + (r
    + (1 + rho) asin((x - 1 - rho) / (2 s)) - (1 - rho) asin(((1 + rho) x
    - (1 - rho)^2) / (2 s x))) / (2 pi rho)``, and exactly 0 or 1 outside.
    Both ``asin`` arguments are clipped to ``[-1, 1]`` against rounding, and
    the second needs ``x > l- >= 0``, so ``rho = 1`` has no ``0/0``.
    """
    lo, hi = mp_edges(rho)
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")

    out = np.where(arr >= hi, 1.0, 0.0)
    inside = (arr > lo) & (arr < hi)
    xi = arr[inside]
    s = math.sqrt(rho)
    a1 = np.arcsin(np.clip((xi - 1.0 - rho) / (2.0 * s), -1.0, 1.0))
    a2 = np.arcsin(np.clip(((1.0 + rho) * xi - (1.0 - rho) ** 2) / (2.0 * s * xi), -1.0, 1.0))
    f = np.sqrt((hi - xi) * (xi - lo)) + (1.0 + rho) * a1 - (1.0 - rho) * a2
    out[inside] = np.clip(0.5 + f / (2.0 * math.pi * rho), 0.0, 1.0)
    return float(out[0]) if scalar else out
