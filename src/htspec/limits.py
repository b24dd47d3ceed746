"""Limit objects the experiments compare against.

Normalizing constants invert the entry tail at the extreme-value level:
``c_np`` solves ``G(t) = 1/(p n^mu)`` for the rectangular ensemble and
``c_n`` solves ``G(t) = 2/((n+1) n^mu)`` for the symmetric one; both grow
like ``n^((1+mu)/alpha)`` up to slow variation.

The heavy-tailed regime sends normalized extreme eigenvalues to a Frechet
law and the top of the spectrum to a Poisson point process; the light-tailed
regime sends the spectral distribution of ``M M^T / n^mu`` to the
Marchenko-Pastur law with shape ``rho``.  The boundary between the regimes
is ``alpha = 2 (1 + 1/mu)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tails import TailLaw, quantile_abs

POISSONIAN = "poissonian"
EDGE = "edge"
CRITICAL = "critical"

COVARIANCE = "covariance"
HERMITIAN_KIND = "hermitian"


@dataclass(frozen=True)
class RegimeParams:
    """The four quantities that pick a phase: tail index, sparsity exponent,
    aspect ratio, and dimension."""

    alpha: float
    mu: float
    rho: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive: {self.alpha!r}")
        if not (math.isfinite(self.mu) and 0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1]: {self.mu!r}")
        if not (math.isfinite(self.rho) and 0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1]: {self.rho!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer: {self.n!r}")
        if self.p < 1:
            raise ValueError(f"rho * n rounds to zero rows (rho={self.rho}, n={self.n})")

    @property
    def p(self) -> int:
        return int(math.floor(self.rho * self.n + 0.5))


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


def pp_mean_count(x: float, alpha: float, kind: str = COVARIANCE) -> float:
    """Mean number of limiting point-process points above ``x > 0``.

    Normalized extreme eigenvalues converge to a Poisson process whose
    intensity integrates to ``x^(-alpha/2)`` for the covariance ensemble and
    ``x^-alpha`` for the symmetric one.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be finite and positive: {x!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive: {alpha!r}")
    if kind == COVARIANCE:
        return x ** (-alpha / 2.0)
    if kind == HERMITIAN_KIND:
        return x ** -alpha
    raise ValueError(f"unknown point process kind: {kind!r}")


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


def _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, tol, depth) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_simpson(f, a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1) + \
        _adaptive_simpson(f, m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1)


def _integrate(f, a: float, b: float, tol: float, depth: int = 48) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``."""
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, tol, depth)


def mp_cdf(x, rho: float):
    """Marchenko-Pastur distribution function by adaptive Simpson quadrature.

    Absolute accuracy is about 1e-10.  For ``rho = 1`` the inverse-square-root
    singularity at 0 is removed by the substitution ``x = s^2``, which turns
    the integrand into the semicircle density ``sqrt(4 - s^2)/pi``.  Array
    arguments are integrated incrementally between sorted points, so the cost
    of evaluating at many quantiles is one pass over the support.
    """
    lo, hi = mp_edges(rho)
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")

    if lo < 1e-12:
        def integrand(s: float) -> float:
            return math.sqrt(max(0.0, 4.0 - s * s)) / math.pi

        def to_var(t: float) -> float:
            return math.sqrt(max(t, 0.0))
    else:
        def integrand(t: float) -> float:
            return float(mp_density(t, rho))

        def to_var(t: float) -> float:
            return t

    clipped = np.clip(arr, lo, hi)
    order = np.argsort(clipped, kind="stable")
    sorted_pts = clipped[order]
    limits = np.concatenate(([lo], sorted_pts))
    cum = np.empty(sorted_pts.size)
    total = 0.0
    for idx in range(sorted_pts.size):
        total += _integrate(integrand, to_var(limits[idx]), to_var(limits[idx + 1]), tol=1e-12)
        cum[idx] = total
    out = np.empty_like(cum)
    out[order] = np.minimum(cum, 1.0)
    # pin the tails exactly: quadrature noise must not leak past [0, 1]
    out[arr <= lo] = 0.0
    out[arr >= hi] = 1.0
    return float(out[0]) if scalar else out
