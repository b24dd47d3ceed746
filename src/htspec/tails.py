"""Heavy-tailed entry laws, sparsity masks, and random matrix sampling.

Entries are symmetric real random variables specified through the two-sided
tail ``P(|x| > t) = min(1, L(t) * t**-alpha)`` for ``t >= support_min``,
where ``L`` is a slowly varying factor.  Two families are supported:

* ``constant``:  ``L(t) = c``
* ``log_power``: ``L(t) = c * log(e + t)**beta``

Sampling is by inversion of the tail.  When ``standardize`` is set (legal
only for ``alpha > 2``) the variable is divided by the square root of its
second moment, so entries have mean zero and variance one; ``tail`` and
``quantile_abs`` then describe the rescaled variable.

Matrices combine i.i.d. entries with a Bernoulli sparsity mask, which keeps
each position independently with probability ``n**(mu - 1)``.  Every row
draws its mask and its values from per-row streams derived with
:func:`seeding.mix64` from the ensemble seed, so a sampled matrix is a pure
function of its :class:`EnsembleSpec`: independent of traversal order,
reproducible across processes, and the nonzero pattern does not change when
only the entry law changes.  The sampler positions each row's streams with ``PCG64.advance`` to
skip the draws no kept entry uses, builds no mask stream for a row that keeps
every column (``mu = 1``), and inverts the quantile once over the whole
matrix; the stream layout, and so every sampled matrix, is the same as when
every stream is drawn in full, row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeding import MASK64, mix64

SV_CONSTANT = "constant"
SV_LOG_POWER = "log_power"

RECTANGULAR = "rectangular"
HERMITIAN = "hermitian"

# Stream tags inside one matrix draw; mask and values never share a stream.
_TAG_MASK = 0
_TAG_VALUE = 1

# log_power tails with beta > ~3.146 * alpha are not monotone near the
# support edge; reject conservatively at 3 * alpha.
_LOG_POWER_BETA_CAP = 3.0


@dataclass(frozen=True)
class TailLaw:
    """Symmetric law with regularly varying two-sided tail of index ``alpha``."""

    alpha: float
    sv_kind: str = SV_CONSTANT
    sv_c: float = 1.0
    sv_beta: float = 0.0
    support_min: float = 1.0
    standardize: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive: {self.alpha!r}")
        if self.sv_kind not in (SV_CONSTANT, SV_LOG_POWER):
            raise ValueError(f"unknown slowly varying kind: {self.sv_kind!r}")
        if not (math.isfinite(self.sv_c) and self.sv_c > 0):
            raise ValueError(f"sv_c must be finite and positive: {self.sv_c!r}")
        if not math.isfinite(self.sv_beta):
            raise ValueError(f"sv_beta must be finite: {self.sv_beta!r}")
        if self.sv_kind == SV_CONSTANT and self.sv_beta != 0.0:
            raise ValueError("constant slowly varying factor takes sv_beta = 0")
        if self.sv_kind == SV_LOG_POWER and self.sv_beta > _LOG_POWER_BETA_CAP * self.alpha:
            raise ValueError(
                f"sv_beta = {self.sv_beta} too large for alpha = {self.alpha}: "
                "tail would not be nonincreasing"
            )
        if not (math.isfinite(self.support_min) and self.support_min > 0):
            raise ValueError(f"support_min must be finite and positive: {self.support_min!r}")
        if self.standardize and self.alpha <= 2:
            raise ValueError(
                f"standardization requires a finite second moment (alpha > 2), got alpha = {self.alpha}"
            )


def _sv_factor(law: TailLaw, t: np.ndarray) -> np.ndarray:
    if law.sv_kind == SV_CONSTANT:
        return np.broadcast_to(np.float64(law.sv_c), np.shape(t))
    return law.sv_c * np.log(np.e + t) ** law.sv_beta


def _tail_uncapped(law: TailLaw, t: np.ndarray) -> np.ndarray:
    """``L(t) * t**-alpha`` on the raw (unstandardized) scale, no cap at 1."""
    return _sv_factor(law, t) * t ** -law.alpha


@lru_cache(maxsize=None)
def _sigma(law: TailLaw) -> float:
    """Scale divisor applied to raw samples: sqrt(E[x^2]) when standardizing."""
    if not law.standardize:
        return 1.0
    return math.sqrt(variance_unstandardized(law))


def _as_float_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return np.atleast_1d(arr), scalar


def tail(law: TailLaw, t):
    """Two-sided tail ``P(|x| > t)`` of the law, on its sampling scale.

    For a standardized law this is the tail of the rescaled variable,
    ``G_raw(t * sigma)``.  Accepts scalars or arrays; ``t`` must be
    nonnegative, with ``tail(law, 0) = 1``.
    """
    arr, scalar = _as_float_array(t, "t")
    if np.any(arr < 0):
        raise ValueError("t must be nonnegative")
    raw = arr * _sigma(law)
    clipped = np.maximum(raw, law.support_min)
    g = np.minimum(1.0, _tail_uncapped(law, clipped))
    out = np.where(raw < law.support_min, 1.0, g)
    return float(out[0]) if scalar else out


def _quantile_raw(law: TailLaw, u: np.ndarray) -> np.ndarray:
    """Smallest ``t`` with ``L(t) t**-alpha <= u``, floored at ``support_min``.

    Guarantees ``tail(q) <= u`` exactly in floating point.
    """
    s = law.support_min
    if law.sv_kind == SV_CONSTANT:
        q = np.maximum(s, (law.sv_c / u) ** (1.0 / law.alpha))
    else:
        at_support = _tail_uncapped(law, np.float64(s))
        q = np.full_like(u, s)
        active = u < at_support
        if np.any(active):
            ua = u[active]
            lo = np.full_like(ua, s)
            # For beta <= 0 the constant-L quantile already dominates; for
            # beta > 0 double until the uncapped tail drops below u.
            hi = np.maximum(2.0 * s, (law.sv_c / ua) ** (1.0 / law.alpha))
            for _ in range(200):
                bad = _tail_uncapped(law, hi) > ua
                if not np.any(bad):
                    break
                hi = np.where(bad, 2.0 * hi, hi)
            for _ in range(70):
                mid = 0.5 * (lo + hi)
                above = _tail_uncapped(law, mid) > ua
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
            q[active] = hi
    # Nudge up by ulps if rounding left the tail a hair above u.
    beyond = q > s
    for _ in range(4):
        bad = beyond & (_tail_uncapped(law, q) > u)
        if not np.any(bad):
            break
        q = np.where(bad, np.nextafter(q, np.inf), q)
    return q


def quantile_abs(law: TailLaw, u):
    """Smallest ``t`` with ``tail(law, t) <= u``, for ``u`` in (0, 1].

    Inverse of :func:`tail` on the law's sampling scale: standardized laws
    return the quantile of the rescaled variable.  ``quantile_abs(law, 1.0)``
    is the lower endpoint of the support of ``|x|``.
    """
    arr, scalar = _as_float_array(u, "u")
    if np.any((arr <= 0) | (arr > 1)):
        raise ValueError("u must lie in (0, 1]")
    q = _quantile_raw(law, arr) / _sigma(law)
    return float(q[0]) if scalar else q


def variance_unstandardized(law: TailLaw) -> float:
    """Second moment ``E[x^2]`` of the raw (unstandardized) symmetric law.

    Requires ``alpha > 2``.  The constant family has the closed form
    ``t0^2 + 2 c t0^(2-alpha) / (alpha - 2)`` with ``t0`` the point where the
    uncapped tail reaches 1; the log-power family is integrated numerically.
    """
    if law.alpha <= 2:
        raise ValueError(f"E[x^2] is infinite for alpha <= 2 (alpha = {law.alpha})")
    t0 = float(_quantile_raw(law, np.atleast_1d(np.float64(1.0)))[0])
    if law.sv_kind == SV_CONSTANT:
        return t0 * t0 + 2.0 * law.sv_c * t0 ** (2.0 - law.alpha) / (law.alpha - 2.0)
    # Imported here: only this branch needs it, and it loads scipy.optimize too.
    from scipy import integrate

    integral, _ = integrate.quad(
        lambda t: 2.0 * t * float(_tail_uncapped(law, np.float64(t))),
        t0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-11,
        limit=200,
    )
    return t0 * t0 + integral


@dataclass(frozen=True)
class SparsitySpec:
    """Bernoulli mask: each position is kept independently with probability
    ``n**(mu - 1)``, so a ``p x n`` matrix has about ``p n**mu`` nonzeros.
    The exponent ``mu`` also enters the extreme-value normalizations."""

    mu: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and 0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1]: {self.mu!r}")

    @classmethod
    def bernoulli(cls, mu: float) -> "SparsitySpec":
        return cls(mu=mu)


@dataclass(frozen=True)
class EnsembleSpec:
    """Complete description of one random matrix draw.

    ``rectangular`` gives a ``p x n`` matrix with ``p = round(rho * n)``;
    ``hermitian`` gives an ``n x n`` symmetric matrix whose upper triangle
    (diagonal included) is i.i.d. and mirrored below.
    """

    shape: str
    n: int
    law: TailLaw
    sparsity: SparsitySpec
    seed: int
    rho: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in (RECTANGULAR, HERMITIAN):
            raise ValueError(f"unknown shape: {self.shape!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer: {self.n!r}")
        if not (math.isfinite(self.rho) and 0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1]: {self.rho!r}")
        if self.shape == HERMITIAN and self.rho != 1.0:
            raise ValueError("hermitian matrices are square; rho must be 1")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must be an integer in [0, 2**64): {self.seed!r}")
        if self.p < 1:
            raise ValueError(f"rho * n rounds to zero rows (rho={self.rho}, n={self.n})")

    @property
    def p(self) -> int:
        if self.shape == HERMITIAN:
            return self.n
        return int(math.floor(self.rho * self.n + 0.5))


def _row_columns(sparsity: SparsitySpec, i: int, n: int, lo: int, mask_root: int) -> np.ndarray:
    """Ascending mask columns of row ``i`` at or above column ``lo``.

    The row's mask stream holds one uniform per column, so the ``lo`` uniforms
    before column ``lo`` are skipped with ``PCG64.advance``.  With
    ``prob >= 1`` every column is kept, because uniforms lie in [0, 1), and no
    stream is built.
    """
    prob = float(n) ** (sparsity.mu - 1.0)
    if prob >= 1.0:
        return np.arange(lo, n)
    bitgen = np.random.PCG64(mix64(mask_root, i))
    bitgen.advance(lo)
    return lo + np.nonzero(np.random.Generator(bitgen).random(n - lo) < prob)[0]


def sample_matrix(spec: EnsembleSpec):
    """Sample the sparse matrix described by ``spec``.

    Row ``i`` derives a mask stream and a value stream from the ensemble seed via
    ``mix64``.  The mask stream holds one uniform per column.  The value
    stream holds ``n`` magnitude uniforms then ``n`` sign uniforms, and only the
    masked positions are kept.  The entry at ``(i, j)`` therefore depends only
    on ``(seed, i, j)``, and the mask only on ``(seed, mu, i, j)``.

    Uniforms that no kept entry uses are not generated: each float64 draw takes
    one 64-bit PCG64 output, so ``PCG64.advance`` skips the columns below a
    hermitian row's diagonal in its mask stream and, in each half of the value
    stream, the columns outside the row's first and last kept column.  A row
    that keeps every column (``mu = 1``) builds no mask stream, and a row with
    no entries builds no value stream.  The result is bit-identical to drawing
    every stream in full.
    """
    # Imported here: matrices.py needs no sampling machinery.
    from .matrices import SparseMatrix

    law, sparsity = spec.law, spec.sparsity
    n, p = spec.n, spec.p
    hermitian = spec.shape == HERMITIAN
    mask_root = mix64(spec.seed, _TAG_MASK)
    value_root = mix64(spec.seed, _TAG_VALUE)

    counts = np.zeros(p, dtype=np.int64)
    col_parts = [np.empty(0, dtype=np.int64)]
    mag_parts = [np.empty(0)]
    sign_parts = [np.empty(0)]
    for i in range(p):
        cols = _row_columns(sparsity, i, n, i if hermitian else 0, mask_root)
        if cols.size == 0:
            continue
        first = int(cols[0])
        span = int(cols[-1]) - first + 1
        bitgen = np.random.PCG64(mix64(value_root, i))
        value_rng = np.random.Generator(bitgen)
        bitgen.advance(first)
        u_mag = value_rng.random(span)
        bitgen.advance(n - span)
        u_sign = value_rng.random(span)
        counts[i] = cols.size
        col_parts.append(cols)
        offsets = cols - first
        mag_parts.append(u_mag[offsets])
        sign_parts.append(u_sign[offsets])

    cols = np.concatenate(col_parts)
    u_mag, u_sign = np.concatenate(mag_parts), np.concatenate(sign_parts)
    # Free the per-row pieces before the quantile's and the CSR's temporaries.
    del col_parts, mag_parts, sign_parts
    # _quantile_raw is elementwise, so one call over all rows equals one per row.
    data = np.where(u_sign < 0.5, 1.0, -1.0) * (_quantile_raw(law, 1.0 - u_mag) / _sigma(law))
    del u_mag, u_sign

    if hermitian:
        rows = np.repeat(np.arange(p, dtype=np.int64), counts)
        off = rows != cols
        # Mirrored entries first: a stable sort by row then puts row i's mirrored
        # columns (below i, ascending) before its own, so each row is in order.
        full_rows = np.concatenate([cols[off], rows])
        order = np.argsort(full_rows, kind="stable")
        cols = np.concatenate([rows[off], cols])[order]
        data = np.concatenate([data[off], data])[order]
        counts = np.bincount(full_rows, minlength=p)
        del rows, off, full_rows, order
    # Rows now come out in order with ascending columns: already CSR.
    indptr = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SparseMatrix(rows=p, cols=n, indptr=indptr, indices=cols, values=data, symmetric=hermitian)
