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
each position independently with probability ``n**(mu - 1)``.  Every random
word comes from :func:`seeding.mix64_array` at a counter key: row ``i`` walks
its mask by geometric gaps, gap ``k`` keyed ``i << 32 | k``, and entry
``(i, j)`` takes its value from the key ``i << 32 | j`` (Batagelj & Brandes,
Phys. Rev. E 2005; Salmon et al., SC 2011).  So a sampled matrix is a pure
function of its :class:`EnsembleSpec`: independent of traversal order,
reproducible across processes, and the nonzero pattern does not change when
only the entry law changes.  Sampling costs O(nnz): no word is drawn for a
position the mask drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeding import MASK64, mix64, mix64_array

SV_CONSTANT = "constant"
SV_LOG_POWER = "log_power"

RECTANGULAR = "rectangular"
HERMITIAN = "hermitian"

# Stream tags inside one matrix draw; mask and values never share a stream.
_TAG_MASK = 0
_TAG_VALUE = 1
# A key is ``i << 32 | k`` (mask gap k of row i) or ``i << 32 | j`` (entry
# (i, j)), so every index, n itself included, must stay below 2**32.
_KEY_BITS = 32
# Gap slots that one block of rows draws at once; bounds the temporaries.
_BLOCK_SLOTS = 1 << 16
# Share of its slot budget (_slot_budget) that a row draws in its first batch
# of gaps, and of the expected entry count that the output buffers first hold.
# A row that runs out is topped up and a full buffer grows; gaps are keyed by
# their index, so this sizes the batches but never changes the matrix.  At 0
# every row takes the top-up rounds, and the buffers start empty and grow.
_SLOT_SLACK = 1.0

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
        if self.n >= 1 << _KEY_BITS:
            raise ValueError(f"n must be below 2**{_KEY_BITS}: {self.n!r}")
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


def _unit(z: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1] from the top 53 bits of 64-bit words."""
    u = (z >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def _keys(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Counter keys ``row << 32 | index``."""
    keys = rows.astype(np.uint64)
    keys <<= np.uint64(_KEY_BITS)
    keys |= index.astype(np.uint64)
    return keys


def _slot_budget(remaining: np.ndarray, prob: float) -> np.ndarray:
    """Gap slots for a row with ``remaining`` columns left: about six standard
    deviations above its mean kept count, plus the gap that ends the row, and
    never more than the ``remaining + 1`` gaps that surely end it."""
    mean = remaining * prob
    return np.minimum((mean + 6.0 * np.sqrt(mean) + 8.0).astype(np.int64), remaining + 1)


def _grow(a: np.ndarray, size: int) -> np.ndarray:
    """``a``, or a copy at least twice as long when it holds fewer than
    ``size`` elements."""
    if size <= a.size:
        return a
    out = np.empty(max(size, 2 * a.size), dtype=a.dtype)
    out[: a.size] = a
    return out


def _mask_columns(r0: int, lo: np.ndarray, budget: np.ndarray, n: int, prob: float, mask_root: int):
    """Kept columns of rows ``r0, r0 + 1, ...``, each at or above its column
    ``lo``.

    Returns ``(owner, cols)``, ordered by row then column, where ``owner`` is
    the row less ``r0``.  Row ``i`` walks geometric gaps from column ``lo - 1``;
    gap ``k`` is ``floor(log u / log(1 - prob)) + 1`` with ``u`` the uniform of
    ``mix64(mask_root, i << 32 | k)``, and the row ends at the first column
    ``>= n``.  Gaps are drawn in batches: a row first draws ``_SLOT_SLACK``
    times its ``budget``, and a row whose batch ends before column ``n - 1``
    draws its next gaps in a top-up round.
    """
    log_skip = math.log1p(-prob)
    last = lo - 1  # last column reached
    drawn = np.zeros(lo.size, dtype=np.int64)  # gaps drawn
    live = np.arange(lo.size)
    slots = (_SLOT_SLACK * budget).astype(np.int64)
    owner_parts, col_parts = [], []
    while live.size:
        owner = np.repeat(live, slots)
        starts = np.cumsum(slots) - slots
        local_k = np.arange(owner.size) - np.repeat(starts, slots)
        z = mix64_array(mask_root, _keys(owner + r0, local_k + drawn[owner]))
        # Clipping a gap at n + 1 still ends its row, and keeps the sums small.
        gaps = (np.minimum(np.floor(np.log(_unit(z)) / log_skip), n) + 1.0).astype(np.int64)
        reach = np.cumsum(gaps)
        cols = last[owner] + reach - np.repeat(np.concatenate([[0], reach])[starts], slots)
        kept = cols < n
        owner_parts.append(owner[kept])
        col_parts.append(cols[kept])
        has = slots > 0
        last[live[has]] = cols[(starts + slots - 1)[has]]
        drawn[live] += slots
        live = live[last[live] < n - 1]
        slots = _slot_budget(n - 1 - last[live], prob)
    owner, cols = np.concatenate(owner_parts), np.concatenate(col_parts)
    if len(owner_parts) > 1:
        # Top-up rounds come after the first batch; a row's columns stay ascending.
        order = np.argsort(owner, kind="stable")
        owner, cols = owner[order], cols[order]
    return owner, cols


def sample_matrix(spec: EnsembleSpec):
    """Sample the sparse matrix described by ``spec``.

    The mask and the values come from two roots derived from the ensemble
    seed with ``mix64``.  Row ``i`` keeps the columns of its geometric gap walk
    (``_mask_columns``, keys ``i << 32 | k``); a hermitian row starts at its
    diagonal, a rectangular one at column 0, and a row with keep probability
    1 (``mu = 1``) keeps every column and draws no gap.  Entry ``(i, j)``
    takes ``z = mix64(value_root, i << 32 | j)``: the top 53 bits give the
    magnitude's uniform ``u`` in (0, 1], inverted through the tail, and the low
    bit the sign.  The entry at ``(i, j)`` therefore depends only on
    ``(seed, i, j)``, and the mask of row ``i`` only on ``(seed, mu, n, i)``,
    so fewer rows are a prefix.  Rows are drawn in blocks of about
    ``_BLOCK_SLOTS`` gap slots, so the temporaries stay small beside the
    output.
    """
    # Imported here: matrices.py needs no sampling machinery.
    from .matrices import SparseMatrix

    law, sparsity = spec.law, spec.sparsity
    n, p = spec.n, spec.p
    hermitian = spec.shape == HERMITIAN
    mask_root = mix64(spec.seed, _TAG_MASK)
    value_root = mix64(spec.seed, _TAG_VALUE)
    prob = float(n) ** (sparsity.mu - 1.0)
    sigma = _sigma(law)

    lo = np.arange(p, dtype=np.int64) if hermitian else np.zeros(p, dtype=np.int64)
    # Slots a row draws: its kept columns at prob = 1, else its gap budget.
    budget = n - lo if prob >= 1.0 else _slot_budget(n - lo, prob)
    block_ends = np.cumsum(budget)
    counts = np.zeros(p, dtype=np.int64)
    # Output buffers that hold all but rare draws, and every position at prob = 1.
    size = int(_SLOT_SLACK * _slot_budget(np.sum(n - lo), min(prob, 1.0)))
    cols, data = np.empty(size, dtype=np.int64), np.empty(size)
    nnz = 0
    r0 = 0
    while r0 < p:
        reached = block_ends[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(block_ends, reached + _BLOCK_SLOTS, side="right")))
        if prob >= 1.0:
            width = budget[r0:r1]
            owner = np.repeat(np.arange(r1 - r0), width)
            block_cols = np.arange(owner.size) - np.repeat(np.cumsum(width) - width - lo[r0:r1], width)
            counts[r0:r1] = width
        else:
            owner, block_cols = _mask_columns(r0, lo[r0:r1], budget[r0:r1], n, prob, mask_root)
            counts[r0:r1] = np.bincount(owner, minlength=r1 - r0)
        z = mix64_array(value_root, _keys(owner + r0, block_cols))
        end = nnz + owner.size
        cols, data = _grow(cols, end), _grow(data, end)
        cols[nnz:end] = block_cols
        np.divide(_quantile_raw(law, _unit(z)), sigma, out=data[nnz:end])
        # Magnitudes are positive: the low bit of z becomes the sign bit.
        signs = data[nnz:end].view(np.uint64)
        signs ^= z << np.uint64(63)
        nnz, r0 = end, r1
    cols, data = cols[:nnz], data[:nnz]

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
