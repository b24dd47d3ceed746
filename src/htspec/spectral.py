"""Eigensolvers and exact spectral checkers.

Two independent routes compute extreme eigenvalues: a dense symmetric solver
used as the oracle at small dimension, and a Lanczos iteration with full
reorthogonalization that only touches the matrix through products, so the
Gram matrix ``M M^T`` is never formed.  The two must agree to tight
tolerance; that cross-check is part of the test suite, so neither route may
be silently rewired into the other.

The checkers encode identities that hold exactly (up to floating point
rounding) for every sample: Cauchy interlacing for principal minors and for
row/column deletions of rectangular matrices, the residual-ball enclosure
``dist(spec(A), <v, A v>) <= |(A - <v, A v>) v|`` for any unit ``v`` with the
companion eigenvector bound, and the principal-submatrix bound on eigenvalues
with localized eigenvectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .localization import is_localized
from .matrices import RankedEntry, SparseMatrix, gram_matvec, matvec

DENSE_DIM_LIMIT = 2048

# Share of the largest |Ritz value| below which a residual counts as converged:
# rounding alone leaves up to about 1e-13 |A| on an eigenvalue near zero.
RESIDUAL_FLOOR = 1e-12

SOLVER_DENSE = "dense"
SOLVER_LANCZOS = "lanczos"


@dataclass
class SpectralResult:
    """Eigenvalues in descending order with orthonormal eigenvectors.

    Vector signs are fixed so each column's largest-magnitude coordinate is
    positive.  ``residual_norms[l] = |A v_l - lambda_l v_l|``.  ``converged``
    is False when the iteration hit its cap before meeting the tolerance; the
    partial quantities are still reported.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    solver: str
    residual_norms: np.ndarray
    iterations: int = 0
    restarts: int = 0
    converged: bool = True

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "residuals": [float(x) for x in self.residual_norms],
            "solver": self.solver,
            "iterations": int(self.iterations),
            "restarts": int(self.restarts),
            "converged": bool(self.converged),
        }


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    for col in range(vectors.shape[1]):
        idx = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[idx, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return vectors


def eig_dense_symmetric(a: np.ndarray) -> SpectralResult:
    """Full spectrum of a dense symmetric matrix, descending, via the dense
    tridiagonalization + implicit-shift path (LAPACK).  Oracle route; the
    caller decides whether the dimension is small enough to go dense."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric within tolerance (max asymmetry {asym})")
    try:
        w, vecs = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"dense eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    vecs = _fix_signs(vecs[:, order])
    residuals = np.linalg.norm(a @ vecs - vecs * w, axis=0)
    return SpectralResult(
        eigenvalues=w,
        eigenvectors=vecs,
        solver=SOLVER_DENSE,
        residual_norms=residuals,
        iterations=dim,
        converged=True,
    )


def _operator(m: SparseMatrix):
    """Matrix product closure and its dimension: plain product for symmetric
    input, Gram product ``M M^T v`` for rectangular input."""
    if m.symmetric:
        return (lambda v: matvec(m, v)), m.rows
    return (lambda v: gram_matvec(m, v)), m.rows


def top_eigs(
    m: SparseMatrix,
    k: int,
    tol: float = 1e-10,
    seed: int = 0,
) -> SpectralResult:
    """Top ``k`` eigenvalues (largest, descending) by Lanczos with full
    reorthogonalization.

    Symmetric matrices are iterated directly; rectangular ones through the
    Gram product, so the result is the top of ``M M^T``.  The start vector is
    drawn from ``PCG64(seed)``, making the run deterministic.  Convergence
    requires every reported pair to satisfy
    ``|A v - lambda v| <= tol * max(1, |lambda|)``, or, in the final check
    only, ``<= RESIDUAL_FLOOR * max |Ritz value|``; if the iteration cap
    (``10 k + 400``, never beyond the dimension) is reached first, the
    best estimates are returned with ``converged = False``.  A pass that runs
    out of Krylov space (``w`` is rounding noise, or all its Ritz pairs have
    converged) is followed by another in the rest of the space, started from
    a fresh orthogonalized direction when ``w`` is noise, until the newest
    pass's top value has converged below the k-th; so every copy of a
    repeated eigenvalue is found once a space runs out, while a pass that
    converges before that reports each value once.
    """
    apply_op, dim = _operator(m)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer: {k!r}")
    if k > min(dim, 50):
        raise ValueError(f"k = {k} exceeds min(dim, 50) = {min(dim, 50)}")
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise ValueError(f"tol must be >= 1e-12: {tol!r}")
    cap = min(10 * k + 400, dim)

    rng = np.random.Generator(np.random.PCG64(seed))
    basis = np.empty((dim, min(cap, 64)), dtype=np.float64)

    def ensure_capacity(j: int) -> None:
        nonlocal basis
        if j >= basis.shape[1]:
            grown = np.empty((dim, min(cap, basis.shape[1] * 2)), dtype=np.float64)
            grown[:, : basis.shape[1]] = basis
            basis = grown

    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis[:, 0] = q
    alphas: list[float] = []
    betas: list[float] = []
    restarts = 0
    start = 0  # first step of the current Krylov pass
    converged = False
    j = 0
    while j < cap:
        w = apply_op(basis[:, j])
        alpha = float(basis[:, j] @ w)
        alphas.append(alpha)
        w = w - alpha * basis[:, j]
        if j > 0 and betas[j - 1] != 0.0:
            w = w - betas[j - 1] * basis[:, j - 1]
        # Full reorthogonalization; a second pass removes the residue the
        # first leaves when w is nearly inside the span.
        for _ in range(2):
            w = w - basis[:, : j + 1] @ (basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        # The current pass has run out of Krylov space when w is rounding
        # noise, or, to within tol, when all its Ritz pairs have converged;
        # the latter needs beta <= tol sqrt(pass length) max(1, |T|), so below
        # k steps the Ritz pairs are only computed when beta passes that test.
        scale = max(1.0, max(abs(a) for a in alphas))
        exhausted = beta <= 1e-13 * scale
        closed = exhausted
        bound = tol * math.sqrt(j + 1 - start) * (scale + 2 * max(betas[start:], default=0.0))
        if j + 1 >= k or beta <= bound:
            pass_theta, pass_y = eigh_tridiagonal(np.array(alphas[start:]), np.array(betas[start:j]))
            pass_ok = beta * np.abs(pass_y[-1]) <= tol * np.maximum(1.0, np.abs(pass_theta))
            closed = exhausted or bool(np.all(pass_ok))

        if j + 1 >= k:
            if start:
                theta, y = eigh_tridiagonal(np.array(alphas), np.array(betas[:j]))
            else:
                theta, y = pass_theta, pass_y
            top = np.argsort(-theta, kind="stable")[:k]
            bounds = beta * np.abs(y[-1, top])
            done = bool(np.all(bounds <= tol * np.maximum(1.0, np.abs(theta[top]))))
            if done and (closed or start):
                # A closed pass says nothing of the rest of the space, which
                # may hold further copies of the values found, and the next
                # pass reaches its largest value first: stop only once that
                # value has converged and does not exceed the k-th.
                i = int(np.argmax(pass_theta))
                kth = float(theta[top[-1]])
                done = bool(pass_ok[i]) and pass_theta[i] <= kth + tol * max(1.0, abs(kth))
            if done:
                converged = True
                j += 1
                break

        if j + 1 == cap:
            j += 1
            break

        if exhausted:
            # Restart in the orthogonal complement.
            fresh = rng.standard_normal(dim)
            for _ in range(2):
                fresh = fresh - basis[:, : j + 1] @ (basis[:, : j + 1].T @ fresh)
            fnorm = float(np.linalg.norm(fresh))
            if fnorm <= 1e-13:
                j += 1
                break
            betas.append(0.0)
            restarts += 1
            ensure_capacity(j + 1)
            basis[:, j + 1] = fresh / fnorm
        else:
            betas.append(beta)
            ensure_capacity(j + 1)
            basis[:, j + 1] = w / beta
        if closed:
            start = j + 1
        j += 1

    steps = len(alphas)
    theta, y = eigh_tridiagonal(np.array(alphas), np.array(betas[: steps - 1]))
    top = np.argsort(-theta, kind="stable")[: min(k, steps)]
    values = theta[top]
    vectors = basis[:, :steps] @ y[:, top]
    vectors /= np.linalg.norm(vectors, axis=0)
    vectors = _fix_signs(vectors)
    residuals = np.empty(values.size)
    for col in range(values.size):
        residuals[col] = np.linalg.norm(apply_op(vectors[:, col]) - values[col] * vectors[:, col])
    converged = bool(converged or steps == dim)
    allowed = np.maximum(tol * np.maximum(1.0, np.abs(values)), RESIDUAL_FLOOR * np.max(np.abs(theta)))
    converged = bool(converged and np.all(residuals <= allowed))
    return SpectralResult(
        eigenvalues=values,
        eigenvectors=vectors,
        solver=SOLVER_LANCZOS,
        residual_norms=residuals,
        iterations=steps,
        restarts=restarts,
        converged=converged,
    )


def check_interlacing(big, small) -> dict:
    """Verify a Cauchy interlacing chain ``big[i] >= small[i] >= big[i+1]``;
    returns ``{"holds", "max_violation"}``.

    ``big`` and ``small`` are 1-d value arrays in any order, sorted here in
    descending order, with ``big.size - 1 <= small.size <= big.size``: the
    eigenvalues of a symmetric matrix and of a principal minor one smaller,
    or the singular values of a ``p x n`` matrix and of the matrix with one
    row or column removed.  Tolerance is ``1e-9`` relative to the largest
    ``|big|``; a NaN value fails the check.
    """
    big = np.asarray(big, dtype=np.float64)
    small = np.asarray(small, dtype=np.float64)
    if big.ndim != 1 or small.ndim != 1:
        raise ValueError(f"expected 1-d value arrays, got shapes {big.shape}, {small.shape}")
    if not big.size - 1 <= small.size <= big.size:
        raise ValueError(f"small must hold big.size - 1 or big.size values: {big.size}, {small.size}")
    big = np.sort(big)[::-1]
    small = np.sort(small)[::-1]
    gaps = np.concatenate([small - big[: small.size], big[1:] - small[: big.size - 1]])
    # ``+ 0.0`` turns a -0.0 maximum into 0.0, so no report prints -0.0.
    violation = float(np.max(gaps, initial=0.0)) + 0.0
    scale = max(1.0, float(np.max(np.abs(big))) if big.size else 0.0)
    return {"holds": bool(violation <= 1e-9 * scale), "max_violation": violation}


@dataclass(frozen=True)
class PerturbationCheck:
    """Residual-ball enclosure for an approximate eigenpair.

    ``zeta`` is the Rayleigh quotient of the probe vector, ``epsilon`` its
    residual norm; some true eigenvalue lies within ``epsilon`` of ``zeta``
    (``holds_a``).  When exactly one eigenvalue sits in that ball and the rest
    are at distance ``d > epsilon``, ``vector_bound`` reports the companion
    estimate ``|v_eps - P_v v_eps| <= 2 epsilon / (d - epsilon)``.
    """

    zeta: float
    epsilon: float
    nearest_eig_distance: float
    holds_a: bool
    vector_bound: dict | None = None


def perturbation_check(a, v: np.ndarray, spectrum: SpectralResult) -> PerturbationCheck:
    """Evaluate the enclosure above for unit ``v`` against a complete spectrum.

    ``a`` is a dense symmetric matrix, such as a Gram matrix ``M M^T``.  The
    spectrum must be complete; the eigenvector part is skipped when the
    spectrum carries no vectors.
    """
    v = np.asarray(v, dtype=np.float64)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"probe vector must be unit norm: |v| = {nrm}")
    av = np.asarray(a, dtype=np.float64) @ v
    if av.shape != v.shape:
        raise ValueError("probe vector length does not match the operator")
    dim = v.size
    values = np.asarray(spectrum.eigenvalues, dtype=np.float64)
    if values.size != dim:
        raise ValueError(
            f"spectrum is incomplete: {values.size} eigenvalues for dimension {dim}"
        )
    zeta = float(v @ av)
    eps = float(np.linalg.norm(av - zeta * v))
    dist = np.abs(values - zeta)
    nearest = float(dist.min())
    holds_a = nearest <= eps + 1e-9

    vector_bound = None
    vectors = spectrum.eigenvectors
    if vectors is not None and vectors.shape == (dim, dim):
        in_ball = np.nonzero(dist <= eps)[0]
        if in_ball.size == 1:
            others = np.delete(dist, in_ball[0])
            if others.size:
                d = float(others.min())
                if d > eps:
                    v_eps = vectors[:, in_ball[0]]
                    lhs = float(np.linalg.norm(v_eps - (v @ v_eps) * v))
                    rhs = 2.0 * eps / (d - eps)
                    vector_bound = {
                        "lhs": lhs,
                        "rhs": rhs,
                        "gap": d,
                        "holds": bool(lhs <= rhs + 1e-9),
                    }
    return PerturbationCheck(
        zeta=zeta,
        epsilon=eps,
        nearest_eig_distance=nearest,
        holds_a=holds_a,
        vector_bound=vector_bound,
    )


def row_residual(m: SparseMatrix, entry: RankedEntry) -> tuple[np.ndarray, float]:
    """``r = M M^T e_i - |m_ij|^2 e_i`` and its norm for an already ranked
    entry at ``(i, j)``."""
    e = np.zeros(m.rows)
    e[entry.i] = 1.0
    r = gram_matvec(m, e)
    r[entry.i] -= entry.magnitude ** 2
    return r, float(np.linalg.norm(r))


def principal_subradius(a: np.ndarray, L: int) -> float:
    """Largest spectral radius over principal ``L x L`` submatrices, by
    enumerating all supports (refused beyond 1e6 of them)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if not 1 <= L <= dim:
        raise ValueError(f"L must lie in [1, {dim}]: {L}")
    if math.comb(dim, L) > 10 ** 6:
        raise ValueError(
            f"C({dim}, {L}) = {math.comb(dim, L)} supports exceed the enumeration cap"
        )
    best = 0.0
    batch: list[np.ndarray] = []
    for sup in itertools.combinations(range(dim), L):
        idx = np.fromiter(sup, dtype=np.int64, count=L)
        batch.append(a[np.ix_(idx, idx)])
        if len(batch) == 512:
            best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(np.array(batch))))))
            batch = []
    if batch:
        best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(np.array(batch))))))
    return best


def localization_bound_check(
    a: np.ndarray, lam: float, v: np.ndarray, L: int, eta: float
) -> dict:
    """Check ``|lam| <= (rho_L(A) + sqrt(eta) |A|) / sqrt(1 - eta)`` for an
    eigenpair with ``(L, eta)``-localized eigenvector.

    Precondition failures (not localized, not an eigenpair) are reported in
    the result, not raised, so sweeps can tally them.
    """
    a = np.asarray(a, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    pre: dict[str, bool] = {}
    pre["unit"] = abs(float(np.linalg.norm(v)) - 1.0) <= 1e-10
    pre["localized"] = bool(is_localized(v, L, eta)) if pre["unit"] else False
    res = float(np.linalg.norm(a @ v - lam * v))
    pre["eigenpair"] = res <= 1e-8 * max(1.0, abs(lam))
    op_norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (a + a.T)))))
    rho_l = principal_subradius(a, L)
    if eta >= 1.0:
        rhs = math.inf
    else:
        rhs = (rho_l + math.sqrt(eta) * op_norm) / math.sqrt(1.0 - eta)
    lhs = abs(lam)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rho_L": rho_l,
        "op_norm": op_norm,
        "holds": bool(lhs <= rhs * (1.0 + 1e-12) + 1e-12),
        "preconditions": pre,
        "preconditions_ok": all(pre.values()),
    }
