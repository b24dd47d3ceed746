"""Eigenvector localization metrics.

A unit vector is ``(L, eta)``-localized when some ``L`` coordinates carry
squared mass above ``1 - eta``.  Because squared mass is additive, the best
support of size ``L`` is the ``L`` largest squared coordinates, so a sort
computes the whole mass curve at once.  Distances to basis and pair vectors
are minimized over global sign, making them invariant under the sign
ambiguity of computed eigenvectors.
"""

from __future__ import annotations

import math

import numpy as np

_UNIT_TOL = 1e-10


def _check_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty 1-d vector")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > _UNIT_TOL:
        raise ValueError(f"v must be unit norm within {_UNIT_TOL}: |v| = {nrm}")
    return v


def localization_profile(v: np.ndarray) -> np.ndarray:
    """Mass curve of unit ``v``: entry ``L-1`` is the largest squared mass any
    ``L`` coordinates carry, the sum of the ``L`` largest squared coordinates."""
    v = _check_unit(v)
    return np.cumsum(np.sort(v * v)[::-1])


def is_localized(v: np.ndarray, L: int, eta: float) -> bool:
    """True when the ``L`` largest squared coordinates of unit ``v`` sum above
    ``1 - eta``: entry ``L-1`` of the mass curve."""
    curve = localization_profile(v)
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"L must be a positive integer: {L!r}")
    if L > curve.size:
        raise ValueError(f"L = {L} exceeds dimension {curve.size}")
    if not (math.isfinite(eta) and 0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1]: {eta!r}")
    return float(curve[L - 1]) > 1.0 - eta


def distance_to_basis_vector(v: np.ndarray, i: int) -> float:
    """``min over signs s of |v - s e_i|``, equal to
    ``sqrt(|v|^2 + 1 - 2 |v_i|)``."""
    v = np.asarray(v, dtype=np.float64)
    if not 0 <= i < v.size:
        raise ValueError(f"index {i} out of range for dimension {v.size}")
    sq = float(v @ v)
    return math.sqrt(max(0.0, sq + 1.0 - 2.0 * abs(float(v[i]))))


def distance_to_pair_vector(v: np.ndarray, i: int, j: int, theta: float) -> float:
    """Distance from ``v`` to the two-site eigenvector of an isolated coupling.

    The asymptotic target is ``(e_i + e_j)/sqrt(2)`` for ``theta = 0`` (positive
    coupling) and ``(e_i - e_j)/sqrt(2)`` for ``theta = pi``.  At finite size the
    near-degenerate pair mixes, so the reported value is the minimum over global
    sign and over both pair vectors.
    """
    v = np.asarray(v, dtype=np.float64)
    if i == j:
        raise ValueError("pair vector needs two distinct sites")
    if not (0 <= i < v.size and 0 <= j < v.size):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {v.size}")
    if not (abs(theta) <= 1e-9 or abs(theta - math.pi) <= 1e-9):
        raise ValueError(f"theta must be 0 or pi for real entries: {theta!r}")
    vi, vj = float(v[i]), float(v[j])
    ip_plus = (vi + vj) / math.sqrt(2.0)
    ip_minus = (vi - vj) / math.sqrt(2.0)
    best = max(abs(ip_plus), abs(ip_minus))
    sq = float(v @ v)
    return math.sqrt(max(0.0, sq + 1.0 - 2.0 * best))
