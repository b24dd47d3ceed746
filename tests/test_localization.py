import itertools
import math

import numpy as np
import pytest

from htspec.localization import (
    distance_to_basis_vector,
    distance_to_pair_vector,
    is_localized,
    localization_profile,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_profile_mass_curve():
    curve = localization_profile(np.array([0.6, 0.8, 0.0]))
    np.testing.assert_allclose(curve, [0.64, 1.0, 1.0], atol=1e-15)


def test_profile_best_support():
    # entry L-1 of the curve is the largest mass over all supports of size L
    v = unit(np.random.Generator(np.random.PCG64(5)).standard_normal(7))
    curve = localization_profile(v)
    for L in range(1, v.size + 1):
        best = max(
            float(np.sum(v[list(sup)] ** 2))
            for sup in itertools.combinations(range(v.size), L)
        )
        assert curve[L - 1] == pytest.approx(best, rel=1e-14)


def test_profile_requires_unit_vector():
    with pytest.raises(ValueError):
        localization_profile(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        localization_profile(np.zeros(3))


def test_is_localized():
    v = unit([0.9, 0.1, 0.1, 0.1])
    assert is_localized(v, 1, 0.3)
    assert not is_localized(unit(np.ones(100)), 5, 0.3)
    # the comparison is strict: mass just below 1 - eta fails, just above passes
    w_lo = np.array([math.sqrt(0.699), math.sqrt(0.301)])
    w_hi = np.array([math.sqrt(0.701), math.sqrt(0.299)])
    assert not is_localized(w_lo, 1, 0.3)
    assert is_localized(w_hi, 1, 0.3)
    with pytest.raises(ValueError):
        is_localized(v, 0, 0.3)
    with pytest.raises(ValueError):
        is_localized(v, 1, 0.0)
    with pytest.raises(ValueError):
        is_localized(v, 1, 1.5)
    assert is_localized(v, 1, 1.0)  # eta = 1 is trivially satisfied


def test_distance_to_basis_vector():
    v = np.zeros(10)
    v[3] = 1.0
    assert distance_to_basis_vector(v, 3) == 0.0
    assert distance_to_basis_vector(v, 4) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert distance_to_basis_vector(-v, 3) == 0.0  # sign-free
    w = unit([1.0, 1.0])
    # min over signs of ||w -+ e_0||: sqrt(2 - 2/sqrt(2))
    assert distance_to_basis_vector(w, 0) == pytest.approx(
        math.sqrt(2.0 - math.sqrt(2.0)), rel=1e-12
    )


def test_distance_to_pair_vector_exact():
    plus = np.zeros(8)
    plus[2] = plus[5] = 1.0 / math.sqrt(2.0)
    assert distance_to_pair_vector(plus, 2, 5, 0.0) == pytest.approx(0.0, abs=1e-12)
    minus = plus.copy()
    minus[5] *= -1.0
    assert distance_to_pair_vector(minus, 2, 5, math.pi) == pytest.approx(0.0, abs=1e-12)
    # global sign flip is free
    assert distance_to_pair_vector(-plus, 2, 5, 0.0) == pytest.approx(0.0, abs=1e-12)
    # index order is symmetric
    assert distance_to_pair_vector(plus, 5, 2, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_distance_to_pair_vector_degenerate_mixing():
    # at finite n the +/- pair eigenvalues nearly collide; the measured vector
    # can be any rotation within the pair plane, so the distance is the min
    # over both pair vectors
    theta = 0.3
    plus = np.zeros(6)
    plus[0] = plus[4] = 1.0 / math.sqrt(2.0)
    minus = np.zeros(6)
    minus[0], minus[4] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    mixed = math.cos(theta) * plus + math.sin(theta) * minus
    d = distance_to_pair_vector(mixed, 0, 4, 0.0)
    expected = min(
        np.linalg.norm(mixed - plus), np.linalg.norm(mixed + plus),
        np.linalg.norm(mixed - minus), np.linalg.norm(mixed + minus),
    )
    assert d == pytest.approx(expected, rel=1e-12)


def test_distance_to_pair_random_agrees_with_bruteforce():
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(50):
        n = 12
        v = unit(rng.standard_normal(n))
        i, j = rng.choice(n, size=2, replace=False)
        theta = float(rng.choice([0.0, math.pi]))
        d = distance_to_pair_vector(v, int(i), int(j), theta)
        plus = np.zeros(n); plus[i] = plus[j] = 1 / math.sqrt(2)
        minus = np.zeros(n); minus[i], minus[j] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        brute = min(
            np.linalg.norm(v - plus), np.linalg.norm(v + plus),
            np.linalg.norm(v - minus), np.linalg.norm(v + minus),
        )
        assert d == pytest.approx(brute, rel=1e-10)


def test_distance_validation():
    v = np.zeros(5); v[0] = 1.0
    with pytest.raises(ValueError):
        distance_to_pair_vector(v, 1, 1, 0.0)  # i == j
    with pytest.raises(ValueError):
        distance_to_pair_vector(v, 0, 1, 0.5)  # theta not in {0, pi}
    with pytest.raises(ValueError):
        distance_to_basis_vector(v, 7)  # out of range
    # non-unit input is allowed: the closed form holds for any vector
    assert distance_to_basis_vector(v * 2.0, 0) == pytest.approx(1.0, rel=1e-12)
