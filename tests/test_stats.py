import math

import numpy as np
import pytest

from htspec.limits import c_np, mp_cdf
from htspec.stats import esd, ks_statistic, poisson_count_test
from htspec.tails import EnsembleSpec, SparsitySpec, TailLaw, sample_matrix


# ---------------------------------------------------------------------------
# KS distance


def test_ks_single_point_against_uniform():
    # one sample at the median of U(0,1): D = max(|1 - 1/2|, |0 - 1/2|) = 1/2
    assert ks_statistic([0.5], lambda x: x) == pytest.approx(0.5)


def test_ks_two_points_against_uniform():
    # quartile samples: both step mismatches equal 1/4
    assert ks_statistic([0.25, 0.75], lambda x: x) == pytest.approx(0.25)


def test_ks_of_sample_against_own_ecdf():
    rng = np.random.Generator(np.random.PCG64(3))
    samples = rng.standard_normal(40)
    ordered = np.sort(samples)

    def ecdf(x):
        # right-continuous step function of the sample
        return np.searchsorted(ordered, x, side="right") / ordered.size

    # the only mismatch is the left limit at each jump, 1/n
    assert ks_statistic(samples, ecdf) == pytest.approx(1.0 / 40.0)


def test_ks_null_distribution_monte_carlo():
    # sqrt(n) * D for uniform samples: about 5% of trials exceed 1.358
    rng = np.random.Generator(np.random.PCG64(99))
    n, trials = 500, 200
    scaled = np.array(
        [math.sqrt(n) * ks_statistic(rng.random(n), lambda x: x) for _ in range(trials)]
    )
    frac = float(np.mean(scaled > 1.358))
    assert 0.005 <= frac <= 0.12


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)
    with pytest.raises(ValueError):
        ks_statistic([1.0, np.inf], lambda x: x)
    with pytest.raises(ValueError):
        ks_statistic([1.0, 2.0], lambda x: 0.5)


# ---------------------------------------------------------------------------
# Poisson count test


def test_poisson_count_test_hand_example():
    # covariance at alpha = 2, so a = 1: expected exceedances of x are x^(-1)
    pts = [[2.0, 0.7, 0.3], [1.5], [0.9, 0.8]]
    out = poisson_count_test(pts, (0.5, 1.0), 1.0)
    assert [rec["threshold"] for rec in out] == [0.5, 1.0]

    first = out[0]
    assert first["expected"] == pytest.approx(2.0)
    assert first["observed_mean"] == pytest.approx(5.0 / 3.0)
    assert first["observed_var"] == pytest.approx(1.0 / 3.0)
    assert first["z_score"] == pytest.approx((5.0 / 3.0 - 2.0) / math.sqrt(2.0 / 3.0))

    second = out[1]
    assert second["expected"] == pytest.approx(1.0)
    assert second["observed_mean"] == pytest.approx(2.0 / 3.0)
    assert second["z_score"] == pytest.approx(-1.0 / 3.0 / math.sqrt(1.0 / 3.0))


def test_poisson_count_test_hermitian_exponent():
    # hermitian at alpha = 1, so a = 1
    out = poisson_count_test([[3.0]], (2.0,), 1.0)
    assert out[0]["expected"] == pytest.approx(0.5)  # x^(-a) = 1/2
    assert out[0]["observed_mean"] == 1.0


def test_poisson_count_test_strict_exceedance():
    # points exactly at the threshold do not count
    out = poisson_count_test([[1.0, 1.0]], (1.0,), 1.0)
    assert out[0]["observed_mean"] == 0.0


def test_poisson_count_test_empty_replicate_allowed():
    out = poisson_count_test([[], [2.0]], (1.0,), 1.0)
    assert out[0]["observed_mean"] == pytest.approx(0.5)


def test_poisson_count_test_validation():
    with pytest.raises(ValueError):
        poisson_count_test([], (1.0,), 1.0)
    with pytest.raises(ValueError):
        poisson_count_test([[1.0]], (), 1.0)
    for a in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            poisson_count_test([[1.0]], (1.0,), a)


# ---------------------------------------------------------------------------
# empirical spectral distribution


def test_esd_scale_division():
    ks = esd([10.0, 20.0], 10.0, 1.0)
    assert ks == ks_statistic([1.0, 2.0], lambda x: mp_cdf(x, 1.0))


def test_esd_matches_marchenko_pastur_for_gaussian():
    # pooled eigenvalues of five 300 x 300 Wishart matrices against the
    # square-case law; fixed seed makes the distance deterministic
    rng = np.random.Generator(np.random.PCG64(42))
    n = 300
    pooled = np.concatenate(
        [np.linalg.eigvalsh(x @ x.T) for x in rng.standard_normal((5, n, n))]
    )
    assert esd(pooled, float(n), 1.0) <= 0.02


def test_esd_ks_consistency_with_direct_call():
    vals = np.array([0.5, 1.5, 2.5, 3.5])
    assert esd(vals, 1.0, 1.0) == pytest.approx(ks_statistic(vals, lambda x: mp_cdf(x, 1.0)))


def test_esd_validation():
    with pytest.raises(ValueError):
        esd([1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        esd([], 1.0, 1.0)
    with pytest.raises(ValueError):
        esd([np.nan], 1.0, 1.0)


# ---------------------------------------------------------------------------
# isolation of large entries


def colliding_lines(m, threshold):
    """Rows plus columns of ``m`` holding two or more entries above
    ``threshold`` in magnitude."""
    big = np.abs(m.values) > threshold
    row_hits = np.bincount(m.row_index_of_entries()[big], minlength=m.rows)
    col_hits = np.bincount(m.indices[big], minlength=m.cols)
    return int(np.sum(row_hits >= 2) + np.sum(col_hits >= 2))


def test_collision_scan_frequency_matches_poisson_line_model():
    # Full square matrix (mu = 1), alpha = 1, n = 500: an entry exceeds
    # c_np**g with probability q = (p * n)**(-g) exactly, so each of the
    # n + p lines holds >= 2 such entries with probability
    # 1 - (1-q)**n - n*q*(1-q)**(n-1), and the chance that any line does is
    # 0.2468 at g = 0.8 (expected number of colliding lines 0.2834).  At
    # g = 0.95 the same model gives 0.0069, so large entries are isolated.
    law = TailLaw(alpha=1.0)
    n = 500
    cnp = c_np(law, n, n, 1.0)
    hits80 = hits95 = 0
    R = 200
    for r in range(R):
        spec = EnsembleSpec(
            shape="rectangular", n=n, law=law,
            sparsity=SparsitySpec.bernoulli(1.0), seed=1000 + r,
        )
        m = sample_matrix(spec)
        hits80 += colliding_lines(m, cnp**0.8) > 0
        hits95 += colliding_lines(m, cnp**0.95) > 0
    freq80 = hits80 / R
    freq95 = hits95 / R
    # 0.2468 +/- 4 binomial standard errors at R = 200
    assert 0.1249 <= freq80 <= 0.3687, freq80
    assert freq95 <= 0.05, freq95
