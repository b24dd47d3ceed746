import math

import numpy as np
import pytest
from scipy.integrate import quad

from htspec.limits import (
    CRITICAL,
    EDGE,
    POISSONIAN,
    c_n,
    c_np,
    classify_regime,
    frechet_cdf,
    mp_cdf,
    mp_density,
    mp_edges,
    pp_mean_count,
)
from htspec.tails import SV_LOG_POWER, TailLaw


def test_classify_regime():
    assert classify_regime(1.0, 1.0) == POISSONIAN
    assert classify_regime(3.9, 1.0) == POISSONIAN
    assert classify_regime(4.0, 1.0) == CRITICAL
    assert classify_regime(4.1, 1.0) == EDGE
    assert classify_regime(8.0, 1.0) == EDGE
    # threshold 2 (1 + 1/mu): mu = 0.5 -> 6
    assert classify_regime(5.99, 0.5) == POISSONIAN
    assert classify_regime(6.0, 0.5) == CRITICAL
    assert classify_regime(6.01, 0.5) == EDGE
    # mu = 0: threshold infinite, everything is poissonian
    assert classify_regime(100.0, 0.0) == POISSONIAN


def test_c_np_example():
    # alpha = 2, constant c = 1, n = p = 100, mu = 1:
    # u = 1/(p n^mu) = 1e-4, Q(u) = u^{-1/2} = 100
    assert c_np(TailLaw(alpha=2.0), 100, 100, 1.0) == pytest.approx(100.0, rel=1e-12)


def test_c_np_scaling():
    # constant law: c_np = (p n^mu)^(1/alpha) once past the support atom
    law = TailLaw(alpha=1.0)
    assert c_np(law, 1000, 500, 0.5) == pytest.approx(500 * 1000**0.5, rel=1e-12)


def test_c_n_hermitian():
    # u = 2 / ((n+1) n^(mu)) ... the pair-count normalization on the upper
    # triangle including the diagonal: n (n+1) / 2 cells
    law = TailLaw(alpha=1.0)
    n, mu = 100, 1.0
    u = 2.0 / ((n + 1) * n**mu)
    assert c_n(law, n, mu) == pytest.approx(1.0 / u, rel=1e-12)


def test_c_np_monotone_in_n():
    law = TailLaw(alpha=1.5, sv_kind=SV_LOG_POWER, sv_c=2.0, sv_beta=1.0)
    values = [c_np(law, n, n, 1.0) for n in (50, 100, 200, 400)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_frechet_cdf():
    assert frechet_cdf(1.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert frechet_cdf(0.0, 2.0) == 0.0
    assert frechet_cdf(-3.0, 2.0) == 0.0
    # vectorized, increasing
    t = np.linspace(0.01, 50, 200)
    f = frechet_cdf(t, 0.5)
    assert np.all(np.diff(f) > 0)
    assert f[-1] < 1.0


def test_frechet_median():
    # median at (ln 2)^(-1/a)
    a = 1.7
    med = math.log(2.0) ** (-1.0 / a)
    assert frechet_cdf(med, a) == pytest.approx(0.5, rel=1e-12)


def test_pp_mean_count():
    # covariance at alpha = 2 has a = alpha / 2 = 1; hermitian at alpha = 2 has a = 2
    assert pp_mean_count(1.0, 1.0) == 1.0
    assert pp_mean_count(4.0, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert pp_mean_count(4.0, 2.0) == pytest.approx(1.0 / 16.0, rel=1e-14)
    with pytest.raises(ValueError):
        pp_mean_count(0.0, 1.0)
    for a in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            pp_mean_count(1.0, a)


def test_mp_edges():
    lo, hi = mp_edges(1.0)
    assert (lo, hi) == (0.0, 4.0)
    lo, hi = mp_edges(0.25)
    assert lo == pytest.approx(0.25, rel=1e-14)
    assert hi == pytest.approx(2.25, rel=1e-14)


def test_mp_density_point_values():
    assert mp_density(2.0, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert mp_density(4.0, 1.0) == 0.0
    assert mp_density(5.0, 1.0) == 0.0
    assert mp_density(0.1, 0.25) == 0.0  # below the lower edge


def test_mp_density_integrates_to_one():
    for rho in (1.0, 0.5, 0.2):
        lo, hi = mp_edges(rho)
        total, err = quad(lambda x: mp_density(x, rho), lo, hi, limit=400)
        assert total == pytest.approx(1.0, abs=5e-8)


def test_mp_cdf_against_quad():
    # independent oracle: scipy adaptive quadrature of the density
    for rho in (1.0, 0.6, 0.3, 0.05):
        lo, hi = mp_edges(rho)
        for frac in (1e-6, 0.1, 0.35, 0.5, 0.8, 0.97, 1 - 1e-6):
            x = lo + frac * (hi - lo)
            ref, _ = quad(lambda t: mp_density(t, rho), lo, x, limit=400)
            assert mp_cdf(x, rho) == pytest.approx(ref, abs=5e-9), (rho, x)


def test_mp_cdf_limits_and_clipping():
    assert mp_cdf(-1.0, 1.0) == 0.0
    assert mp_cdf(0.0, 1.0) == 0.0
    assert mp_cdf(4.0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert mp_cdf(10.0, 1.0) == 1.0
    lo, hi = mp_edges(0.5)
    assert mp_cdf(lo, 0.5) == 0.0
    assert mp_cdf(hi + 1.0, 0.5) == 1.0


def test_mp_cdf_array_matches_scalar():
    xs = np.linspace(-0.5, 4.5, 41)
    for rho in (1.0, 0.3):
        arr = mp_cdf(xs, rho)
        scalars = np.array([mp_cdf(float(x), rho) for x in xs])
        np.testing.assert_allclose(arr, scalars, atol=1e-12)
        assert np.all(np.diff(arr) >= -1e-12)


def test_mp_cdf_median_rho_one():
    # at rho = 1 the law is that of a squared semicircle variable; its
    # median solves F(x) = 1/2
    from scipy.optimize import brentq

    med = brentq(lambda x: mp_cdf(x, 1.0) - 0.5, 0.01, 3.99, xtol=1e-12)
    ref = brentq(
        lambda x: quad(lambda t: mp_density(t, 1.0), 0, x, limit=400)[0] - 0.5,
        0.01, 3.99, xtol=1e-10,
    )
    assert med == pytest.approx(ref, abs=1e-8)


def test_validation():
    law = TailLaw(alpha=1.0)
    with pytest.raises(ValueError):
        mp_edges(0.0)
    with pytest.raises(ValueError):
        mp_edges(1.5)
    with pytest.raises(ValueError):
        c_np(law, 0, 10, 1.0)
    with pytest.raises(ValueError):
        c_n(law, 0, 1.0)
    with pytest.raises(ValueError):
        frechet_cdf(1.0, 0.0)
    with pytest.raises(ValueError):
        classify_regime(-1.0, 0.5)
    with pytest.raises(ValueError):
        classify_regime(1.0, 2.0)
