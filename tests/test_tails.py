import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse import coo_matrix

import htspec
from htspec.experiments import REPORT_FORMAT_VERSION
from htspec.matrices import SparseMatrix
from htspec.seeding import mix64
from htspec.tails import (
    _TAG_MASK,
    _TAG_VALUE,
    SV_LOG_POWER,
    EnsembleSpec,
    SparsitySpec,
    TailLaw,
    _quantile_raw,
    _sigma,
    quantile_abs,
    sample_matrix,
    tail,
    variance_unstandardized,
)


def test_tail_closed_form():
    law = TailLaw(alpha=2.0)
    assert tail(law, 10.0) == pytest.approx(0.01, abs=0)
    assert tail(law, 1.0) == 1.0
    assert tail(law, 0.5) == 1.0  # capped at 1 below the support
    assert tail(law, 0.0) == 1.0


def test_tail_log_power_matches_formula():
    law = TailLaw(alpha=1.5, sv_kind=SV_LOG_POWER, sv_c=0.5, sv_beta=1.0)
    t = 7.0
    expected = min(1.0, 0.5 * math.log(math.e + t) ** 1.0 * t ** -1.5)
    assert tail(law, t) == pytest.approx(expected, rel=1e-14)


def test_tail_vectorized():
    law = TailLaw(alpha=1.0)
    t = np.array([0.0, 0.5, 1.0, 2.0, 100.0])
    out = tail(law, t)
    assert out.shape == t.shape
    np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 0.5, 0.01])


def test_quantile_closed_form():
    law = TailLaw(alpha=2.0)
    assert quantile_abs(law, 0.01) == pytest.approx(10.0, rel=1e-14)
    assert quantile_abs(law, 1.0) == 1.0
    assert quantile_abs(law, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # with c < s^alpha the support edge carries an atom; inside it the
    # quantile saturates at s
    atom_law = TailLaw(alpha=2.0, sv_c=0.5)
    assert tail(atom_law, 1.0) == 0.5
    assert quantile_abs(atom_law, 0.7) == 1.0
    assert quantile_abs(atom_law, 0.5) == 1.0
    assert quantile_abs(atom_law, 0.25) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_quantile_tail_composition():
    # tail(quantile(u)) <= u, with equality wherever the tail is continuous
    for law in [
        TailLaw(alpha=0.7),
        TailLaw(alpha=2.0, sv_c=3.0),
        TailLaw(alpha=1.5, sv_kind=SV_LOG_POWER, sv_c=0.5, sv_beta=1.0),
        TailLaw(alpha=3.0, sv_kind=SV_LOG_POWER, sv_c=2.0, sv_beta=2.0),
        TailLaw(alpha=4.0, standardize=True),
    ]:
        u = np.geomspace(1e-10, 1.0, 101)
        q = quantile_abs(law, u)
        back = tail(law, q)
        assert np.all(back <= u + 1e-15)
        # equality on the continuous part (u below the atom mass)
        atom = tail(law, law.support_min if not law.standardize else 0.0)
        cont = u < min(1.0, atom) * (1 - 1e-9)
        np.testing.assert_allclose(back[cont], u[cont], rtol=1e-9)


def test_quantile_monotone():
    law = TailLaw(alpha=1.2, sv_kind=SV_LOG_POWER, sv_c=1.3, sv_beta=2.0)
    u = np.linspace(1e-8, 1.0, 300)
    q = quantile_abs(law, u)
    assert np.all(np.diff(q) <= 1e-12)  # nonincreasing in u


def test_variance_closed_form():
    # E x^2 = t0^2 + 2 c t0^(2-alpha) / (alpha - 2),  t0 = max(s, c^(1/alpha))
    assert variance_unstandardized(TailLaw(alpha=4.0)) == pytest.approx(2.0, rel=1e-13)
    assert variance_unstandardized(TailLaw(alpha=3.0)) == pytest.approx(3.0, rel=1e-13)
    law = TailLaw(alpha=5.0, sv_c=2.0)
    t0 = 2.0 ** (1 / 5)
    expected = t0**2 + 2 * 2.0 * t0 ** (2 - 5) / (5 - 2)
    assert variance_unstandardized(law) == pytest.approx(expected, rel=1e-13)


def test_variance_log_power_against_quad():
    law = TailLaw(alpha=4.0, sv_kind=SV_LOG_POWER, sv_c=1.0, sv_beta=1.0)
    # E x^2 = s^2 G(s) + int_s^inf 2 t G(t) dt on the raw scale
    g = lambda t: min(1.0, math.log(math.e + t) * t**-4.0)
    s = law.support_min
    ref = s**2 * g(s) + quad(lambda t: 2 * t * g(t), s, np.inf, limit=400)[0]
    assert variance_unstandardized(law) == pytest.approx(ref, rel=1e-8)


def test_import_does_not_load_scipy_integrate():
    # Only the log-power branch of variance_unstandardized integrates.
    src = str(Path(htspec.__file__).resolve().parents[1])
    probe = "import sys, htspec; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_variance_requires_alpha_above_two():
    with pytest.raises(ValueError):
        variance_unstandardized(TailLaw(alpha=2.0))


def test_standardize_requires_alpha_above_two():
    with pytest.raises(ValueError):
        TailLaw(alpha=2.0, standardize=True)
    with pytest.raises(ValueError):
        TailLaw(alpha=1.0, standardize=True)


def full_draw_entries(law, n, seed):
    """The ``n * n`` entries of a ``mu = 1``, ``rho = 1`` draw: every position
    is kept, so these are ``n^2`` i.i.d. draws from ``law`` made by the
    sampler's own entry transform."""
    m = sample_matrix(EnsembleSpec(
        shape="rectangular", n=n, law=law,
        sparsity=SparsitySpec.bernoulli(1.0), seed=seed,
    ))
    assert m.nnz == n * n
    return m.values


def test_standardized_unit_variance():
    law = TailLaw(alpha=4.0, standardize=True)
    x = full_draw_entries(law, 633, 5)  # 400,689 entries
    # second moment 1 within 4 standard errors (E x^4 finite: alpha = 4 with
    # raw sigma^2 = 2 gives Var(x^2) = E x^4 - 1; estimate E x^4 empirically)
    se = np.std(x**2) / math.sqrt(x.size)
    assert abs(np.mean(x**2) - 1.0) <= 4 * se


def test_sample_distribution_matches_tail():
    law = TailLaw(alpha=1.0)
    x = full_draw_entries(law, 1000, 123)  # 10^6 entries
    for t in (2.0, 10.0, 100.0):
        p = tail(law, t)
        observed = np.mean(np.abs(x) > t)
        se = math.sqrt(p * (1 - p) / x.size)
        assert abs(observed - p) <= 4 * se, (t, observed, p)


def test_sample_signs_symmetric():
    law = TailLaw(alpha=0.8)
    x = full_draw_entries(law, 708, 77)  # 501,264 entries
    assert abs(np.mean(x > 0) - 0.5) <= 4 * 0.5 / math.sqrt(x.size)
    assert np.all(x != 0.0)
    assert np.all(np.abs(x) >= law.support_min)


def test_law_validation():
    with pytest.raises(ValueError):
        TailLaw(alpha=0.0)
    with pytest.raises(ValueError):
        TailLaw(alpha=-1.0)
    with pytest.raises(ValueError):
        TailLaw(alpha=1.0, sv_c=0.0)
    with pytest.raises(ValueError):
        TailLaw(alpha=1.0, sv_kind="nope")
    with pytest.raises(ValueError):
        TailLaw(alpha=1.0, support_min=0.0)
    with pytest.raises(ValueError):
        TailLaw(alpha=1.0, sv_beta=1.0)  # constant law cannot carry beta
    # log-power beta above the monotonicity cap is refused
    with pytest.raises(ValueError):
        TailLaw(alpha=1.0, sv_kind=SV_LOG_POWER, sv_beta=3.5)


def test_sparsity_validation():
    with pytest.raises(ValueError):
        SparsitySpec.bernoulli(-0.1)
    with pytest.raises(ValueError):
        SparsitySpec.bernoulli(1.2)


# ---------------------------------------------------------------------------
# matrix sampling


@pytest.fixture(scope="module")
def bernoulli_mu_half():
    law = TailLaw(alpha=1.0)
    spec = EnsembleSpec(
        shape="rectangular", n=10_000, law=law,
        sparsity=SparsitySpec.bernoulli(0.5), seed=20240607,
    )
    return sample_matrix(spec)


def test_mask_density_concentrates(bernoulli_mu_half):
    m = bernoulli_mu_half
    cells = 10_000 * 10_000
    prob = 10_000 ** (0.5 - 1.0)
    expected = cells * prob
    sd = math.sqrt(cells * prob * (1 - prob))
    assert abs(m.nnz - expected) <= 4 * sd


def test_row_counts_near_binomial(bernoulli_mu_half):
    m = bernoulli_mu_half
    counts = np.diff(m.indptr)
    prob = 10_000 ** (0.5 - 1.0)
    assert counts.mean() == pytest.approx(10_000 * prob, rel=0.02)
    assert counts.var() == pytest.approx(10_000 * prob * (1 - prob), rel=0.1)


def test_matrix_deterministic():
    law = TailLaw(alpha=1.0)
    spec = EnsembleSpec(
        shape="rectangular", n=120, law=law,
        sparsity=SparsitySpec.bernoulli(0.8), seed=99,
    )
    a, b = sample_matrix(spec), sample_matrix(spec)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.values, b.values)


def test_mask_independent_of_law():
    # same seed, different laws: identical support, different values
    mk = lambda alpha: sample_matrix(
        EnsembleSpec(
            shape="rectangular", n=150, law=TailLaw(alpha=alpha),
            sparsity=SparsitySpec.bernoulli(0.7), seed=4,
        )
    )
    a, b = mk(1.0), mk(2.5)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    assert not np.array_equal(a.values, b.values)


def test_seeds_decorrelate_matrices():
    law = TailLaw(alpha=1.0)
    mk = lambda seed: sample_matrix(
        EnsembleSpec(
            shape="rectangular", n=100, law=law,
            sparsity=SparsitySpec.bernoulli(1.0), seed=seed,
        )
    )
    a, b = mk(1), mk(2)
    assert not np.array_equal(a.values, b.values)


def test_rectangular_aspect_ratio():
    law = TailLaw(alpha=1.0)
    spec = EnsembleSpec(
        shape="rectangular", n=200, law=law,
        sparsity=SparsitySpec.bernoulli(1.0), seed=0, rho=0.5,
    )
    m = sample_matrix(spec)
    assert (m.rows, m.cols) == (100, 200)
    assert spec.p == 100


def test_rho_rounding():
    law = TailLaw(alpha=1.0)
    spec = EnsembleSpec(
        shape="rectangular", n=10, law=law,
        sparsity=SparsitySpec.bernoulli(1.0), seed=0, rho=0.25,
    )
    # p = floor(rho n + 1/2)
    assert spec.p == math.floor(0.25 * 10 + 0.5)


def test_hermitian_symmetry():
    law = TailLaw(alpha=1.0)
    spec = EnsembleSpec(
        shape="hermitian", n=200, law=law,
        sparsity=SparsitySpec.bernoulli(0.8), seed=11,
    )
    m = sample_matrix(spec)
    assert m.symmetric
    d = m.to_dense()
    np.testing.assert_array_equal(d, d.T)


def test_hermitian_rejects_rho():
    law = TailLaw(alpha=1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(
            shape="hermitian", n=50, law=law,
            sparsity=SparsitySpec.bernoulli(1.0), seed=0, rho=0.5,
        )


# ---------------------------------------------------------------------------
# oracle: the sampler as a plain per-row loop that draws every stream in full


def _reference_mask_columns(sparsity, n, rng):
    prob = float(n) ** (sparsity.mu - 1.0)
    return np.nonzero(rng.random(n) < prob)[0]


def _reference_sample_matrix(spec):
    law, sparsity = spec.law, spec.sparsity
    n, p = spec.n, spec.p
    hermitian = spec.shape == "hermitian"
    mask_root = mix64(spec.seed, _TAG_MASK)
    value_root = mix64(spec.seed, _TAG_VALUE)
    row_idx, col_idx, vals = [], [], []
    for i in range(p):
        mask_rng = np.random.Generator(np.random.PCG64(mix64(mask_root, i)))
        cols = _reference_mask_columns(sparsity, n, mask_rng)
        if hermitian:
            cols = cols[cols >= i]
        value_rng = np.random.Generator(np.random.PCG64(mix64(value_root, i)))
        u_mag = value_rng.random(n)
        u_sign = value_rng.random(n)
        if cols.size == 0:
            continue
        mags = _quantile_raw(law, 1.0 - u_mag[cols]) / _sigma(law)
        signs = np.where(u_sign[cols] < 0.5, 1.0, -1.0)
        row_idx.append(np.full(cols.size, i, dtype=np.int64))
        col_idx.append(cols.astype(np.int64))
        vals.append(signs * mags)
    if row_idx:
        rows = np.concatenate(row_idx)
        cols = np.concatenate(col_idx)
        data = np.concatenate(vals)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    if hermitian:
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        data = np.concatenate([data, data[off]])
    csr = coo_matrix((data, (rows, cols)), shape=(p, n)).tocsr()
    csr.sort_indices()
    return SparseMatrix.from_scipy(csr, symmetric=hermitian)


ORACLE_LAWS = [
    TailLaw(alpha=1.0),
    TailLaw(alpha=0.7, sv_c=0.5),  # atom at the support edge
    TailLaw(alpha=1.5, sv_kind=SV_LOG_POWER, sv_c=0.5, sv_beta=1.0),
    TailLaw(alpha=3.0, sv_kind=SV_LOG_POWER, sv_c=2.0, sv_beta=2.0, standardize=True),
    TailLaw(alpha=4.0, standardize=True),
]


@st.composite
def ensemble_specs(draw, shape=None):
    shape = shape or draw(st.sampled_from(["rectangular", "hermitian"]))
    n = draw(st.integers(1, 40))
    rho = 1.0
    if shape == "rectangular":
        rho = draw(st.integers(1, n)) / n
    sparsity = SparsitySpec.bernoulli(draw(st.sampled_from([0.0, 0.3, 1.0])))
    law = draw(st.sampled_from(ORACLE_LAWS))
    seed = draw(st.integers(0, 2**64 - 1))
    return EnsembleSpec(shape=shape, n=n, law=law, sparsity=sparsity, seed=seed, rho=rho)


def _spec(shape, n, sparsity, seed=3, law=ORACLE_LAWS[0], rho=1.0):
    return EnsembleSpec(shape=shape, n=n, law=law, sparsity=sparsity, seed=seed, rho=rho)


@settings(max_examples=300, deadline=None)
@given(ensemble_specs())
@example(_spec("rectangular", 1, SparsitySpec.bernoulli(0.3)))
# mu = 0 keeps each position with probability 1/n: many rows are empty
@example(_spec("rectangular", 30, SparsitySpec.bernoulli(0.0), law=ORACLE_LAWS[2]))
@example(_spec("hermitian", 30, SparsitySpec.bernoulli(0.0), law=ORACLE_LAWS[4]))
@example(_spec("hermitian", 40, SparsitySpec.bernoulli(1.0), law=ORACLE_LAWS[1], seed=2**64 - 1))
def test_sample_matrix_matches_reference_loop(spec):
    got = sample_matrix(spec)
    want = _reference_sample_matrix(spec)
    assert (got.rows, got.cols, got.symmetric) == (want.rows, want.cols, want.symmetric)
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b, err_msg=name)


@settings(max_examples=100, deadline=None)
@given(ensemble_specs(shape="rectangular"))
def test_sample_matrix_rows_are_a_prefix(spec):
    # Row i's streams depend only on (seed, i), so fewer rows are a prefix.
    part = sample_matrix(spec)
    full = sample_matrix(_spec("rectangular", spec.n, spec.sparsity, spec.seed, spec.law))
    p = spec.p
    end = full.indptr[p]
    np.testing.assert_array_equal(part.indptr, full.indptr[: p + 1])
    np.testing.assert_array_equal(part.indices, full.indices[:end])
    np.testing.assert_array_equal(part.values, full.values[:end])


# sha256 of the indptr, indices and values of three fixed draws, keyed by report
# format version.  A change to the sampled streams must bump
# REPORT_FORMAT_VERSION and add its digest here; the streams did not change
# between versions 2 and 3.
STREAM_DIGESTS = {
    2: "58e29e1769ad5593b03c2d9556f43ad2a27f99f7b7ecb0dc2229b696ffe33c4e",
    3: "58e29e1769ad5593b03c2d9556f43ad2a27f99f7b7ecb0dc2229b696ffe33c4e",
}


def test_sampled_streams_are_pinned_to_the_report_format_version():
    # At alpha = 1 the quantile is 1/u, so the bytes do not depend on the
    # platform's pow; index arrays are hashed as int64 whatever scipy stores.
    digest = hashlib.sha256()
    for shape, mu in (("rectangular", 0.5), ("hermitian", 0.5), ("rectangular", 1.0)):
        m = sample_matrix(_spec(shape, 64, SparsitySpec.bernoulli(mu), seed=7))
        for arr, dtype in ((m.indptr, "<i8"), (m.indices, "<i8"), (m.values, "<f8")):
            digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert digest.hexdigest() == STREAM_DIGESTS.get(REPORT_FORMAT_VERSION)
