import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from htspec.matrices import SparseMatrix, gram_matvec, top_entries
from htspec.seeding import mix64
from htspec.spectral import (
    check_interlacing,
    eig_dense_symmetric,
    localization_bound_check,
    perturbation_check,
    principal_subradius,
    row_residual,
    top_eigs,
)
from htspec.tails import EnsembleSpec, SparsitySpec, TailLaw, sample_matrix


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_symmetric(seed, n):
    a = rng_for(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


def heavy_spec(seed, n=60, alpha=1.0, mu=0.8, shape="rectangular", rho=1.0):
    return EnsembleSpec(
        shape=shape, n=n, law=TailLaw(alpha=alpha),
        sparsity=SparsitySpec.bernoulli(mu), seed=seed, rho=rho,
    )


# ---------------------------------------------------------------------------
# dense route


def test_dense_sorted_descending_with_residuals():
    a = random_symmetric(0, 50)
    res = eig_dense_symmetric(a)
    assert res.solver == "dense"
    assert np.all(np.diff(res.eigenvalues) <= 0)
    assert res.eigenvalues.size == 50
    for l in range(50):
        r = a @ res.eigenvectors[:, l] - res.eigenvalues[l] * res.eigenvectors[:, l]
        assert np.linalg.norm(r) <= 1e-12 * max(1.0, abs(res.eigenvalues[l]))
    assert np.max(res.residual_norms) <= 1e-10


def test_dense_rejects_asymmetric_and_oversize():
    with pytest.raises(ValueError):
        eig_dense_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_dense_known_eigenvalues():
    # [[2, 1], [1, 2]] -> 3, 1 with eigenvectors (1,1)/sqrt2, (1,-1)/sqrt2
    res = eig_dense_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(res.eigenvectors[:, 0]), [1, 1] / np.sqrt(2), atol=1e-14)
    # sign convention: largest-magnitude coordinate is positive
    assert res.eigenvectors.max() > 0


# ---------------------------------------------------------------------------
# Lanczos route and the dual-route cross-check


def test_lanczos_matches_dense_symmetric():
    for seed in range(5):
        a = random_symmetric(seed, 90)
        m = SparseMatrix.from_dense(a, symmetric=True)
        got = top_eigs(m, 6, tol=1e-11, seed=seed)
        want = eig_dense_symmetric(a)
        assert got.converged
        np.testing.assert_allclose(
            got.eigenvalues, want.eigenvalues[:6], rtol=1e-9, atol=1e-9
        )


def test_lanczos_matches_dense_gram():
    spec = heavy_spec(3, n=120)
    m = sample_matrix(spec)
    x = m.to_dense()
    want = np.linalg.eigvalsh(x @ x.T)[::-1]
    got = top_eigs(m, 5, tol=1e-10, seed=1)
    assert got.converged
    np.testing.assert_allclose(got.eigenvalues, want[:5], rtol=1e-8)


def test_lanczos_eigenvector_alignment():
    a = random_symmetric(11, 70)
    m = SparseMatrix.from_dense(a, symmetric=True)
    got = top_eigs(m, 4, tol=1e-11, seed=2)
    dense = eig_dense_symmetric(a)
    for l in range(4):
        gap = np.min(np.abs(np.delete(dense.eigenvalues, l) - dense.eigenvalues[l]))
        if gap < 1e-8 * max(1.0, abs(dense.eigenvalues[0])):
            continue  # alignment undefined for near-degenerate pairs
        overlap = abs(np.dot(got.eigenvectors[:, l], dense.eigenvectors[:, l]))
        assert overlap >= 1.0 - 1e-8, (l, overlap)


def test_lanczos_cross_check_battery():
    # the dual-route acceptance check at unit-test scale: random sizes,
    # shapes, and tail exponents; seeds derived so any failure replays
    failures = 0
    for case in range(30):
        s = mix64(314159, case)
        n = 20 + s % 60
        shape = "hermitian" if s % 2 else "rectangular"
        spec = heavy_spec(mix64(s, 1), n=n, alpha=(0.8, 1.6, 3.0)[s % 3], shape=shape)
        m = sample_matrix(spec)
        k = 1 + s % 4
        got = top_eigs(m, k, tol=1e-11, seed=mix64(s, 2))
        if shape == "hermitian":
            want = np.sort(np.linalg.eigvalsh(m.to_dense()))[::-1]
        else:
            x = m.to_dense()
            want = np.sort(np.linalg.eigvalsh(x @ x.T))[::-1]
        scale = max(1.0, abs(want[0]))
        if not np.all(np.abs(got.eigenvalues - want[:k]) <= 1e-8 * scale):
            failures += 1
    assert failures == 0


def test_lanczos_residuals_reported():
    a = random_symmetric(5, 40)
    m = SparseMatrix.from_dense(a, symmetric=True)
    res = top_eigs(m, 3, tol=1e-10, seed=0)
    for l in range(3):
        r = a @ res.eigenvectors[:, l] - res.eigenvalues[l] * res.eigenvectors[:, l]
        assert np.linalg.norm(r) == pytest.approx(res.residual_norms[l], rel=1e-6, abs=1e-12)


def test_lanczos_k_equals_dim():
    a = random_symmetric(6, 12)
    m = SparseMatrix.from_dense(a, symmetric=True)
    res = top_eigs(m, 12, tol=1e-10, seed=0)
    np.testing.assert_allclose(
        res.eigenvalues, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-8
    )


def test_lanczos_handles_multiplicity():
    # a single Krylov pass sees each distinct eigenvalue once; once its space
    # runs out, restarts in the complement recover the missing copies, both
    # for small k and for the full dimension
    a = np.diag([5.0, 5.0, 5.0, 1.0, 0.5, 0.25])
    m = SparseMatrix.from_dense(a, symmetric=True)
    res = top_eigs(m, 3, tol=1e-12, seed=9)
    assert res.converged
    np.testing.assert_allclose(res.eigenvalues, [5.0, 5.0, 5.0], atol=1e-10)
    full = top_eigs(m, 6, tol=1e-12, seed=9)
    np.testing.assert_allclose(
        full.eigenvalues, [5.0, 5.0, 5.0, 1.0, 0.5, 0.25], atol=1e-9
    )
    assert full.restarts >= 2


@st.composite
def short_krylov_inputs(draw):
    """Low-rank or repeated-block integer matrices of dimension <= 30, used
    directly (symmetric) or through their Gram product, a k, and the least
    restart count (0 here): their few distinct eigenvalues make the Krylov
    space run out."""
    gram = draw(st.booleans())
    ints = st.integers(-3, 3).map(float)
    if draw(st.booleans()):
        p, r = draw(st.integers(2, 30)), draw(st.integers(1, 3))
        u = draw(arrays(np.float64, (p, r), elements=ints))
        if gram:
            a = u @ draw(arrays(np.float64, (draw(st.integers(1, 30)), r), elements=ints)).T
        else:
            a = u @ np.diag(draw(arrays(np.float64, (r,), elements=ints))) @ u.T
    else:
        b = draw(st.integers(1, 4))
        block = draw(arrays(np.float64, (b, draw(st.integers(1, 4)) if gram else b), elements=ints))
        a = np.kron(np.eye(draw(st.integers(1, 30 // b))), block if gram else block + block.T)
    return a, gram, draw(st.integers(1, min(a.shape[0], 8))), 0


@settings(max_examples=300, deadline=None)
@given(short_krylov_inputs())
# rank one: the space closes after two steps, and k = 3 needs a restart
@example((np.ones((6, 6)), False, 3, 1))
# five copies of one block: each pass closes only to rounding, below k steps
@example((np.kron(np.eye(5), [[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 3, 0], [0, 0, 0, 0]]),
          True, 5, 0))
# Gram of a rank-two 4 x 10 integer matrix, top eigenvalue about 2037: its
# zero eigenvalue keeps a rounding residual of 1.5e-10, above tol = 1e-10
@example((np.array([[0, -2], [-3, 3], [-2, 2], [3, -1]])
          @ np.array([[-2, 0, -2, 2, 3, 0, 2, -1, 2, -2], [3, 0, 3, 3, -3, -3, -1, 2, 2, -1]]),
          True, 3, 0))
def test_lanczos_matches_dense_after_krylov_space_runs_out(case):
    a, gram, k, min_restarts = case
    res = top_eigs(SparseMatrix.from_dense(a, symmetric=not gram), k)
    want = eig_dense_symmetric(a @ a.T if gram else a).eigenvalues[:k]
    assert np.all(np.abs(res.eigenvalues - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))
    assert res.restarts >= min_restarts
    assert res.converged


def test_lanczos_zero_matrix():
    m = SparseMatrix.from_dense(np.zeros((5, 5)), symmetric=True)
    res = top_eigs(m, 2, tol=1e-10, seed=0)
    np.testing.assert_allclose(res.eigenvalues, 0.0, atol=1e-14)
    assert res.converged


def test_lanczos_deterministic_given_seed():
    spec = heavy_spec(21, n=80)
    m = sample_matrix(spec)
    a = top_eigs(m, 3, tol=1e-10, seed=7)
    b = top_eigs(m, 3, tol=1e-10, seed=7)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


def test_lanczos_validation():
    m = SparseMatrix.from_dense(np.eye(4), symmetric=True)
    with pytest.raises(ValueError):
        top_eigs(m, 0)
    with pytest.raises(ValueError):
        top_eigs(m, 5)


# ---------------------------------------------------------------------------
# interlacing


def singular_values(x):
    return np.linalg.svd(x, compute_uv=False)


def test_interlacing_hermitian_minor_random():
    rng = rng_for(123)
    for case in range(100):
        n = int(rng.integers(2, 25))
        a = random_symmetric(int(rng.integers(1 << 31)), n)
        keep = np.arange(n) != int(rng.integers(n))
        out = check_interlacing(np.linalg.eigvalsh(a), np.linalg.eigvalsh(a[np.ix_(keep, keep)]))
        assert out["holds"], (case, out)
        assert out["max_violation"] == 0.0


def test_interlacing_row_and_col_deletion_random():
    rng = rng_for(321)
    for case in range(100):
        p = int(rng.integers(2, 20))
        n = int(rng.integers(2, 20))
        x = rng.standard_normal((p, n))
        big = singular_values(x)
        out_r = check_interlacing(big, singular_values(np.delete(x, int(rng.integers(p)), axis=0)))
        out_c = check_interlacing(big, singular_values(np.delete(x, int(rng.integers(n)), axis=1)))
        assert out_r["holds"] and out_c["holds"], (case, out_r, out_c)


def test_interlacing_detects_violation():
    # a fake "minor" with an eigenvalue above the parent's top must fail
    out = check_interlacing([3.0, 2.0, 1.0], [10.0, 0.0])
    assert not out["holds"]
    assert out["max_violation"] >= 7.0


def test_interlacing_equal_sizes_check_last_upper_bound():
    # Column deletion of a p x n matrix with p < n keeps p singular values;
    # the last one must still lie below the parent's last.
    out = check_interlacing([3.0, 2.0, 1.0], [2.5, 1.5, 1.2])
    assert not out["holds"]
    assert out["max_violation"] == pytest.approx(0.2)
    assert check_interlacing([3.0, 2.0, 1.0], [2.5, 1.5, 0.5])["holds"]


def test_interlacing_top_values_of_minor():
    # The top k + 1 values of a symmetric matrix and the top k of a principal
    # minor interlace too, in any order; raising small[0] above big[0] fails.
    rng = rng_for(99)
    for case in range(50):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(1, n - 1))
        a = random_symmetric(int(rng.integers(1 << 31)), n)
        keep = np.arange(n) != int(rng.integers(n))
        big = np.linalg.eigvalsh(a)[-(k + 1):]
        small = np.linalg.eigvalsh(a[np.ix_(keep, keep)])[-k:]
        assert check_interlacing(big, small)["holds"], case
        assert check_interlacing(big[::-1], small)["holds"], case
        raised = small.copy()
        raised[-1] = big[-1] + 0.5
        out = check_interlacing(big, raised)
        assert not out["holds"], case
        assert out["max_violation"] == pytest.approx(0.5)


def test_interlacing_shape_validation():
    big = [3.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        check_interlacing(big, [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        check_interlacing(big, [1.0])
    with pytest.raises(ValueError):
        check_interlacing(np.diag(big), np.diag([2.5, 1.5]))
    with pytest.raises(ValueError):
        check_interlacing(3.0, [])


# ---------------------------------------------------------------------------
# perturbation checks


def test_perturbation_residual_ball():
    a = random_symmetric(8, 30)
    spectrum = eig_dense_symmetric(a)
    v = rng_for(9).standard_normal(30)
    v /= np.linalg.norm(v)
    chk = perturbation_check(a, v, spectrum)
    assert chk.holds_a
    assert chk.nearest_eig_distance <= chk.epsilon + 1e-9
    # zeta must be the Rayleigh quotient
    assert chk.zeta == pytest.approx(float(v @ a @ v), rel=1e-12)


def test_perturbation_near_eigenvector_gap_bound():
    a = np.diag([4.0, 2.0, 1.0, 0.5])
    spectrum = eig_dense_symmetric(a)
    exact = np.eye(4)[0]
    noisy = exact + 1e-4 * np.array([0.0, 1.0, -1.0, 1.0])
    noisy /= np.linalg.norm(noisy)
    chk = perturbation_check(a, noisy, spectrum)
    assert chk.holds_a
    assert chk.vector_bound is not None
    assert chk.vector_bound["holds"]
    # the bound 2 eps / (d - eps) dominates the true orthogonal defect
    assert chk.vector_bound["lhs"] <= chk.vector_bound["rhs"]
    assert chk.vector_bound["gap"] == pytest.approx(2.0, rel=1e-3)


def test_perturbation_requires_complete_spectrum():
    a = random_symmetric(10, 20)
    m = SparseMatrix.from_dense(a, symmetric=True)
    partial = top_eigs(m, 3, tol=1e-10, seed=0)
    v = np.eye(20)[0]
    with pytest.raises(ValueError):
        perturbation_check(a, v, partial)


def test_perturbation_eigenvector_input_is_tight():
    a = random_symmetric(12, 25)
    spectrum = eig_dense_symmetric(a)
    for l in (0, 10, 24):
        chk = perturbation_check(a, spectrum.eigenvectors[:, l], spectrum)
        assert chk.epsilon <= 1e-10
        assert chk.nearest_eig_distance <= 1e-10
        assert chk.holds_a


# ---------------------------------------------------------------------------
# residual vector at the top entry


def test_residual_vector_identity():
    spec = heavy_spec(33, n=50)
    m = sample_matrix(spec)
    entries, _ = top_entries(m, 1)
    ent = entries[0]
    r, nrm = row_residual(m, ent)
    e = np.zeros(m.rows); e[ent.i] = 1.0
    expected = gram_matvec(m, e)
    expected[ent.i] -= ent.magnitude**2
    np.testing.assert_allclose(r, expected, rtol=1e-13)
    assert nrm == pytest.approx(np.linalg.norm(expected), rel=1e-13)
    # i-th coordinate is the row's square sum minus the top entry's square
    x = m.to_dense()
    assert r[ent.i] == pytest.approx(np.sum(x[ent.i] ** 2) - ent.magnitude**2, rel=1e-12)


def test_residual_vector_rank_validation():
    m = SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
    entries, truncated = top_entries(m, 1)
    assert not truncated
    r, nrm = row_residual(m, entries[0])
    assert nrm == 0.0
    # a second-ranked entry does not exist, and the ranking says so
    entries, truncated = top_entries(m, 2)
    assert truncated and len(entries) == 1


# ---------------------------------------------------------------------------
# principal submatrix radius and the localization bound


def test_principal_subradius_exact_small():
    a = np.diag([1.0, -7.0, 3.0])
    assert principal_subradius(a, 1) == 7.0
    assert principal_subradius(a, 3) == 7.0
    b = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert principal_subradius(b, 1) == 0.0
    assert principal_subradius(b, 2) == pytest.approx(2.0, rel=1e-12)


def test_principal_subradius_exact_vs_bruteforce():
    a = random_symmetric(44, 9)
    for L in (1, 2, 3):
        import itertools

        brute = max(
            np.max(np.abs(np.linalg.eigvalsh(a[np.ix_(idx, idx)])))
            for idx in itertools.combinations(range(9), L)
        )
        assert principal_subradius(a, L) == pytest.approx(brute, rel=1e-12)


def test_principal_subradius_enumeration_cap():
    with pytest.raises(ValueError):
        principal_subradius(np.eye(200), 8)


def test_localization_bound_check_holds_for_localized_pair():
    # isolated strong coupling: eigenvector is exactly the two-site pair
    a = np.zeros((6, 6))
    a[0, 1] = a[1, 0] = 10.0
    a[2, 3] = a[3, 2] = 0.5
    v = np.zeros(6); v[0] = v[1] = 1 / math.sqrt(2)
    out = localization_bound_check(a, 10.0, v, L=2, eta=0.5)
    assert out["preconditions_ok"]
    assert out["holds"]
    assert out["rho_L"] == pytest.approx(10.0, rel=1e-12)


def test_localization_bound_check_reports_bad_preconditions():
    a = np.diag([3.0, 1.0])
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)  # spread, not localized for small eta
    out = localization_bound_check(a, 3.0, v, L=1, eta=0.1)
    assert not out["preconditions_ok"]
    assert not out["preconditions"]["localized"] or not out["preconditions"]["eigenpair"]


def test_localization_bound_random_eigenpairs():
    # brute-force over small symmetric heavy-tailed matrices: whenever the
    # preconditions hold the bound must hold
    checked = 0
    for case in range(60):
        s = mix64(777, case)
        spec = heavy_spec(mix64(s, 1), n=4 + s % 8, shape="hermitian", mu=0.7)
        dense = sample_matrix(spec).to_dense()
        w, vv = np.linalg.eigh(dense)
        which = s % dense.shape[0]
        v = vv[:, which]
        L = 1 + s % 3
        mass = float(np.sum(np.sort(v * v)[::-1][:L]))
        eta = min(0.999, 1.0 - mass + 0.05)
        out = localization_bound_check(dense, float(w[which]), v, L, eta)
        if out["preconditions_ok"]:
            checked += 1
            assert out["holds"], (case, out)
    assert checked >= 50
