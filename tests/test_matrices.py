import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix

from htspec.matrices import (
    RankedEntry,
    SparseMatrix,
    gram_matvec,
    load_matrix_csv,
    matvec,
    norms,
    save_matrix_csv,
    top_entries,
    truncate_split,
)
from htspec.tails import EnsembleSpec, SparsitySpec, TailLaw, sample_matrix


def small():
    # [[1, -2], [0, 3]]
    return SparseMatrix.from_dense(np.array([[1.0, -2.0], [0.0, 3.0]]))


def random_sparse(seed, p=40, n=60, density=0.1, symmetric=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    if symmetric:
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        a = np.triu(a) + np.triu(a, 1).T
        return SparseMatrix.from_dense(a, symmetric=True), a
    a = rng.standard_normal((p, n)) * (rng.random((p, n)) < density)
    return SparseMatrix.from_dense(a), a


def test_from_dense_roundtrip():
    m = small()
    np.testing.assert_array_equal(m.to_dense(), [[1.0, -2.0], [0.0, 3.0]])
    assert m.nnz == 3
    assert (m.rows, m.cols) == (2, 2)


def test_csr_layout():
    m = small()
    np.testing.assert_array_equal(m.indptr, [0, 2, 3])
    np.testing.assert_array_equal(m.indices, [0, 1, 1])
    np.testing.assert_array_equal(m.values, [1.0, -2.0, 3.0])
    np.testing.assert_array_equal(m.row_index_of_entries(), [0, 0, 1])
    # the matrix is stored once: its arrays are its CSR's arrays
    csr = m.to_scipy()
    assert np.shares_memory(m.indptr, csr.indptr)
    assert np.shares_memory(m.indices, csr.indices)
    assert np.shares_memory(m.values, csr.data)


def test_validation_rejects_bad_structure():
    with pytest.raises(ValueError):  # unsorted columns within a row
        SparseMatrix(
            rows=1, cols=3,
            indptr=np.array([0, 2]), indices=np.array([2, 0]),
            values=np.array([1.0, 2.0]), symmetric=False,
        )
    with pytest.raises(ValueError):  # duplicate column
        SparseMatrix(
            rows=1, cols=3,
            indptr=np.array([0, 2]), indices=np.array([1, 1]),
            values=np.array([1.0, 2.0]), symmetric=False,
        )
    with pytest.raises(ValueError):  # explicit zero stored
        SparseMatrix(
            rows=1, cols=2,
            indptr=np.array([0, 1]), indices=np.array([0]),
            values=np.array([0.0]), symmetric=False,
        )
    with pytest.raises(ValueError):  # non-finite value
        SparseMatrix(
            rows=1, cols=2,
            indptr=np.array([0, 1]), indices=np.array([0]),
            values=np.array([np.inf]), symmetric=False,
        )
    with pytest.raises(ValueError):  # symmetric flag on an asymmetric matrix
        SparseMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]), symmetric=True)
    with pytest.raises(ValueError):  # symmetric flag, (0, 1) stored but (1, 0) not
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        SparseMatrix.from_dense(cycle, symmetric=True)
    with pytest.raises(ValueError):  # indptr length mismatch
        SparseMatrix(
            rows=2, cols=2,
            indptr=np.array([0, 1]), indices=np.array([0]),
            values=np.array([1.0]), symmetric=False,
        )


def test_non_integer_indices_are_refused_not_truncated():
    for bad in (np.array([1.7]), np.array([True])):
        with pytest.raises(ValueError, match="indices must hold integers"):
            SparseMatrix(rows=1, cols=3, indptr=np.array([0, 1]), indices=bad, values=np.array([2.0]))
    with pytest.raises(ValueError, match="indptr must hold integers"):
        SparseMatrix(rows=1, cols=3, indptr=np.array([0.0, 1.0]), indices=np.array([1]), values=np.array([2.0]))
    # Integer arrays are kept in their own dtype: scipy's int32 arrays are not copied.
    csr = csr_matrix(np.array([[0.0, 2.0, 0.0]]))
    m = SparseMatrix(rows=1, cols=3, indptr=csr.indptr, indices=csr.indices, values=csr.data)
    assert np.shares_memory(m.indices, csr.indices)
    assert np.shares_memory(m.indptr, csr.indptr)


def test_from_scipy_drops_explicit_zeros():
    raw = csr_matrix((np.array([1.0, 0.0]), np.array([0, 1]), np.array([0, 2])), shape=(1, 2))
    m = SparseMatrix.from_scipy(raw)
    assert m.nnz == 1


def test_matvec_matches_dense():
    m, a = random_sparse(1)
    v = np.random.Generator(np.random.PCG64(2)).standard_normal(a.shape[1])
    np.testing.assert_allclose(matvec(m, v), a @ v, rtol=1e-13, atol=1e-13)


def test_gram_matvec_matches_dense():
    m, a = random_sparse(3)
    v = np.random.Generator(np.random.PCG64(4)).standard_normal(a.shape[0])
    np.testing.assert_allclose(gram_matvec(m, v), a @ (a.T @ v), rtol=1e-12, atol=1e-12)
    # report digests depend on the transpose view giving the transposed copy's bits
    csr = m.to_scipy()
    assert np.array_equal(gram_matvec(m, v), csr @ (csr.T.tocsr() @ v))


def test_norms_example():
    # {(0,0): 1, (0,1): -2, (1,1): 3} -> inf norm 3, one norm 5
    m = small()
    assert norms(m) == (3.0, 5.0)


def test_norms_match_dense():
    m, a = random_sparse(5)
    inf_n, one_n = norms(m)
    assert inf_n == pytest.approx(np.abs(a).sum(axis=1).max(), rel=1e-14)
    assert one_n == pytest.approx(np.abs(a).sum(axis=0).max(), rel=1e-14)


def test_norms_empty():
    m = SparseMatrix.from_dense(np.zeros((3, 4)))
    assert norms(m) == (0.0, 0.0)


def test_top_entries_ordering():
    a = np.array([[0.0, -5.0, 1.0], [2.0, 0.0, -3.0]])
    m = SparseMatrix.from_dense(a)
    entries, truncated = top_entries(m, 3)
    assert not truncated
    assert [(e.i, e.j, e.magnitude, e.theta) for e in entries] == [
        (0, 1, 5.0, math.pi),
        (1, 2, 3.0, math.pi),
        (1, 0, 2.0, 0.0),
    ]
    assert [e.rank for e in entries] == [1, 2, 3]


def test_top_entries_tie_break_row_major():
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    m = SparseMatrix.from_dense(a)
    entries, _ = top_entries(m, 2)
    assert (entries[0].i, entries[0].j) == (0, 1)
    assert (entries[1].i, entries[1].j) == (1, 0)


def test_top_entries_truncation_flag():
    m = small()
    entries, truncated = top_entries(m, 10)
    assert truncated
    assert len(entries) == 3


def test_top_entries_symmetric_upper_only():
    a = np.array([[1.0, 4.0], [4.0, 2.0]])
    m = SparseMatrix.from_dense(a, symmetric=True)
    entries, _ = top_entries(m, 4)
    assert [(e.i, e.j) for e in entries] == [(0, 1), (1, 1), (0, 0)]


@st.composite
def integer_matrices(draw):
    """Small matrices with integer-valued entries in [-3, 3], so that equal
    magnitudes are common; symmetric ones about half the time."""
    symmetric = draw(st.booleans())
    p = draw(st.integers(1, 12))
    n = p if symmetric else draw(st.integers(1, 12))
    a = draw(arrays(np.float64, (p, n), elements=st.integers(-3, 3).map(float)))
    if symmetric:
        a = np.triu(a) + np.triu(a, 1).T
    return SparseMatrix.from_dense(a, symmetric=symmetric)


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.integers(1, 160))
def test_top_entries_matches_full_sort(m, k):
    rows, cols, vals = m.row_index_of_entries(), m.indices, m.values
    if m.symmetric:
        keep = rows <= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows, -np.abs(vals)))[:k]
    want = [
        (r + 1, int(rows[x]), int(cols[x]), float(abs(vals[x])), 0.0 if vals[x] > 0 else math.pi)
        for r, x in enumerate(order)
    ]
    entries, truncated = top_entries(m, k)
    assert [(e.rank, e.i, e.j, e.magnitude, e.theta) for e in entries] == want
    assert truncated == (len(want) < k)


@st.composite
def square_matrices(draw):
    """Small square matrices over a few values, often symmetric and sometimes
    symmetric but for one entry, which may add or drop a stored position."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from([0.0, 1.0, -1.0, 2.5])
    a = draw(arrays(np.float64, (n, n), elements=values))
    if draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
        if draw(st.booleans()):
            a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(values)
    return a


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_symmetric_flag_agrees_with_dense_transpose(a):
    if np.array_equal(a, a.T):
        np.testing.assert_array_equal(SparseMatrix.from_dense(a, symmetric=True).to_dense(), a)
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            SparseMatrix.from_dense(a, symmetric=True)


def test_truncate_split_exact():
    m, a = random_sparse(7, density=0.3)
    level = np.median(np.abs(a[a != 0]))
    m_hat, m_prime = truncate_split(m, level)
    np.testing.assert_array_equal(m_hat.to_dense() + m_prime.to_dense(), a)
    assert np.all(np.abs(m_hat.values) <= level)
    assert np.all(np.abs(m_prime.values) > level)
    assert m_hat.nnz + m_prime.nnz == m.nnz


def test_truncate_split_preserves_symmetry():
    m, a = random_sparse(8, symmetric=True, density=0.3)
    level = np.median(np.abs(a[a != 0]))
    m_hat, m_prime = truncate_split(m, level)
    assert m_hat.symmetric and m_prime.symmetric


@st.composite
def split_inputs(draw):
    """A plain rectangular or a flagged symmetric matrix, and a level that is
    often one of its magnitudes."""
    values = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -4.0, 0.3])
    symmetric = draw(st.booleans())
    p = draw(st.integers(1, 6))
    n = p if symmetric else draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (p, n), elements=values))
    if symmetric:
        a = np.triu(a) + np.triu(a, 1).T
    level = draw(st.one_of(st.sampled_from([0.3, 1.0, 2.5, 4.0]), st.floats(1e-3, 10.0)))
    return SparseMatrix.from_dense(a, symmetric=symmetric), a, level


@settings(max_examples=200, deadline=None)
@given(split_inputs())
def test_truncate_split_parts_sum_to_input(case):
    m, a, level = case
    m_hat, m_prime = truncate_split(m, level)
    hat, prime = m_hat.to_dense(), m_prime.to_dense()
    np.testing.assert_array_equal(hat + prime, a)
    assert not np.any((hat != 0) & (prime != 0))
    assert m_hat.symmetric == m_prime.symmetric == m.symmetric


def test_truncate_split_validation():
    with pytest.raises(ValueError):
        truncate_split(small(), 0.0)
    with pytest.raises(ValueError):
        truncate_split(small(), math.inf)


def test_csv_roundtrip(tmp_path):
    m, a = random_sparse(9, density=0.2)
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    back = load_matrix_csv(path)
    np.testing.assert_array_equal(back.to_dense(), a)
    assert not back.symmetric
    description, header = path.read_text().splitlines()[:2]
    assert description == f"# rows={m.rows} cols={m.cols} symmetric=false"
    assert header == "i,j,value"


def test_csv_roundtrip_symmetric(tmp_path):
    m, a = random_sparse(10, symmetric=True, density=0.3)
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    # symmetric files store only i <= j
    lines = path.read_text().splitlines()
    assert lines[0] == "# rows=60 cols=60 symmetric=true"
    assert all(int(line.split(",")[0]) <= int(line.split(",")[1]) for line in lines[2:])
    back = load_matrix_csv(path)
    np.testing.assert_array_equal(back.to_dense(), a)
    assert back.symmetric


def test_csv_values_bit_exact(tmp_path):
    law = TailLaw(alpha=0.8)
    spec = EnsembleSpec(
        shape="rectangular", n=40, law=law,
        sparsity=SparsitySpec.bernoulli(1.0), seed=123,
    )
    m = sample_matrix(spec)
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    back = load_matrix_csv(path)
    np.testing.assert_array_equal(back.values, m.values)  # repr round trip


RECT_2X2 = "# rows=2 cols=2 symmetric=false\n"
SYM_2X2 = "# rows=2 cols=2 symmetric=true\n"


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(RECT_2X2 + "x,y,z\n0,0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_matrix_csv(path)


def test_csv_rejects_repeated_entry(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(RECT_2X2 + "i,j,value\n0,1,2.0\n1,0,5.0\n0,1,2.0\n")
    with pytest.raises(ValueError, match=r"line 5: entry \(0, 1\) repeats line 3"):
        load_matrix_csv(path)
    # in a symmetric file an entry and the mirror the loader adds are one entry
    path.write_text(SYM_2X2 + "i,j,value\n0,1,2.0\n1,1,3.0\n")
    m = load_matrix_csv(path)
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 2.0], [2.0, 3.0]])
    path.write_text(SYM_2X2 + "i,j,value\n0,1,2.0\n1,1,3.0\n0,1,2.0\n")
    with pytest.raises(ValueError, match="line 5"):
        load_matrix_csv(path)


def test_csv_shape_from_description(tmp_path):
    # trailing empty rows and columns survive: the shape is stated, not inferred
    path = tmp_path / "m.csv"
    path.write_text("# rows=4 cols=6 symmetric=false\ni,j,value\n0,0,1.0\n2,3,-4.0\n")
    m = load_matrix_csv(path)
    assert (m.rows, m.cols) == (4, 6)
    assert m.to_dense()[2, 3] == -4.0
    path.write_text("# rows=3 cols=3 symmetric=false\ni,j,value\n")
    assert load_matrix_csv(path).to_dense().shape == (3, 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("i,j,value\n0,0,1.0\n", "rows=R cols=C"),  # no description line
        ("# rows=2 cols=2\ni,j,value\n0,0,1.0\n", "rows=R cols=C"),
        (RECT_2X2 + "i,j,value\n0,2,1.0\n", r"line 3: entry \(0, 2\) outside 2 x 2"),
        (RECT_2X2 + "i,j,value\n-1,0,1.0\n", "outside"),
        ("# rows=2 cols=3 symmetric=true\ni,j,value\n0,1,1.0\n", "2 x 3"),
        (SYM_2X2 + "i,j,value\n1,0,1.0\n", "only i <= j"),
    ],
)
def test_csv_refuses_a_file_that_does_not_state_its_matrix(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_matrix_csv(path)


def test_csv_loader_takes_no_shape_or_symmetry(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(SYM_2X2 + "i,j,value\n0,1,2.0\n")
    for kw in ({"rows": 2}, {"cols": 2}, {"symmetric": True}):
        with pytest.raises(TypeError):
            load_matrix_csv(path, **kw)


def test_ranked_entry_is_frozen():
    e = RankedEntry(rank=1, i=0, j=1, magnitude=2.0, theta=0.0)
    with pytest.raises(AttributeError):
        e.magnitude = 3.0
