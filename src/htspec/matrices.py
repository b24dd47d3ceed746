"""CSR sparse matrices and the exact entry-level operations the experiments need.

The storage contract is plain CSR (``indptr``, ``indices``, ``values``) with
strictly increasing column indices inside each row and finite nonzero values.
A matrix is stored once, as a scipy ``csr_matrix``: the three arrays of a
``SparseMatrix`` are that matrix's own arrays, and the Gram product multiplies
by its transpose view (a CSC matrix over the same arrays) instead of a stored
transposed copy.  scipy.sparse supplies the mechanical part (products, format
conversion); the operations here are the ones with domain meaning: ranked
extreme entries, operator norms and truncation splits.

Symmetric matrices store both triangles so that products are ordinary CSR
products, but ranked entries and the CSV format use only ``i <= j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix


@dataclass(frozen=True)
class RankedEntry:
    """The ``rank``-th largest entry by magnitude; ``theta`` is 0 for a
    positive value and pi for a negative one."""

    rank: int
    i: int
    j: int
    magnitude: float
    theta: float


@dataclass
class SparseMatrix:
    """Immutable-by-convention CSR matrix of shape ``rows x cols``."""

    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    symmetric: bool = False
    _csr: csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix dimensions must be positive: {self.rows} x {self.cols}")
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indptr.shape != (self.rows + 1,):
            raise ValueError("indptr must have length rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr offsets must be nondecreasing")
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have equal length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.cols:
                raise ValueError("column index out of range")
        self._csr = csr_matrix(
            (self.values, self.indices, self.indptr), shape=(self.rows, self.cols)
        )
        if not self._csr.has_canonical_format:
            raise ValueError("column indices must be strictly increasing within each row")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("stored values must be finite")
        if np.any(self.values == 0.0):
            raise ValueError("stored values must be nonzero")
        # scipy may narrow the index arrays to int32 copies; keep only its arrays.
        csr = self._csr
        self.indptr, self.indices, self.values = csr.indptr, csr.indices, csr.data
        if self.symmetric:
            if self.rows != self.cols:
                raise ValueError("symmetric matrices must be square")
            # Both sides are canonical CSR (sorted, no duplicates, no zeros),
            # so A == A^T exactly when their three arrays are equal.
            t = self._csr.T.tocsr()
            t.sort_indices()
            if not (
                np.array_equal(t.indptr, self.indptr)
                and np.array_equal(t.indices, self.indices)
                and np.array_equal(t.data, self.values)
            ):
                raise ValueError("symmetric flag set but stored entries are not symmetric")

    @classmethod
    def from_scipy(cls, mat, symmetric: bool = False) -> "SparseMatrix":
        csr = mat.tocsr().copy()
        csr.sum_duplicates()
        csr.sort_indices()
        csr.eliminate_zeros()
        return cls(
            rows=csr.shape[0],
            cols=csr.shape[1],
            indptr=csr.indptr,
            indices=csr.indices,
            values=csr.data,
            symmetric=symmetric,
        )

    @classmethod
    def from_dense(cls, array, symmetric: bool = False) -> "SparseMatrix":
        return cls.from_scipy(csr_matrix(np.asarray(array, dtype=np.float64)), symmetric)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_scipy(self) -> csr_matrix:
        return self._csr

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._csr.todense())

    def row_index_of_entries(self) -> np.ndarray:
        """Row index of each stored entry, aligned with ``indices``/``values``."""
        return np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))


def matvec(m: SparseMatrix, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.cols,):
        raise ValueError(f"vector length {v.shape} incompatible with {m.rows} x {m.cols}")
    return m.to_scipy() @ v


def gram_matvec(m: SparseMatrix, v: np.ndarray) -> np.ndarray:
    """Apply the Gram matrix ``M M^T`` without forming it."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.rows,):
        raise ValueError(f"vector length {v.shape} incompatible with Gram of {m.rows} x {m.cols}")
    return m.to_scipy() @ (m.to_scipy().T @ v)


def norms(m: SparseMatrix) -> tuple[float, float]:
    """Return ``(inf_norm, one_norm)``: max absolute row sum, max column sum."""
    if m.nnz == 0:
        return 0.0, 0.0
    absvals = np.abs(m.values)
    row_sums = np.add.reduceat(absvals, m.indptr[:-1][np.diff(m.indptr) > 0])
    col_sums = np.bincount(m.indices, weights=absvals, minlength=m.cols)
    return float(row_sums.max()), float(col_sums.max())


def top_entries(m: SparseMatrix, k: int) -> tuple[list[RankedEntry], bool]:
    """Rank stored entries by decreasing magnitude, ties by (i, j).

    Symmetric matrices rank only the upper triangle ``i <= j``.  Returns the
    list and a flag that is True when fewer than ``k`` entries exist.
    """
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    rows = m.row_index_of_entries()
    cols = m.indices
    vals = m.values
    if m.symmetric:
        keep = rows <= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    mags = np.abs(vals)
    if k < mags.size:
        # Every entry of the top k is at least the k-th largest magnitude;
        # keeping all entries at that cutoff keeps the ties it would split.
        cutoff = np.partition(mags, mags.size - k)[mags.size - k]
        cand = np.flatnonzero(mags >= cutoff)
    else:
        cand = np.arange(mags.size)
    order = cand[np.lexsort((cols[cand], rows[cand], -mags[cand]))]
    take = order[:k]
    entries = [
        RankedEntry(
            rank=r + 1,
            i=int(rows[idx]),
            j=int(cols[idx]),
            magnitude=float(mags[idx]),
            theta=0.0 if vals[idx] > 0 else math.pi,
        )
        for r, idx in enumerate(take)
    ]
    return entries, take.size < k


def truncate_split(m: SparseMatrix, level: float) -> tuple[SparseMatrix, SparseMatrix]:
    """Split into ``(m_hat, m_prime)``: entries with ``|value| <= level`` and the rest.

    Both parts keep the parent shape; their supports are disjoint and their sum
    restores ``m`` exactly.
    """
    if not (math.isfinite(level) and level > 0):
        raise ValueError(f"truncation level must be finite and positive: {level!r}")
    rows = m.row_index_of_entries()
    small = np.abs(m.values) <= level
    parts = []
    for keep in (small, ~small):
        coo = coo_matrix(
            (m.values[keep], (rows[keep], m.indices[keep])), shape=(m.rows, m.cols)
        )
        parts.append(SparseMatrix.from_scipy(coo.tocsr(), symmetric=m.symmetric))
    return parts[0], parts[1]


def save_matrix_csv(m: SparseMatrix, path) -> None:
    """Write ``i,j,value`` rows (0-based, row-major); symmetric matrices store
    only ``i <= j``."""
    rows = m.row_index_of_entries()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,value\n")
        for i, j, v in zip(rows, m.indices, m.values):
            if m.symmetric and i > j:
                continue
            fh.write(f"{i},{j},{float(v)!r}\n")


def load_matrix_csv(path, rows: int | None = None, cols: int | None = None,
                    symmetric: bool = False) -> SparseMatrix:
    """Read the ``i,j,value`` format; symmetric files are mirrored below the
    diagonal.  Dimensions default to the largest index seen plus one.  An
    ``(i, j)`` given twice is an error, not a sum."""
    ii: list[int] = []
    jj: list[int] = []
    vv: list[float] = []
    first_line: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "i,j,value":
            raise ValueError(f"unexpected matrix CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(fields)}")
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
            if i < 0 or j < 0:
                raise ValueError(f"line {lineno}: negative index")
            if symmetric and i > j:
                raise ValueError(f"line {lineno}: symmetric files store only i <= j")
            seen = first_line.setdefault((i, j), lineno)
            if seen != lineno:
                raise ValueError(f"line {lineno}: entry ({i}, {j}) repeats line {seen}")
            ii.append(i)
            jj.append(j)
            vv.append(v)
            if symmetric and i != j:
                ii.append(j)
                jj.append(i)
                vv.append(v)
    nrows = rows if rows is not None else (max(ii) + 1 if ii else 1)
    ncols = cols if cols is not None else (max(jj) + 1 if jj else 1)
    if symmetric:
        nrows = ncols = max(nrows, ncols)
    coo = coo_matrix((vv, (ii, jj)), shape=(nrows, ncols))
    return SparseMatrix.from_scipy(coo.tocsr(), symmetric=symmetric)
