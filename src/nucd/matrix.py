"""Row-oriented sparse matrix storage.

CSR-style arrays with cheap per-row views: the coordinate solvers touch one
row per iteration, so row access must be a pair of array views rather than
a scipy object allocation.  No table of per-row views is kept anywhere:
the solvers' loop slices each sampled row out of indptr, indices and data
itself.  Full products (A @ x, A.T @ y) are needed only at setup and trace
time; they go through a scipy CSR array that shares the same three arrays.
The m x m Gram A A^T that the linear-system block steps read is formed on
first use and kept with the matrix (row_gram).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse


class SparseRowMatrix:
    """Sparse m x d matrix stored by rows.

    indptr  : (m+1,) int64, row i occupies [indptr[i], indptr[i+1])
    indices : (nnz,) int64 column ids, strictly ascending within each row
    data    : (nnz,) float64 values
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self.m, self.d = int(shape[0]), int(shape[1])
        self._validate()
        # no copies: products read the arrays above
        self._csr = scipy.sparse.csr_array(
            (self.data, self.indices, self.indptr), shape=(self.m, self.d), copy=False
        )
        self._csr_t = self._csr.T
        # row norms are consumed as smoothness constants and sampling
        # weights; cache once.  A row with an entry above about 1.3e154 has
        # a squared norm that no double holds: it reads inf, and the
        # problem builders refuse it by row
        row_of_entry = np.repeat(np.arange(self.m), np.diff(self.indptr))
        sq = np.zeros(self.m)
        with np.errstate(over="ignore"):
            np.add.at(sq, row_of_entry, self.data * self.data)
        self.row_norms_sq = sq

    def _validate(self):
        if self.indptr.shape != (self.m + 1,):
            raise ValueError("indptr length must be m + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must have equal length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.d:
                raise ValueError("column index out of range")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("matrix values must be finite")
        # entry j + 1 must exceed entry j wherever both lie in one row
        bad = np.diff(self.indices) <= 0
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
        if bad.any():
            i = int(np.searchsorted(self.indptr, np.argmax(bad) + 1, side="right")) - 1
            raise ValueError(f"row {i}: column indices not strictly ascending")

    @classmethod
    def from_dense(cls, arr) -> "SparseRowMatrix":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2:
            raise ValueError("from_dense needs a 2-d array")
        m, d = arr.shape
        mask = arr != 0.0
        counts = mask.sum(axis=1)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.nonzero(mask)[1]
        data = arr[mask]
        return cls(indptr, indices, data, (m, d))

    def row(self, i: int):
        """Views (column_ids, values) of row i; no copies."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """<a_i, x> in O(nnz(a_i))."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return float(np.dot(self.data[lo:hi], x[self.indices[lo:hi]]))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x, shape (m,)."""
        return self._csr @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y, shape (d,)."""
        return self._csr_t @ y

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    @cached_property
    def row_gram(self) -> np.ndarray:
        """A A^T as a dense (m, m) array for a matrix whose rows all have d
        columns, formed on first use and kept with the matrix, so that
        every run on it shares one copy."""
        # validated rows ascend strictly in [0, d): the data array is the
        # dense matrix, and no copy of it is made
        dense = self.data.reshape(self.m, self.d)
        return dense @ dense.T

    @property
    def nnz(self) -> int:
        return self.indices.size
