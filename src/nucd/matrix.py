"""Row-oriented sparse matrix storage.

CSR-style arrays with cheap per-row views: the coordinate solvers touch one
row per iteration, so row access must be a pair of array slices rather than
a scipy object allocation.  Full products (A @ x, A.T @ y) are needed only
at setup and trace time and are vectorized.
"""

from __future__ import annotations

import numpy as np


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
        counts = np.diff(self.indptr)
        self._row_of_entry = np.repeat(np.arange(self.m), counts)
        # row norms are consumed as smoothness constants and sampling
        # weights; cache once
        sq = np.zeros(self.m)
        np.add.at(sq, self._row_of_entry, self.data * self.data)
        self.row_norms_sq = sq
        self.row_norms = np.sqrt(sq)

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
        for i in range(self.m):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if np.any(np.diff(self.indices[lo:hi]) <= 0):
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

    @classmethod
    def from_rows(cls, rows, d: int) -> "SparseRowMatrix":
        """rows: iterable of (column_ids, values) pairs, already ascending."""
        indptr = [0]
        idx_parts, val_parts = [], []
        for cols, vals in rows:
            cols = np.asarray(cols, dtype=np.int64)
            vals = np.asarray(vals, dtype=float)
            if cols.shape != vals.shape:
                raise ValueError("each row needs as many values as column ids")
            idx_parts.append(cols)
            val_parts.append(vals)
            indptr.append(indptr[-1] + cols.size)
        indices = np.concatenate(idx_parts) if idx_parts else np.zeros(0, np.int64)
        data = np.concatenate(val_parts) if val_parts else np.zeros(0)
        return cls(np.asarray(indptr), indices, data, (len(indptr) - 1, d))

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
        out = np.zeros(self.m)
        np.add.at(out, self._row_of_entry, self.data * x[self.indices])
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y, shape (d,)."""
        out = np.zeros(self.d)
        np.add.at(out, self.indices, self.data * y[self._row_of_entry])
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.d))
        out[self._row_of_entry, self.indices] = self.data
        return out

    @property
    def nnz(self) -> int:
        return self.indices.size
