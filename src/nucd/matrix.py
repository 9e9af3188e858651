"""Row-oriented sparse matrix storage.

CSR-style arrays with cheap per-row views: the coordinate solvers touch one
row per iteration, so row access must be a pair of array views rather than
a scipy object allocation.  No table of per-row views is kept anywhere:
the solvers' loop slices each sampled row out of indptr, indices and data
itself.  Full products (A @ x, A.T @ y) are needed only at setup and trace
time; they go through a scipy CSR array that shares the same three arrays.
A matrix whose rows all hold all d columns also keeps its data array as
the dense (m, d) matrix (dense), so that full products on it can be one
BLAS call.  The m x m Gram A A^T that the linear-system block steps read
is formed from it on first use and kept with the matrix (row_gram).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

# the row norms and the ascending check run over chunks of whole rows of at
# most this many entries, so that their per-entry temporaries (row ids and
# squares, 16 bytes an entry, then one comparison byte) stay near 0.5 MB
# whatever the entry count; only a row longer than a chunk takes more
_ROW_CHUNK = 1 << 15


class SparseRowMatrix:
    """Sparse m x d matrix stored by rows.

    indptr  : (m+1,) int64, row i occupies [indptr[i], indptr[i+1])
    indices : (nnz,) int64 column ids, strictly ascending within each row
    data    : (nnz,) float64 values
    dense   : (m, d) view of data when every row holds all d columns, else
              None

    The given arrays are kept, not copied, when they already have these
    dtypes.  Besides them the constructor keeps only row_norms_sq (m,);
    its checks and norms run over chunks of whole rows (_ROW_CHUNK), so
    what is live at once beyond the arrays is one chunk's temporaries.
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self.m, self.d = int(shape[0]), int(shape[1])
        self._validate()
        # validated rows ascend strictly in [0, d): nnz = m d means every
        # row is columns 0..d-1, and the data array is the dense matrix
        self.dense = (self.data.reshape(self.m, self.d) if self.nnz == self.m * self.d
                      else None)
        # no copies: products read the arrays above
        self._csr = scipy.sparse.csr_array(
            (self.data, self.indices, self.indptr), shape=(self.m, self.d), copy=False
        )
        self._csr_t = self._csr.T
        # row norms are consumed as smoothness constants and sampling
        # weights; cache once.  A row with an entry above about 1.3e154 has
        # a squared norm that no double holds: it reads inf, and the
        # problem builders refuse it by row.  bincount adds each row's
        # squares in entry order, as a loop would, and a chunk holds whole
        # rows, so no sum depends on where the chunks end
        self.row_norms_sq = np.zeros(self.m)
        with np.errstate(over="ignore"):
            for r0, r1 in self._row_chunks():
                lo, hi = self.indptr[r0], self.indptr[r1]
                row_of_entry = np.repeat(np.arange(r1 - r0), np.diff(self.indptr[r0:r1 + 1]))
                vals = self.data[lo:hi]
                self.row_norms_sq[r0:r1] = np.bincount(row_of_entry, vals * vals,
                                                       minlength=r1 - r0)

    def _row_chunks(self):
        """(first row, end row) of consecutive runs of whole rows, each
        holding at most _ROW_CHUNK entries, or one row that holds more."""
        if self.nnz <= _ROW_CHUNK:
            return [(0, self.m)]
        ends = [0]
        while ends[-1] < self.m:
            end = int(np.searchsorted(self.indptr, self.indptr[ends[-1]] + _ROW_CHUNK, "right")) - 1
            ends.append(min(max(end, ends[-1] + 1), self.m))
        return list(zip(ends[:-1], ends[1:]))

    def _validate(self):
        if self.indptr.shape != (self.m + 1,):
            raise ValueError("indptr length must be m + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(self.indptr[1:] < self.indptr[:-1]):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must have equal length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.d:
                raise ValueError("column index out of range")
            # min and max are NaN if any entry is, and infinite if one is
            if not (np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
                raise ValueError("matrix values must be finite")
        # entry j + 1 must exceed entry j wherever both lie in one row
        for r0, r1 in self._row_chunks():
            lo, hi = self.indptr[r0], self.indptr[r1]
            cols = self.indices[lo:hi]
            bad = cols[1:] <= cols[:-1]
            starts = self.indptr[r0 + 1:r1] - lo
            bad[starts[(starts > 0) & (starts < hi - lo)] - 1] = False
            if bad.any():
                i = int(np.searchsorted(self.indptr, lo + np.argmax(bad) + 1, side="right")) - 1
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
        return self.dense @ self.dense.T

    @property
    def nnz(self) -> int:
        return self.indices.size
