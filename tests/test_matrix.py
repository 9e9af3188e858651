from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import matrix
from nucd.matrix import SparseRowMatrix


def _random_matrix(rng, m, d, density):
    dense = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-6, 6)
    dense[rng.random((m, d)) > density] = 0.0
    return SparseRowMatrix.from_dense(dense), dense


def _row_of_entry(a):
    return np.repeat(np.arange(a.m), np.diff(a.indptr))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31), st.integers(0, 12), st.integers(1, 9),
       st.floats(0.0, 1.0))
def test_products_match_the_scatter_add_reference(seed, m, d, density):
    """matvec and rmatvec are bitwise equal to the entry-order scatter-add
    they replaced."""
    rng = np.random.default_rng(seed)
    a, _dense = _random_matrix(rng, m, d, density)
    x = rng.standard_normal(d)
    y = rng.standard_normal(m)
    rows = _row_of_entry(a)
    want_mv = np.zeros(m)
    np.add.at(want_mv, rows, a.data * x[a.indices])
    want_rmv = np.zeros(d)
    np.add.at(want_rmv, a.indices, a.data * y[rows])
    assert np.array_equal(a.matvec(x), want_mv)
    assert np.array_equal(a.rmatvec(y), want_rmv)


def test_products_share_the_row_arrays():
    a, dense = _random_matrix(np.random.default_rng(1), 40, 7, 0.5)
    for arr in (a._csr.indptr, a._csr_t.indptr):
        assert np.shares_memory(arr, a.indptr)
    for arr in (a._csr.indices, a._csr_t.indices):
        assert np.shares_memory(arr, a.indices)
    for arr in (a._csr.data, a._csr_t.data):
        assert np.shares_memory(arr, a.data)
    assert np.array_equal(a.to_dense(), dense)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31), st.integers(1, 10))
def test_validation_names_the_first_unsorted_row(seed, m):
    """The vectorised check reports the same row as a row-by-row scan."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, m)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.sort(rng.choice(6, c, replace=False)) for c in counts]
                             + [np.zeros(0, np.int64)])
    if indices.size and rng.random() < 0.8:
        j = rng.integers(indices.size)
        indices[j] = rng.integers(6)  # may break the order of its row
    first_bad = next((i for i in range(m)
                      if np.any(np.diff(indices[indptr[i]:indptr[i + 1]]) <= 0)), None)
    args = (indptr, indices, np.ones(indices.size), (m, 6))
    if first_bad is None:
        SparseRowMatrix(*args)
    else:
        with pytest.raises(ValueError, match=f"^row {first_bad}: column indices"):
            SparseRowMatrix(*args)


def _norms_case(counts, vals, chunk):
    """row_norms_sq of a matrix with these row lengths and values, built
    with chunks of `chunk` entries, against one bincount over all entries.
    With no entries that bincount returns int64 zeros (numpy's rule for an
    empty count), compared here as float64."""
    m = len(counts)
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    indices = np.concatenate([np.arange(c) for c in counts] + [np.zeros(0, np.int64)])
    values = np.asarray(vals, dtype=float)
    with mock.patch.object(matrix, "_ROW_CHUNK", chunk):
        a = SparseRowMatrix(indptr, indices, values, (m, max(counts, default=0) + 1))
    with np.errstate(over="ignore"):
        want = np.bincount(np.repeat(np.arange(m), np.diff(indptr)), values * values,
                           minlength=m)
    assert a.row_norms_sq.dtype == np.float64
    assert a.row_norms_sq.tobytes() == want.astype(np.float64).tobytes()


@pytest.mark.parametrize("counts, chunk", [
    ([], 1),                    # m = 0
    ([0, 0, 0], 2),             # nnz = 0
    ([9, 0, 1, 12, 0], 4),      # rows longer than a chunk, empty rows
    ([1, 1, 1, 1, 1, 1, 1], 3),  # several rows a chunk
    ([0, 5, 0], 5),             # a row exactly one chunk long
])
def test_row_norms_are_one_bincount_at_any_chunk(counts, chunk):
    rng = np.random.default_rng(sum(counts) + chunk)
    vals = rng.standard_normal(sum(counts)) * 10.0 ** rng.integers(-150, 150, sum(counts))
    _norms_case(counts, vals, chunk)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_row_norms_are_bitwise_one_bincount(data):
    """Chunks of whole rows sum each row's squares in entry order, as one
    bincount over all entries does, at every chunk size; values span the
    doubles, so sums round, overflow to inf and underflow to zero."""
    counts = data.draw(st.lists(st.integers(0, 12), max_size=12), label="counts")
    vals = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=sum(counts), max_size=sum(counts)), label="vals")
    _norms_case(counts, vals, data.draw(st.sampled_from([1, 2, 3, 7, 1 << 15]), label="chunk"))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31), st.integers(0, 10), st.sampled_from([1, 2, 5]))
def test_validation_in_small_chunks_names_the_same_row(seed, m, chunk):
    """The ascending check run in chunks of a few entries raises for the
    same first unsorted row as in one chunk."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, m)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.sort(rng.choice(6, c, replace=False)) for c in counts]
                             + [np.zeros(0, np.int64)])
    if indices.size:
        j = rng.integers(indices.size)
        indices[j] = rng.integers(6)  # may break the order of its row
    args = (indptr, indices, np.ones(indices.size), (m, 6))
    try:
        SparseRowMatrix(*args)
        want = None
    except ValueError as exc:
        want = str(exc)
    with mock.patch.object(matrix, "_ROW_CHUNK", chunk):
        if want is None:
            SparseRowMatrix(*args)
        else:
            with pytest.raises(ValueError) as err:
                SparseRowMatrix(*args)
            assert str(err.value) == want
