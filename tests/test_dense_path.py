"""Differential test for block steps on rows of all d columns.

Every block of a blocked dual run on dense rows (solvers._FullRows) is
checked against a literal copy of the dense formation: the repeat mask
idx[:, None] == idx below the diagonal, delta added where it holds, the
-K outer product multiplied in (or the plan's L on the diagonal without a
schedule), the B x B steps K_ts g_s and their masked keeps_x sums
steps.sum(axis=1, where=rep).  The triangle and the sums must match bit
for bit.  The runs cover the ridge, Lasso and penalty duals, with a
schedule and without (rcdm).
"""

import collections
import contextlib
from unittest import mock

import numpy as np
import pytest

from nucd import solvers
from nucd.matrix import SparseRowMatrix
from test_block_steps import _block_len
from test_scattered_window import _bitwise, _run


def _dense_reference(rows, model, coefs):
    """(tri, neg_k, rep, keeps_x) of the dense formation, copied literally;
    neg_k is None without a schedule and rep None when no repeat term is
    read or no step repeats."""
    idx, size = rows.idx, rows.idx.size
    weights = model.weights
    if isinstance(weights, float):
        tri = rows.rows @ rows.rows.T
        if weights != 1.0:
            tri *= weights
    else:
        tri = (rows.rows * weights) @ rows.rows.T
    delta, keeps_x = model.delta, model.keeps_x
    scalar = isinstance(delta, float)
    rep = neg_k = None
    if keeps_x is not None or not scalar or delta:
        rep = idx[:, None] == idx
        rep &= np.tri(size, k=-1, dtype=bool)
        if rep.any():
            np.add(tri, delta if scalar else delta[:, None], out=tri, where=rep)
        else:
            keeps_x = rep = None
    if rows.cs is None:
        tri.flat[::size + 1] = coefs
    else:
        _cs, kappa, w = coefs.T
        neg_k = np.multiply.outer(rows.cs, -w)
        neg_k -= kappa
        tri *= neg_k
    return tri, neg_k, rep, keeps_x


@contextlib.contextmanager
def _checked():
    """Every _FullRows block is checked against _dense_reference; yields a
    Counter of what the checked blocks held."""
    seen = collections.Counter()
    triangle, first_failing = solvers._FullRows.triangle, solvers._BlockRows.first_failing

    def spy_triangle(self, model, coefs, below):
        want, neg_k, rep, keeps_x = _dense_reference(self, model, coefs)
        got = triangle(self, model, coefs, below)
        assert _bitwise(got, want)
        assert (self.keeps_x is None) == (keeps_x is None)
        self.reference = neg_k, rep
        seen["blocks"] += 1
        seen["plain" if neg_k is None else "accelerated"] += 1
        seen["repeats" if rep is not None else "no repeats"] += 1
        return got

    def spy_first_failing(self, model, g, div):
        if isinstance(self, solvers._FullRows) and self.keeps_x is not None:
            neg_k, rep = self.reference
            steps = neg_k * -g if neg_k is not None else np.broadcast_to(-g, (g.size, g.size))
            assert _bitwise(self.x_moves(self.steps(g)), steps.sum(axis=1, where=rep))
            seen["keeps_x"] += 1
        first = first_failing(self, model, g, div)
        if first < g.size:
            seen["restarts"] += 1
        return first

    with mock.patch.object(solvers._FullRows, "triangle", spy_triangle), \
            mock.patch.object(solvers._BlockRows, "first_failing", spy_first_failing):
        yield seen


def _dense_rows(m, d, seed):
    """m rows of all d columns, norms spread over two orders of magnitude."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d))
    a[::4] *= 10.0
    return SparseRowMatrix.from_dense(a)


# what must occur in each kind's run on 200 rows, where some blocks of
# 16 steps repeat no row; the penalty's keeps_x test is then dropped
_KINDS = {
    "ridge": ("repeats", "no repeats", "accelerated"),
    "ridge-rcdm": ("repeats", "no repeats", "plain"),
    "lasso": ("repeats", "no repeats", "restarts", "accelerated"),
    "lasso-rcdm": ("repeats", "no repeats", "restarts", "plain"),
    "penalty": ("keeps_x", "no repeats", "restarts", "accelerated"),
    "penalty-rcdm": ("keeps_x", "no repeats", "restarts", "plain"),
}


@pytest.mark.parametrize("kind", list(_KINDS))
def test_dense_blocks_equal_the_dense_formation(kind):
    """Each block's triangle and keeps_x sums equal the literal dense
    formation bit for bit, and repeats, keeps_x and restarts occur."""
    with _block_len(16), _checked() as seen:
        _run(kind, _dense_rows(200, 6, seed=1), 3000, 300, seed=7)
    for feature in _KINDS[kind]:
        assert seen[feature], feature


@pytest.mark.parametrize("kind", list(_KINDS))
def test_dense_blocks_of_three_rows(kind):
    """On 3 rows every block repeats rows, in runs of one coordinate long
    enough for numpy's pairwise sums."""
    with _block_len(40), _checked() as seen:
        _run(kind, _dense_rows(3, 6, seed=2), 2000, 400, seed=7)
    assert seen["blocks"] and seen["repeats"] == seen["blocks"]
    if kind.startswith("penalty"):
        assert seen["keeps_x"] == seen["blocks"]
