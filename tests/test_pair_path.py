"""Differential tests for the pair path of block steps on rows of few columns.

On rows of scattered columns a block forms the weights its solve reads at
its column pairs and its repeat pairs alone (solvers._ScatteredRows):
delta at the repeat pairs, the Gram times -K in the one triangle the
solve reads, and the steps K_ts g_s that moves and x_moves read.  A spy
checks every such block of a run against a literal copy of the dense
formation, which the dense rows keep: the -K outer product, the repeat
mask, delta added where it holds, tri *= -K and the B x B steps.  The
triangle must equal the copy bit for bit at every pair and be 0 where the
copy is +-0 (the solve reads 0 and +-0 alike), the solves of the two must
give the same g bit for bit, and so must moves and the keeps_x sums.  The
runs cover the ridge, Lasso and penalty duals, kaczmarz and the Kaczmarz
quadratic, empty and repeated rows (a repeated empty row included), runs
of one coordinate long enough for numpy's pairwise sums, folds and
windows of several blocks.
"""

import collections
import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import solvers
from nucd.matrix import SparseRowMatrix
from test_block_steps import _block_len
from test_scattered_window import _bitwise, _matrix, _run


def _dense_reference(rows, model, coefs):
    """(tri, neg_k, rep, keeps_x) as _Blocks formed them on every block
    before the pair path, copied literally; neg_k is None without a
    schedule and rep None when no repeat term is read."""
    idx, size = rows.idx, rows.idx.size
    later, earlier = rows.later, rows.earlier
    weights = model.weights
    prod = rows.vals[later] * rows.vals[earlier]
    scalar = isinstance(weights, float)
    if not scalar:
        prod *= weights[later]
    tri = np.bincount(rows.row[later] * size + rows.row[earlier], weights=prod,
                      minlength=size * size).reshape(size, size).astype(float, copy=False)
    if scalar and weights != 1.0:
        tri *= weights
    neg_k = rep = None
    if rows.cs is not None:
        _cs, kappa, w = coefs.T
        neg_k = np.multiply.outer(rows.cs, -w)
        neg_k -= kappa
    delta, keeps_x = model.delta, model.keeps_x
    scalar = isinstance(delta, float)
    if keeps_x is not None or not scalar or delta:
        rep = idx[:, None] == idx
        rep &= np.tri(size, k=-1, dtype=bool)
        if rep.any():
            np.add(tri, delta if scalar else delta[:, None], out=tri, where=rep)
        else:
            keeps_x = rep = None
    if neg_k is not None:
        tri *= neg_k
    else:
        tri.flat[::size + 1] = coefs
    return tri, neg_k, rep, keeps_x


@contextlib.contextmanager
def _checked():
    """Every block of scattered rows is checked against _dense_reference;
    yields a Counter of what the checked blocks held."""
    seen = collections.Counter()
    triangle, first_failing = solvers._ScatteredRows.triangle, solvers._BlockRows.first_failing
    rows_of, take = solvers._ScatteredWindow.rows, solvers._StepPlan.take

    def spy_rows(window, b, *state):
        rows = rows_of(window, b, *state)
        rows.window_blocks = len(window.step_at) - 1
        return rows

    def spy_take(plan, size):
        out = take(plan, size)
        if out[1] is not None:
            seen["fold"] += 1
        return out

    def spy_triangle(self, model, coefs, below=None):
        want, neg_k, rep, keeps_x = _dense_reference(self, model, coefs)
        got = triangle(self, model, coefs, below)
        assert (self.keeps_x is None) == (keeps_x is None)
        keys = self.keys
        if rep is not None:
            if hasattr(self, "repeats"):
                t, s = self.repeats
                assert _bitwise(np.sort(t * self.idx.size + s), np.flatnonzero(rep))
            keys = np.concatenate((keys, np.flatnonzero(rep)))
        flat_got, flat_want = got.reshape(-1), want.reshape(-1)
        assert _bitwise(flat_got[keys], flat_want[keys])
        # off the pairs the solve reads 0, where the reference has +-0
        assert np.array_equal(np.tril(got, -1), np.tril(want, -1))
        if neg_k is None:
            assert _bitwise(np.diag(got), np.diag(want))
        accel = int(neg_k is not None)
        g_got = solvers._dtrsv(got.T, model.grad.copy(), trans=1, diag=accel)
        g_want = solvers._dtrsv(want.T, model.grad.copy(), trans=1, diag=accel)
        assert _bitwise(g_got, g_want)
        self.reference = neg_k, rep
        seen["blocks"] += 1
        seen["accelerated" if accel else "plain"] += 1
        if getattr(self, "window_blocks", 1) > 1:
            seen["window of several blocks"] += 1
        if rep is not None:
            seen["repeats"] += 1
            seen["repeats among the column pairs" if not hasattr(self, "repeats")
                 else "repeat pairs from idx"] += 1
            t, s = np.nonzero(rep)
            if self.empty is not None and self.empty[t].any():
                seen["repeated empty row"] += 1
            # 8 consecutive earlier steps on one coordinate: numpy sums
            # them pairwise
            row_first = np.r_[True, t[1:] != t[:-1]]
            run_first = row_first | np.r_[True, s[1:] != s[:-1] + 1]
            if np.diff(np.r_[np.flatnonzero(run_first), t.size]).max() >= 8:
                seen["run of 8"] += 1
        return got

    def spy_first_failing(self, model, g, div):
        if isinstance(self, solvers._ScatteredRows) and (
                model.keeps is not None or self.keeps_x is not None):
            neg_k, rep = self.reference
            steps = neg_k * -g if neg_k is not None else np.broadcast_to(-g, (g.size, g.size))
            got = self.steps(g)
            if model.keeps is not None:
                later, earlier = self.later, self.earlier
                want = np.bincount(later, minlength=self.cols.size,
                                   weights=self.vals[earlier]
                                   * steps[self.row[later], self.row[earlier]])
                want = want.astype(float, copy=False)
                assert _bitwise(self.moves(got), want)
                seen["keeps"] += 1
            if self.keeps_x is not None:
                assert _bitwise(self.x_moves(got), steps.sum(axis=1, where=rep))
                seen["keeps_x"] += 1
        first = first_failing(self, model, g, div)
        if first < g.size:
            seen["restarts"] += 1
        return first

    with contextlib.ExitStack() as stack:
        for cls, name, spy in ((solvers._ScatteredRows, "triangle", spy_triangle),
                               (solvers._BlockRows, "first_failing", spy_first_failing),
                               (solvers._ScatteredWindow, "rows", spy_rows),
                               (solvers._StepPlan, "take", spy_take)):
            stack.enter_context(mock.patch.object(cls, name, spy))
        yield seen


_KINDS = ["kaczmarz", "quadratic", "ridge", "ridge-rcdm", "lasso", "lasso-rcdm",
          "penalty", "penalty-rcdm"]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_pair_path_equals_the_dense_formation(data):
    """Drawn problems, rows (empty ones included for the duals), block
    length, window budget, stride and run length: every block's
    triangle, solve, moves and keeps_x sums equal the dense formation's."""
    kind = data.draw(st.sampled_from(_KINDS))
    m = data.draw(st.one_of(st.integers(1, 4), st.integers(5, 30)), label="m")
    d = data.draw(st.integers(2, 12), label="d")
    a = _matrix(m, d, data.draw(st.integers(1, d - 1), label="per row"),
                data.draw(st.integers(0, 2 ** 16), label="rows seed"),
                empty_every=0 if kind in ("kaczmarz", "quadratic") else 3)
    block = data.draw(st.integers(1, 40), label="block length")
    budget = data.draw(st.integers(1, 400), label="window budget")
    stride = data.draw(st.integers(max(solvers._CSR_SEGMENT_MIN, 3 * block), 200),
                       label="stride")
    iters = data.draw(st.integers(1, 3 * stride), label="iters")
    with mock.patch.object(solvers, "_WINDOW_WORK", budget), _block_len(block), \
            _checked() as seen:
        _run(kind, a, iters, stride, data.draw(st.integers(0, 99)))
    assert seen["blocks"]


# (kind, rows, iters, stride, block length, window budget, what must occur)
_SCENARIOS = {
    # rows 1, 4, 7, ... are empty, and 4 rows put repeats in most blocks
    "repeated empty rows": ("lasso", _matrix(4, 6, 3, 1, empty_every=3), 2000, 200, 20, 100,
                            ("repeated empty row", "keeps", "restarts")),
    "penalty repeats": ("penalty", _matrix(6, 8, 4, 2, empty_every=3), 3000, 300, 24, 120,
                        ("keeps_x", "repeated empty row", "restarts")),
    "penalty plain": ("penalty-rcdm", _matrix(6, 8, 4, 3, empty_every=3), 3000, 300, 24, 120,
                      ("keeps_x", "plain")),
    "ridge": ("ridge", _matrix(10, 8, 4, 4, empty_every=3), 2000, 200, 16, 90,
              ("repeated empty row", "repeats among the column pairs",
               "repeat pairs from idx", "window of several blocks")),
    "ridge plain": ("ridge-rcdm", _matrix(10, 8, 4, 5, empty_every=3), 2000, 200, 16, 90,
                    ("repeats", "plain")),
    # one row: every earlier step of a block is on its coordinate
    "runs of one coordinate": ("penalty", _matrix(2, 5, 3, 6), 2000, 400, 40, 200,
                               ("keeps_x", "run of 8")),
    # 4 rows on 4 of 6 columns, one each, of equal norm: c falls below
    # FOLD_BELOW about every 400 steps
    "folds": ("quadratic", SparseRowMatrix(np.arange(5), np.array([0, 2, 3, 5]),
                                           np.full(4, 3.0), (4, 6)), 3000, 997, 20, 100,
              ("fold", "window of several blocks", "accelerated")),
    "kaczmarz": ("kaczmarz", _matrix(30, 9, 3, 7), 1500, 300, 12, 90,
                 ("window of several blocks", "plain")),
}


@pytest.mark.parametrize("name", list(_SCENARIOS))
def test_pair_path_covers(name):
    """Each feature occurs in its run, and every block equals the dense
    formation."""
    kind, a, iters, stride, block, budget, wanted = _SCENARIOS[name]
    with mock.patch.object(solvers, "_WINDOW_WORK", budget), _block_len(block), \
            _checked() as seen:
        _run(kind, a, iters, stride, seed=5)
    for feature in wanted:
        assert seen[feature], feature


def _spied_run(kind, a, stride):
    """(calls of _Blocks._below, of _repeat_pairs and of steps) in one run."""
    with mock.patch.object(solvers._Blocks, "_below", autospec=True,
                           side_effect=solvers._Blocks._below) as below, \
            mock.patch.object(solvers, "_repeat_pairs", wraps=solvers._repeat_pairs) as pairs, \
            mock.patch.object(solvers._ScatteredRows, "steps", autospec=True,
                              side_effect=solvers._ScatteredRows.steps) as steps:
        _run(kind, a, 4000, stride, seed=3)
    return below.call_count, pairs.call_count, steps.call_count


def test_scattered_blocks_form_no_repeat_mask():
    """A blocked Lasso nu_acdm on rows of few columns, whose blocks repeat
    rows and restart, finds its repeat pairs from idx and never asks for
    the B x B strict lower mask; the same rows dense do."""
    a = _matrix(12, 10, 4, 8, empty_every=3)
    below, pairs, steps = _spied_run("lasso", a, 400)
    assert below == 0 and pairs > 0 and steps > 0
    dense = SparseRowMatrix.from_dense(a.to_dense() + 1.0)
    assert _spied_run("lasso", dense, 400)[0] > 0


def test_kaczmarz_blocks_do_no_pair_work():
    """Kaczmarz blocks have no repeat term (delta = 0) and no keeps test,
    so beyond the Gram they form nothing at pairs: no repeat pairs and no
    steps."""
    a = _matrix(12, 10, 4, 9)
    assert _spied_run("kaczmarz", a, 400) == (0, 0, 0)


def test_ridge_blocks_form_no_steps():
    """The ridge dual has a repeat term but no keeps test, so it forms no
    steps; without empty rows its repeat pairs are found among the column
    pairs, with no sort of idx."""
    assert _spied_run("ridge", _matrix(12, 10, 4, 10), 400) == (0, 0, 0)
    _below, pairs, steps = _spied_run("ridge", _matrix(12, 10, 4, 10, empty_every=3), 400)
    assert pairs > 0 and steps == 0
