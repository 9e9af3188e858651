"""Differential tests for the windows of block steps on rows of few columns.

On rows of scattered columns _Blocks builds the structure of consecutive
blocks once per window (solvers._ScatteredWindow) and hands each block
slices of it.  Every block handed out during a run must equal, bit for bit,
a window built on that block's indices alone: the slices of idx, row
starts, empty rows, entries (row, column, value) and column pairs, and
what gram, moves, dots, entries, sums and add compute from them.  The runs cover empty rows at block edges,
repeated rows, restarts that rebuild the window, folds inside a window,
matrices wider than 2^16 columns and windows cut by the entry budget,
which no window exceeds by more than one block.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import solvers
from nucd.matrix import SparseRowMatrix
from nucd.problems import (build_kaczmarz, build_lasso_dual, build_penalty_dual,
                           build_ridge_dual)
from nucd.solvers import SolverConfig
from test_block_steps import _block_len


def _bitwise(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype.kind == "f":
        return got.tobytes() == want.tobytes()
    return np.array_equal(got, want)


def _compare(window, b, state, rng):
    """Block b of window against the block built alone, on the same state;
    add runs on copies of the caches."""
    got = solvers._ScatteredRows(window, b, *state)
    alone_window = solvers._ScatteredWindow(window.mat_for_tests, got.idx, [got.idx.size])
    want = solvers._ScatteredRows(alone_window, 0, *state)
    for name in ("idx", "starts", "row", "cols", "vals", "later", "earlier", "pair_t",
                 "pair_s", "keys"):
        assert _bitwise(getattr(got, name), getattr(want, name)), name
    assert (got.empty is None) == (want.empty is None)
    if got.empty is not None:
        assert _bitwise(got.empty, want.empty)
    size = got.idx.size
    entries = got.cols.size
    for weights in (1.0, 0.75, rng.uniform(0.5, 2.0, entries)):
        assert _bitwise(got.gram(weights), want.gram(weights))
    steps = rng.standard_normal((size, size))
    assert _bitwise(got.moves(steps[got.pair_t, got.pair_s]),
                    want.moves(steps[want.pair_t, want.pair_s]))
    assert _bitwise(got.dots(), want.dots())
    assert _bitwise(got.entries(), want.entries())
    w = rng.standard_normal(entries)
    assert _bitwise(got.sums(w), want.sums(w))
    ux, vx, aggs, cs = state
    upd = rng.standard_normal((len(aggs), int(rng.integers(1, size + 1))))
    mine, theirs = aggs.copy(), aggs.copy()
    solvers._ScatteredRows(window, b, ux, vx, mine, cs).add(upd)
    solvers._ScatteredRows(alone_window, 0, ux, vx, theirs, cs).add(upd)
    assert _bitwise(mine, theirs)
    return got


class _Log:
    """What the spies saw: each window's first step, block ends and entry
    weights (an empty row counting as one); for each block, its window's
    number of blocks, whether an empty row is at its edge and whether it
    draws a row twice; the steps of the folds taken and the number of
    give-backs."""

    def __init__(self):
        self.windows, self.folds, self.restarts, self.blocks = [], [], 0, []
        self.taken = None  # the steps of the last request to the plan


@contextlib.contextmanager
def _spied(seed=0):
    """Every block that _Blocks hands out on scattered rows is compared
    with the block built alone; yields the _Log."""
    log, rng = _Log(), np.random.default_rng(seed)
    window_of, init, rows = solvers._Blocks._window, solvers._ScatteredWindow.__init__, \
        solvers._ScatteredWindow.rows
    take, give_back = solvers._StepPlan.take, solvers._StepPlan.give_back

    def spy_window(self, k, end):
        window = window_of(self, k, end)
        lens = np.diff(self.mat.indptr)[window.idx]
        weights = np.maximum(lens, 1)
        log.windows.append((k, list(window.step_at[1:]),
                            [int(weights[lo:hi].sum()) for lo, hi in
                             zip(window.step_at[:-1], window.step_at[1:])]))
        return window

    def spy_init(self, mat, idx, ends):
        init(self, mat, idx, ends)
        self.mat_for_tests = mat

    def spy_rows(self, b, *state):
        block = _compare(self, b, state, rng)
        # the block's steps are the ones the plan handed out
        assert _bitwise(block.idx, log.taken)
        log.blocks.append((len(self.step_at) - 1,
                           block.empty is not None and bool(block.empty[0] or block.empty[-1]),
                           np.unique(block.idx).size < block.idx.size))
        return rows(self, b, *state)

    def spy_take(self, size):
        k = self.base + self.pos
        out = take(self, size)
        log.taken = out[0]
        if out[1] is not None:
            log.folds.append(k)
        return out

    def spy_give_back(self, count):
        log.restarts += 1
        give_back(self, count)

    with contextlib.ExitStack() as stack:
        for cls, name, spy in ((solvers._Blocks, "_window", spy_window),
                               (solvers._ScatteredWindow, "__init__", spy_init),
                               (solvers._ScatteredWindow, "rows", spy_rows),
                               (solvers._StepPlan, "take", spy_take),
                               (solvers._StepPlan, "give_back", spy_give_back)):
            stack.enter_context(mock.patch.object(cls, name, spy))
        yield log


def _matrix(m, d, per_row, seed, empty_every=0, wide=False):
    """m rows of up to per_row of d columns (every empty_every-th row
    empty), norms spread over two orders of magnitude; wide=True spreads
    the d column ids over 2^17 + 5 columns."""
    rng = np.random.default_rng(seed)
    width = 2 ** 17 + 5 if wide else d
    spread = np.linspace(0, width - 1, d).astype(np.int64)
    indptr, indices, data = [0], [], []
    for i in range(m):
        count = 0 if empty_every and i % empty_every == 1 else int(rng.integers(1, per_row + 1))
        indices.append(spread[np.sort(rng.choice(d, count, replace=False))])
        data.append(rng.standard_normal(count) * (10.0 if i % 4 == 0 else 1.0))
        indptr.append(indptr[-1] + count)
    return SparseRowMatrix(np.array(indptr), np.concatenate(indices),
                           np.concatenate(data), (m, width))


def _run(kind, a, iters, stride, seed):
    """One unchecked run on rows a: kaczmarz on A x = b, nu_acdm on the
    Kaczmarz quadratic, or, on a dual, nu_acdm (nu_acdm_ns on the penalty)
    or with "-rcdm" rcdm: the Lasso's lam, a tenth of lam_max, makes
    blocks restart, and so do the penalty's labels, normals times 3, which
    move y across +-1."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(iters=iters, seed=seed, trace_stride=stride)
    if kind == "kaczmarz":
        return solvers.kaczmarz(a, a.matvec(rng.standard_normal(a.d)), np.zeros(a.d), cfg)
    if kind == "quadratic":
        oracle, prof = build_kaczmarz(a, rng.standard_normal(a.m))
        return solvers.nu_acdm(oracle, prof, np.linspace(-0.5, 0.4, a.m), cfg)
    labels = rng.standard_normal(a.m)
    problem, _, plain = kind.partition("-")
    if problem == "lasso":
        lam = 0.1 * float(np.max(np.abs(a.rmatvec(labels)))) / a.m
        oracle, prof = build_lasso_dual(a, labels, lam, 0.05)
    elif problem == "ridge":
        oracle, prof = build_ridge_dual(a, labels, 0.1)
    else:
        oracle, prof = build_penalty_dual(a, 3.0 * labels, 0.1)
    solver = (solvers.rcdm if plain else
              solvers.nu_acdm_ns if problem == "penalty" else solvers.nu_acdm)
    return solver(oracle, prof, np.zeros(a.m), cfg)


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_window_blocks_equal_blocks_built_alone(data):
    """Drawn rows (empty ones included for the duals), block length,
    window budget, stride and run length: every block of every window
    equals the block built alone."""
    kind = data.draw(st.sampled_from(["kaczmarz", "quadratic", "lasso", "lasso-rcdm"]))
    m = data.draw(st.one_of(st.integers(1, 4), st.integers(5, 30)), label="m")
    d = data.draw(st.integers(2, 12), label="d")
    # fewer than d per row: scattered rows, never a dense matrix
    a = _matrix(m, d, data.draw(st.integers(1, d - 1), label="per row"),
                data.draw(st.integers(0, 2 ** 16), label="rows seed"),
                empty_every=0 if kind in ("kaczmarz", "quadratic") else 3,
                wide=data.draw(st.booleans(), label="wide"))
    block = data.draw(st.integers(1, 12), label="block length")
    budget = data.draw(st.integers(1, 200), label="window budget")
    stride = data.draw(st.integers(max(solvers._CSR_SEGMENT_MIN, 3 * block), 150),
                       label="stride")
    iters = data.draw(st.integers(1, 3 * stride), label="iters")
    with mock.patch.object(solvers, "_WINDOW_WORK", budget), _block_len(block), \
            _spied(data.draw(st.integers(0, 99))) as log:
        _run(kind, a, iters, stride, data.draw(st.integers(0, 99)))
    assert log.blocks


def _scenario(name):
    """(kind, rows, iters, stride, block length, window budget) of each
    feature the windows must cover."""
    return {
        # rows 1, 4, 7, ... are empty, at the edges of many blocks
        "empty rows at block edges": ("lasso", _matrix(40, 8, 4, 1, empty_every=3),
                                      2000, 200, 7, 60),
        # 3 rows: most blocks draw rows again
        "repeated rows": ("kaczmarz", _matrix(3, 6, 4, 2), 1500, 300, 9, 80),
        "restarts": ("lasso", _matrix(40, 6, 4, 3), 4000, 400, 10, 150),
        # 4 rows on 4 of 6 columns, one each, of equal norm: c falls
        # below FOLD_BELOW about every 400 steps
        "folds inside windows": ("quadratic", SparseRowMatrix(
            np.arange(5), np.array([0, 2, 3, 5]), np.full(4, 3.0), (4, 6)),
            3000, 997, 20, 100),
        "wide matrix": ("kaczmarz", _matrix(30, 9, 3, 4, wide=True), 1500, 300, 12, 90),
        "windows cut by the budget": ("kaczmarz", _matrix(50, 30, 20, 5), 3000, 1000,
                                      16, 500),
    }[name]


_SCENARIOS = ["empty rows at block edges", "repeated rows", "restarts",
              "folds inside windows", "wide matrix", "windows cut by the budget"]


@pytest.mark.parametrize("name", _SCENARIOS)
def test_windows_cover(name):
    """Each feature occurs in its run, inside windows of several blocks,
    and every block equals the block built alone."""
    kind, a, iters, stride, block, budget = _scenario(name)
    with mock.patch.object(solvers, "_WINDOW_WORK", budget), _block_len(block), \
            _spied() as log:
        _run(kind, a, iters, stride, seed=5)
    several = [w for w in log.windows if len(w[1]) > 1]
    assert several
    if name == "empty rows at block edges":
        assert any(count > 1 and edge for count, edge, _repeats in log.blocks)
    elif name == "repeated rows":
        assert any(count > 1 and repeats for count, _edge, repeats in log.blocks)
    elif name == "restarts":
        # a window built from a step inside the one before, the step a
        # block restarted at, holds one block; later windows grow again
        assert log.restarts > 0
        rebuilt = [len(ends) for (prev_k, prev_ends, _), (k, ends, _w)
                   in zip(log.windows, log.windows[1:]) if k < prev_k + prev_ends[-1]]
        assert rebuilt and set(rebuilt) == {1}
    elif name == "folds inside windows":
        assert any(k < fold < k + ends[-1] for k, ends, _w in several for fold in log.folds)
    elif name == "wide matrix":
        assert a.d > 2 ** 16
    else:
        # a window ends at the budget: its blocks before the last weigh
        # less, all of them at least as much, and it ends before its
        # segment does
        assert any(sum(weights[:-1]) < budget <= sum(weights)
                   and (k + ends[-1]) % stride for k, ends, weights in several)


def test_no_window_holds_more_than_the_budget_and_one_block():
    """A window takes blocks while those before weigh less than
    _WINDOW_WORK entries (an empty row counting as one): a spy sees every
    window of a long segment stay within the budget plus its last
    block."""
    a = _matrix(200, 40, 12, 6, empty_every=5)
    with _spied() as log:
        _run("lasso", a, 20000, 10000, seed=6)
    assert len(log.windows) > 2
    for _k, _ends, weights in log.windows:
        assert sum(weights[:-1]) < solvers._WINDOW_WORK
        assert sum(weights) < solvers._WINDOW_WORK + weights[-1]
    assert max(sum(w) for _k, _e, w in log.windows) >= solvers._WINDOW_WORK
