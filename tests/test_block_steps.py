"""Differential tests for the block steps of the coordinate loop.

On an oracle with a block_model (the Kaczmarz quadratic, the residual form
that solvers.kaczmarz steps, and the ridge, smoothed-Lasso and penalty
duals) an unchecked run takes its steps in blocks, one triangular solve per
block (solvers._Blocks).  That regroups the per-step loop's arithmetic, so a
blocked run must agree with the per-step loop to rounding: within REL of
the largest entry of the start and the returned point, and of the trace
values, with the same record iterations exactly.  The per-step reference
is the same run with block steps switched off; a checked run steps the
same way, but its descent check may trip on the skewed rows drawn here.
A Lasso block whose entries cross +-lam, and a penalty block whose steps'
coordinates cross +-1, restarts at the crossing, which must leave the same
agreement.

REL is 1e-12, except for the strongly convex accelerated runs.  Their z
moves about 1/tau times as far as y per step, and y = u + c v is formed
from terms of z's size, so the per-step loop itself rounds at z's scale:
on the skewed draws here (tau near 1e-5) a change of one ulp in x0 moves
its nu_acdm point by up to 1.4e-12 of its largest entry, and the blocked
run differed from it by up to 4.3e-12.
"""

import contextlib
import gc
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import solvers
from nucd.geometry import SmoothnessProfile
from nucd.matrix import SparseRowMatrix
from nucd.problems import (KaczmarzResidual, build_kaczmarz, build_lasso_dual,
                           build_penalty_dual, build_ridge_dual,
                           smallest_positive_eigenvalue)
from nucd.solvers import InvariantViolation, SolverConfig

REL = 1e-12
REL_STRONGLY_CONVEX = 1e-10
_STRONGLY_CONVEX = ("nu_acdm", "acdm_baseline", "generalized_accel")

_SOLVERS = {
    "nu_acdm": solvers.nu_acdm,
    "acdm_baseline": solvers.acdm_baseline,
    "generalized_accel": lambda o, prof, x0, cfg: solvers.generalized_accel(
        o, prof, x0, cfg, solvers.rcdm_probabilities(prof)),
    "nu_acdm_ns": solvers.nu_acdm_ns,
    "rcdm": solvers.rcdm,
}


def _close(got, want, rel=REL, scale=0.0) -> bool:
    """|got - want| within rel of the largest entry of want, or of scale
    when that is larger."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = max(float(np.max(np.abs(want), initial=0.0)), scale, np.finfo(float).tiny)
    return float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale


def _rows(kind, m, d, seed, empty=False):
    """An m x d array of rows of all d columns ("dense"), of 1 to d - 1
    columns ("scattered") or both in turn ("mixed"), with row norms spread
    over four orders of magnitude; with empty=True every third mixed row is
    empty."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, d))
    for i in range(m):
        if kind == "scattered" or (kind == "mixed" and i % 2):
            dropped = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
            dense[i, dropped] = 0.0
    dense *= 10.0 ** rng.uniform(-1.0, 1.0, size=(m, 1))
    if empty and kind == "mixed":
        dense[1::3] = 0.0
    return dense


def _erm(variant, lam_frac, lam2=None, label_scale=1.0):
    """A problem builder (A, labels, beta) for the ridge, smoothed-Lasso or
    penalty dual with lam = lam_frac * lam_max, lam_max =
    ||A^T labels||_inf / m (the smallest lam at which the Lasso's answer
    is w = 0).  The penalty's labels are scaled by label_scale: the
    further they lie from 0, the further y_i moves, across +-1."""
    def problem(a, labels, beta):
        lam_max = float(np.max(np.abs(a.rmatvec(labels)))) / a.m
        lam = lam_frac * lam_max if lam_max > 0.0 else lam_frac
        if variant == "ridge":
            return build_ridge_dual(a, labels, lam, beta=beta)
        if variant == "penalty":
            return build_penalty_dual(a, labels * label_scale, lam, beta=beta)
        return build_lasso_dual(a, labels, lam, lam2, beta=beta)
    return problem


def _stop_after(records):
    """A dist_fn that meets stop_when_dist_below=0.5 at the given record,
    whatever the point: both runs then stop at the same record."""
    calls = itertools.count()
    return lambda x, agg, value: 0.0 if next(calls) >= records else 1.0


def _run(name, a, b, x0, cfg, blocks, problem=build_kaczmarz):
    """(point, trace, number of triangular solves) of one unchecked run."""
    with contextlib.ExitStack() as stack:
        solves = stack.enter_context(
            mock.patch.object(solvers, "_dtrsv", wraps=solvers._dtrsv))
        if not blocks:
            stack.enter_context(mock.patch.object(solvers, "_takes_blocks", return_value=False))
        if name == "kaczmarz":
            out = solvers.kaczmarz(a, b, x0, cfg)
        else:
            oracle, prof = problem(a, b, beta=cfg.seed % 2 * 0.5)
            out = _SOLVERS[name](oracle, prof, x0, cfg)
    return (*out, solves.call_count)


def _compare(name, a, x0, iters, stride, seed, stop=None, problem=build_kaczmarz):
    b = np.random.default_rng(seed).standard_normal(a.m)

    def cfg():
        dist = None if stop is None else _stop_after(stop)
        return SolverConfig(iters=iters, seed=seed, trace_stride=stride, dist_fn=dist,
                            stop_when_dist_below=None if stop is None else 0.5)

    got, got_trace, solves = _run(name, a, b, x0, cfg(), True, problem)
    want, want_trace, ref_solves = _run(name, a, b, x0, cfg(), False, problem)
    assert ref_solves == 0
    assert solves > 0 or got_trace.iters[-1] == 0
    assert np.array_equal(got_trace.iters, want_trace.iters)
    rel = REL_STRONGLY_CONVEX if name in _STRONGLY_CONVEX else REL
    # the loop rounds at the size of the start as well as of the end
    assert _close(got, want, rel, scale=float(np.max(np.abs(x0))))
    assert _close(got_trace.values, want_trace.values, rel)
    assert np.array_equal(got_trace.dists, want_trace.dists, equal_nan=True)
    return got_trace


def _block_len(steps):
    """Blocks of the given length, in place of the one _Blocks derives."""
    init = solvers._Blocks.__init__

    def short_blocks(self, *args):
        init(self, *args)
        self.block_len = steps

    return mock.patch.object(solvers._Blocks, "__init__", short_blocks)


def _drawn_comparison(name, data, problem=build_kaczmarz, empty=False,
                      kinds=("dense", "scattered", "mixed")):
    """_compare on drawn rows, stride, length, early stop and block length."""
    kind = data.draw(st.sampled_from(kinds), label="rows")
    # m <= 4 puts repeated rows into most blocks
    m = data.draw(st.one_of(st.integers(1, 4), st.integers(5, 12)), label="m")
    d = data.draw(st.integers(1, 6) if kind == "dense" else st.integers(3, 12), label="d")
    dense = _rows(kind, m, d, data.draw(st.integers(0, 2 ** 16), label="rows seed"), empty)
    n = d if name == "kaczmarz" else m
    x0 = np.linspace(-0.5, 0.4, n) + 0.05
    min_stride = solvers._BLOCK_MIN if kind == "dense" else solvers._CSR_SEGMENT_MIN
    stride = data.draw(st.integers(min_stride, min_stride + 50), label="stride")
    iters = data.draw(st.one_of(st.just(0), st.integers(1, 8 * stride)), label="iters")
    stop = data.draw(st.one_of(st.none(), st.integers(1, 4)), label="stop after")
    # blocks shorter than a segment, so segments end mid-block
    cap = data.draw(st.integers(1, 40), label="block length")
    with _block_len(cap):
        trace = _compare(name, SparseRowMatrix.from_dense(dense), x0, iters, stride,
                         data.draw(st.integers(0, 99)), stop, problem)
    if stop is not None and iters >= stop * stride:
        assert trace.iters[-1] == stop * stride
    return trace


@pytest.mark.parametrize("name", [*_SOLVERS, "kaczmarz"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_block_steps_agree_with_single_steps(name, data):
    """Blocks of rows, never of the cached Gram: a budget of 0 bytes keeps
    dense linear systems on the row path."""
    with mock.patch.object(solvers, "_GRAM_BYTES", 0):
        _drawn_comparison(name, data)


def _gram_path():
    """Every linear system of rows of all d columns on the Gram path, at
    any block length the test sets: no row or block-length limit."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(solvers, "_GRAM_ROWS_PER_COLUMN", 2 ** 20))
    stack.enter_context(mock.patch.object(solvers, "_GRAM_BLOCK", 2 ** 20))
    return stack


@pytest.mark.parametrize("name", [*_SOLVERS, "kaczmarz"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_gram_block_steps_agree_with_single_steps(name, data):
    """The dense draws of test_block_steps_agree_with_single_steps on the
    Gram path: blocks read the cached A A^T and the gradient cache r, and
    the caches are rebuilt at records.  Same tolerances, same record
    iterations exactly; a spy sees each blocked run take the path."""
    made = []
    init = solvers._GramRows.__init__

    def spy(self, *args):
        made.append(True)
        init(self, *args)

    with _gram_path(), mock.patch.object(solvers._GramRows, "__init__", spy):
        trace = _drawn_comparison(name, data, kinds=("dense",))
    assert bool(made) == (trace.iters[-1] > 0)


# the penalty dual is not strongly convex: nu_acdm_ns and rcdm only
_ERM_CASES = [(name, variant) for variant in ("ridge", "lasso", "penalty")
              for name in _SOLVERS
              if variant != "penalty" or name not in _STRONGLY_CONVEX]


@pytest.mark.parametrize("name, variant", _ERM_CASES,
                         ids=[f"{name}-{variant}" for name, variant in _ERM_CASES])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_erm_block_steps_agree_with_single_steps(name, variant, data):
    """The ridge, smoothed-Lasso and penalty duals on the same rows, mixed
    rows with empty ones included.  The Lasso's lam runs from well below
    lam_max, where many columns are active and cross +-lam during a run,
    to above it, where none ever is.  The penalty's labels are scaled by 2
    to 8, so that y_i crosses +-1 in most runs, and in many within a block
    that steps on i again."""
    problem = _erm(variant, data.draw(st.floats(0.05, 1.5), label="lam / lam_max"),
                   data.draw(st.floats(1e-3, 1.0), label="lam2"),
                   data.draw(st.floats(2.0, 8.0), label="label scale"))
    _drawn_comparison(name, data, problem, empty=True)


@pytest.mark.parametrize("kind", ["dense", "scattered"])
@pytest.mark.parametrize("name", ["nu_acdm", "nu_acdm_ns", "rcdm"])
def test_lasso_blocks_restart_at_kink_crossings(name, kind):
    """A Lasso whose lam is a tenth of lam_max, started at y = 0 where every
    column of v is inside [-lam, lam]: columns cross lam during the run,
    so blocks restart (a spy counts the steps given back to the plan), and
    the run still agrees with single steps."""
    dense = _rows(kind, 40, 6, seed=11)
    a = SparseRowMatrix.from_dense(dense)
    give_back = solvers._StepPlan.give_back
    with mock.patch.object(solvers._StepPlan, "give_back", autospec=True,
                           side_effect=give_back) as spy:
        _compare(name, a, np.zeros(40), 4000, 80, seed=3, problem=_erm("lasso", 0.1, 0.05))
    assert spy.call_count > 0
    assert all(call.args[1] > 0 for call in spy.call_args_list)


@pytest.mark.parametrize("kind", ["dense", "scattered"])
@pytest.mark.parametrize("name", ["nu_acdm_ns", "rcdm"])
def test_penalty_blocks_restart_at_region_crossings(name, kind):
    """A penalty dual whose labels are standard normals times 3, started at
    y = 0, inside [-1, 1] everywhere: coordinates cross +-1 during the
    run, so blocks restart (a spy counts the steps given back to the plan),
    and the run still agrees with single steps to 1e-12."""
    dense = _rows(kind, 40, 6, seed=11)
    a = SparseRowMatrix.from_dense(dense)
    give_back = solvers._StepPlan.give_back
    with mock.patch.object(solvers._StepPlan, "give_back", autospec=True,
                           side_effect=give_back) as spy:
        _compare(name, a, np.zeros(40), 4000, 80, seed=3,
                 problem=_erm("penalty", 0.5, label_scale=3.0))
    assert spy.call_count > 0
    assert all(call.args[1] > 0 for call in spy.call_args_list)


def _scaled_l(problem, factor):
    """The problem with every L_i times factor, a profile that is not the
    row norms: plain-descent blocks must read L from the plan, not from
    the Gram's diagonal."""
    def scaled(a, b, beta):
        oracle, prof = problem(a, b, beta)
        return oracle, SmoothnessProfile(factor * prof.l, beta=prof.beta)
    return scaled


@pytest.mark.parametrize("path", ["rows", "gram"])
def test_plain_descent_blocks_read_the_profiles_l(path):
    """rcdm on the Kaczmarz quadratic of a 200 x 100 system with
    L_i = 3 ||a_i||^2, on the row path and on the Gram path (a spy sees
    which), agrees with single steps."""
    a, _b = _system(200, 100, seed=5)
    made = []
    init = solvers._GramRows.__init__

    def spy(self, *args):
        made.append(True)
        init(self, *args)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(solvers._GramRows, "__init__", spy))
        if path == "rows":
            stack.enter_context(mock.patch.object(solvers, "_GRAM_BYTES", 0))
        _compare("rcdm", a, np.linspace(-0.5, 0.4, 200), 2000, 150, seed=6,
                 problem=_scaled_l(build_kaczmarz, 3.0))
    assert bool(made) == (path == "gram")


@pytest.mark.parametrize("variant", ["ridge", "lasso"])
def test_plain_descent_blocks_read_the_profiles_l_on_scattered_rows(variant):
    """rcdm on the ridge and Lasso duals of scattered rows with doubled L,
    at a stride of 80: the Lasso's blocks restart at kink crossings (a spy
    counts the steps given back), and both agree with single steps."""
    a = SparseRowMatrix.from_dense(_rows("scattered", 40, 6, seed=11))
    give_back = solvers._StepPlan.give_back
    with mock.patch.object(solvers._StepPlan, "give_back", autospec=True,
                           side_effect=give_back) as spy:
        _compare("rcdm", a, np.zeros(40), 4000, 80, seed=3,
                 problem=_scaled_l(_erm(variant, 0.1, 0.05), 2.0))
    assert (spy.call_count > 0) == (variant == "lasso")


def test_penalty_dual_takes_blocks_unless_checked():
    """The penalty's conjugate loss is affine on each side of +-1, so the
    dual has a block model: on rows of all d columns an unchecked run takes
    blocks at a trace stride of _BLOCK_MIN steps or more, and a run checked
    at every step solves nothing."""
    a = SparseRowMatrix.from_dense(_rows("dense", 12, 4, seed=6))
    pen, prof = build_penalty_dual(a, np.linspace(-3.0, 3.0, 12), 0.1)
    take = solvers._takes_blocks
    assert take(pen, SolverConfig(iters=50, trace_stride=solvers._BLOCK_MIN))
    assert not take(pen, SolverConfig(iters=50, trace_stride=solvers._BLOCK_MIN - 1))
    for level, blocked in (("off", True), ("full", False)):
        cfg = SolverConfig(iters=600, seed=2, trace_stride=120, check_level=level)
        assert take(pen, cfg) is blocked
        with mock.patch.object(solvers, "_dtrsv", wraps=solvers._dtrsv) as solves:
            solvers.nu_acdm_ns(pen, prof, np.zeros(12), cfg)
        assert (solves.call_count > 0) is blocked


@pytest.mark.parametrize("rows", [[[3.0]], [[3.0, 0.0], [0.0, 3.0]]])
@pytest.mark.parametrize("name", ["nu_acdm", "acdm_baseline", "generalized_accel"])
def test_block_steps_fold_inside_a_run(name, rows):
    """Orthogonal rows of equal norm make tau large, so c falls below
    FOLD_BELOW many times in the run.  Blocks end before each fold: one
    block of 512 steps across a fold would take c to 0 on one row."""
    dense = np.array(rows)
    a = SparseRowMatrix.from_dense(dense)
    oracle, prof = build_kaczmarz(a, np.ones(a.m))
    p = solvers.nu_probabilities(prof)
    tau = solvers._StronglyConvex(prof, p, float(np.max(prof.l / (p * p)))).tau
    iters = 3000
    assert (1.0 - tau) ** (2 * iters) < solvers.FOLD_BELOW ** 3
    _compare(name, a, np.linspace(0.3, -0.2, a.m), iters, 997, seed=5)


@pytest.mark.parametrize("name", ["nu_acdm", "acdm_baseline", "generalized_accel"])
def test_gram_block_steps_fold_inside_a_run(name):
    """The 2 x 2 fold run on the Gram path, where a fold scales r's v row
    in place of v's cache."""
    with _gram_path():
        test_block_steps_fold_inside_a_run(name, [[3.0, 0.0], [0.0, 3.0]])


def test_nu_acdm_ns_blocks_fold_at_step_zero():
    """tau_0 = 1, so c is 0 after step 0's recombination and folds there."""
    dense = _rows("dense", 6, 4, seed=3)
    assert solvers.ns_schedule(0, 1.0)[1] == 1.0
    _compare("nu_acdm_ns", SparseRowMatrix.from_dense(dense), np.linspace(0.1, 0.6, 6),
             40, 16, seed=1)


@pytest.mark.parametrize("name", ["nu_acdm", "rcdm", "kaczmarz"])
def test_block_steps_on_rows_of_a_wide_matrix(name):
    """Scattered rows over 2^17 + 5 columns, whose entries fall on 9 columns
    spread over the whole range, so the rows of a block share columns."""
    a, spread = _wide_rows()
    n = a.d if name == "kaczmarz" else a.m
    x0 = np.zeros(n)
    x0[spread if name == "kaczmarz" else slice(None)] = 0.25
    _compare(name, a, x0, 600, solvers._CSR_SEGMENT_MIN + 36, seed=4)


def _wide_rows():
    """30 rows of 3 entries over 2^17 + 5 columns, on 9 columns spread over
    the range; returns (matrix, those 9 columns)."""
    rng = np.random.default_rng(8)
    d, m, per_row = 2 ** 17 + 5, 30, 3
    spread = np.linspace(0, d - 1, 9).astype(np.int64)
    local = np.concatenate([np.sort(rng.choice(9, per_row, replace=False)) for _ in range(m)])
    vals = rng.standard_normal(m * per_row) * np.repeat(rng.uniform(0.5, 2.0, m), per_row)
    return SparseRowMatrix(np.arange(m + 1) * per_row, spread[local], vals, (m, d)), spread


_PAIR_COLUMNS = {
    "narrow": lambda d: list(range(d)),
    # the largest matrices whose column ids sort as uint16
    "2^16": lambda d: [0, 1, 2 ** 15, 2 ** 16 - 2, 2 ** 16 - 1],
    # ids equal mod 2^16, which a uint16 sort would merge
    "wide": lambda d: [3, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 3, 2 ** 17 + 3, d - 1],
}
_PAIR_WIDTHS = {"narrow": None, "2^16": 2 ** 16, "wide": 2 ** 17 + 5}


def _pairs_by_brute_force(mat, idx):
    """The flat entries (step, column, value) of the block rows idx, in
    step order, and every pair (p, q) of entries of two block rows on one
    column with p the later row's, ordered by column, then p, then q."""
    entries = [(t, int(mat.indices[j]), mat.data[j]) for t, i in enumerate(idx)
               for j in range(mat.indptr[i], mat.indptr[i + 1])]
    pairs = sorted((entries[p][1], p, q) for p in range(len(entries))
                   for q in range(len(entries))
                   if entries[p][0] > entries[q][0] and entries[p][1] == entries[q][1])
    return entries, [(p, q) for _, p, q in pairs]


@pytest.mark.parametrize("width", list(_PAIR_COLUMNS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_column_pairs_match_a_brute_force_listing(width, data):
    """The column pairs, Gram triangle (weights 1.0, a scalar and one per
    entry) and moves of a window of one block (_ScatteredRows) equal, bit
    for bit, sums over the pairs listed by brute force and taken in that
    order: on narrow matrices, those of 2^16 columns and ones of 2^17 + 5,
    with empty rows, rows drawn more than once in a block and one-row
    blocks."""
    d = _PAIR_WIDTHS[width] or data.draw(st.integers(1, 6))
    pool = _PAIR_COLUMNS[width](d)
    m = data.draw(st.integers(1, 6))
    rows = [sorted(data.draw(st.sets(st.sampled_from(pool)))) for _ in range(m)]
    idx = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=10)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    lens = [len(r) for r in rows]
    mat = SparseRowMatrix(np.concatenate(([0], np.cumsum(lens))),
                          np.array([c for r in rows for c in r], dtype=np.int64),
                          rng.standard_normal(sum(lens)), (m, d))
    block = solvers._ScatteredWindow(mat, idx, [idx.size]).rows(
        0, None, None, np.zeros((1, d)), None)
    entries, pairs = _pairs_by_brute_force(mat, idx)
    step = np.array([e[0] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries])
    assert np.array_equal(block.cols, [e[1] for e in entries])
    later, earlier = block.later, block.earlier
    assert np.array_equal(later, [p for p, _ in pairs])
    assert np.array_equal(earlier, [q for _, q in pairs])

    size = idx.size
    weights = rng.uniform(0.5, 2.0, vals.size)
    steps = rng.standard_normal((size, size))
    for weight in (1.0, 0.75, weights):
        want = np.zeros((size, size))
        for p, q in pairs:
            prod = vals[p] * vals[q]
            want[step[p], step[q]] += prod if isinstance(weight, float) else prod * weight[p]
        if isinstance(weight, float) and weight != 1.0:
            want *= weight
        assert np.array_equal(block.gram(weight).view(np.int64), want.view(np.int64))
    assert np.array_equal(block.pair_t, step[later]) and np.array_equal(block.pair_s, step[earlier])
    want = np.zeros(vals.size)
    for p, q in pairs:
        want[p] += vals[q] * steps[step[p], step[q]]
    got = block.moves(steps[block.pair_t, block.pair_s])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_build_kaczmarz_on_a_wide_system():
    """With fewer rows than columns sigma comes from the m x m A A^T, which
    has the nonzero eigenvalues of the d x d A^T A: 30 rows over 2^17 + 5
    columns build without a d x d array, and on a small wide system sigma
    matches the dense A^T A value to 1e-12."""
    a, _ = _wide_rows()
    _, prof = build_kaczmarz(a, np.ones(a.m))
    assert prof.sigma_beta > 0.0
    dense = _rows("mixed", 5, 9, seed=12)
    small = SparseRowMatrix.from_dense(dense)
    for beta in (0.0, 0.5):
        _, prof = build_kaczmarz(small, np.ones(5), beta=beta)
        sigma0 = smallest_positive_eigenvalue(dense.T @ dense)
        l = np.sum(dense * dense, axis=1)
        want = min(sigma0 / float(np.max(l ** beta)), float(np.min(l ** (1.0 - beta))))
        assert abs(prof.sigma_beta - want) <= 1e-12 * want


def test_build_kaczmarz_on_a_tall_system_is_bitwise_the_dense_gram():
    """m >= d keeps sigma from the dense A^T A, computed as before."""
    dense = _rows("mixed", 12, 5, seed=13)
    _, prof = build_kaczmarz(SparseRowMatrix.from_dense(dense), np.ones(12))
    l = np.sum(dense * dense, axis=1)
    sigma0 = smallest_positive_eigenvalue(dense.T @ dense.copy())
    assert prof.sigma_beta == min(sigma0, float(np.min(l)))


@pytest.mark.parametrize("name", ["nu_acdm", "acdm_baseline", "rcdm"])
def test_block_steps_name_the_iteration_of_a_non_finite_gradient(name):
    """Rows 0 and 1 are one hyperplane pair with right-hand sides +-1.5e308:
    after a step on row 0 the gradient of row 1 overflows.  Rows 2 and 3
    live on other columns.  Both paths raise for the same iteration, and
    the message names the solver that was called."""
    dense = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, -0.5, 1.0]])
    a = SparseRowMatrix.from_dense(dense)
    b = np.array([1.5e308, -1.5e308, 1.0, 2.0])
    oracle, prof = build_kaczmarz(a, b)
    messages = []
    for level in ("off", "cheap"):
        cfg = SolverConfig(iters=500, seed=2, trace_stride=400, check_level=level)
        with pytest.raises(InvariantViolation, match="non-finite gradient") as err:
            _SOLVERS[name](oracle, prof, np.zeros(4), cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    label = {"nu_acdm": "nu-acdm", "acdm_baseline": "acdm", "rcdm": "rcdm"}[name]
    assert messages[0].startswith(f"{label}: ")


def test_short_strides_and_checked_runs_take_single_steps():
    """Block steps need check_level "off", a block_model and a stride of
    at least _BLOCK_MIN (dense rows) or _CSR_SEGMENT_MIN (scattered rows)."""
    dense = _rows("dense", 10, 4, seed=1)
    a = SparseRowMatrix.from_dense(dense)
    oracle, _prof = build_kaczmarz(a, np.ones(10))
    take = solvers._takes_blocks
    assert take(oracle, SolverConfig(iters=50, trace_stride=solvers._BLOCK_MIN))
    assert not take(oracle, SolverConfig(iters=50, trace_stride=solvers._BLOCK_MIN - 1))
    assert not take(oracle, SolverConfig(iters=50, trace_stride=1))
    assert not take(oracle, SolverConfig(iters=50, trace_stride=50, check_level="cheap"))
    ridge, _ = build_ridge_dual(a, np.ones(10), 0.1)
    assert take(ridge, SolverConfig(iters=50, trace_stride=solvers._BLOCK_MIN))
    assert not take(ridge, SolverConfig(iters=50, trace_stride=50, check_level="full"))
    scattered, _ = build_kaczmarz(SparseRowMatrix.from_dense(_rows("scattered", 10, 6, 2)),
                                  np.ones(10))
    assert not take(scattered, SolverConfig(iters=50, trace_stride=solvers._BLOCK_MIN))
    assert take(scattered, SolverConfig(iters=50, trace_stride=solvers._CSR_SEGMENT_MIN))


def test_checked_accelerated_run_with_a_tiny_tau_passes_its_descent_check():
    """acdm_baseline on a 12 x 12 Kaczmarz dual of skewed mixed rows has
    tau near 1e-5, so y = u + c v is formed from terms some 7 000 times
    larger than y, and f(y) rounds at their size: this valid run reads a
    violation of 2.2e-12 of |f| at iteration 7, above DESCENT_SLACK.  The
    slack scales with the terms, so the run completes."""
    a = SparseRowMatrix.from_dense(_rows("mixed", 12, 12, 5))
    b = np.random.default_rng(1).standard_normal(12)
    oracle, prof = build_kaczmarz(a, b, beta=0.5)
    cfg = SolverConfig(iters=8, seed=1, check_level="cheap")
    _y, trace = solvers.acdm_baseline(oracle, prof, np.linspace(-0.5, 0.4, 12) + 0.05, cfg)
    assert solvers.DESCENT_SLACK < trace.max_descent_violation < 1e3 * solvers.DESCENT_SLACK


def test_block_runs_build_no_per_step_lists():
    """A blocked run reads b as an array; the list of Python floats that
    single steps read is built on the oracle's first single step."""
    a = SparseRowMatrix.from_dense(_rows("dense", 30, 5, seed=4))
    oracle, prof = build_kaczmarz(a, np.ones(30))
    for stride, built in ((30, False), (1, True)):
        solvers.nu_acdm_ns(oracle, prof, np.zeros(30),
                           SolverConfig(iters=300, seed=1, trace_stride=stride))
        assert ("_b" in vars(oracle)) is built


def _system(m, d, seed=0):
    """(A, b) of a dense m x d system with skewed row norms."""
    a = SparseRowMatrix.from_dense(_rows("dense", m, d, seed))
    return a, np.random.default_rng(seed).standard_normal(m)


def test_gram_path_is_chosen_by_shape():
    """The Gram path takes a linear system of rows of all d columns whose
    Gram fits _GRAM_BYTES, with m at most _GRAM_ROWS_PER_COLUMN d, where
    the row path's blocks are shorter than _GRAM_BLOCK: 300 x 100 does,
    tall or thin systems, a system over the budget, scattered rows and
    the ERM duals do not.  build_kaczmarz forms no Gram; the first blocked
    run on the Gram path forms it, and later runs on the matrix share it."""
    def takes(oracle):
        blocks = solvers._Blocks(oracle, None, np.zeros(oracle.n), None,
                                 oracle.aggregate(np.zeros(oracle.n))[None, :], "test")
        return blocks.r is not None

    a, b = _system(300, 100)
    oracle, prof = build_kaczmarz(a, b)
    assert "row_gram" not in vars(a)
    assert takes(oracle)
    assert takes(KaczmarzResidual(a, b, np.zeros(100)))
    with mock.patch.object(solvers, "_GRAM_BYTES", 8 * 300 * 300 - 1):
        assert not takes(oracle)
    assert not takes(build_ridge_dual(a, b, 0.1)[0])
    for m, d in ((2000, 10), (500, 100), (20, 10)):
        assert not takes(build_kaczmarz(*_system(m, d))[0])
    scattered = SparseRowMatrix.from_dense(_rows("scattered", 300, 100, 1))
    assert not takes(build_kaczmarz(scattered, b)[0])

    cfg = SolverConfig(iters=600, seed=1, trace_stride=300)
    solvers.nu_acdm(oracle, prof, np.zeros(300), cfg)
    gram = vars(a)["row_gram"]
    dense = a.to_dense()
    assert _close(gram, dense @ dense.T.copy(), rel=1e-13)
    solvers.kaczmarz(a, b, np.zeros(100), cfg)
    assert vars(a)["row_gram"] is gram


@pytest.mark.parametrize("name", ["nu_acdm", "nu_acdm_ns", "rcdm", "kaczmarz"])
def test_gram_path_rebuilds_the_caches_at_every_record(name):
    """On the Gram path a block moves the gradient cache r = aggs A^T and
    leaves the caches as they stood at the segment's start; at the end of
    every segment, a trace record or the return, the caches are rebuilt
    from the points and r from the caches.  A spy on _rebuild sees one
    call per segment, and its work, and the row path makes no call."""
    a, b = _system(200, 100, seed=3)
    x0 = np.linspace(-0.5, 0.4, a.d if name == "kaczmarz" else a.m)
    cfg = SolverConfig(iters=1000, seed=2, trace_stride=150)
    rebuild = solvers._Blocks._rebuild
    calls = []

    def spy(self):
        if calls:
            # no block moved the caches since the last rebuild
            assert np.array_equal(self.aggs, calls[-1])
        rebuild(self)
        calls.append(self.aggs.copy())
        for agg, x in zip(self.aggs, (self.ux, self.vx)):
            want = self.at_zero + a.rmatvec(x)
            assert np.allclose(agg, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        assert np.array_equal(self.r, self.aggs @ self.dense.T)

    def run(path):
        calls.clear()
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(solvers._Blocks, "_rebuild", spy))
            if path == "row":
                stack.enter_context(mock.patch.object(solvers, "_GRAM_BYTES", 0))
            if name == "kaczmarz":
                return solvers.kaczmarz(a, b, x0, cfg)[1]
            oracle, prof = build_kaczmarz(a, b)
            return _SOLVERS[name](oracle, prof, x0, cfg)[1]

    trace = run("gram")
    assert list(trace.iters) == [0, 150, 300, 450, 600, 750, 900, 1000]
    assert len(calls) == len(trace.iters) - 1
    run("row")
    assert calls == []


@pytest.mark.parametrize("name", ["nu_acdm", "rcdm", "kaczmarz"])
def test_gram_path_leaves_r_alone_in_the_last_block_of_a_segment(name):
    """_rebuild replaces r at the end of every segment, so the last block
    of a segment moves the points but not r: spies count one r product
    (_GramRows.add) per block but the last of each segment.  A run whose r
    is filled with NaN before every rebuild gives the same rebuilt r and
    the same end point, bit for bit, so the product left out was dead."""
    a, b = _system(200, 100, seed=3)
    x0 = np.linspace(-0.5, 0.4, a.d if name == "kaczmarz" else a.m)
    cfg = SolverConfig(iters=1000, seed=2, trace_stride=150)
    init, add, rebuild = solvers._GramRows.__init__, solvers._GramRows.add, solvers._Blocks._rebuild

    def run(poison):
        seen = {"blocks": 0, "adds": 0, "rebuilt": []}

        def init_spy(self, *args):
            seen["blocks"] += 1
            init(self, *args)

        def add_spy(self, upd):
            seen["adds"] += 1
            add(self, upd)

        def rebuild_spy(self):
            if poison:
                self.r.fill(np.nan)
            rebuild(self)
            seen["rebuilt"].append(self.r.copy())

        with contextlib.ExitStack() as stack:
            for attr, spy in (("__init__", init_spy), ("add", add_spy)):
                stack.enter_context(mock.patch.object(solvers._GramRows, attr, spy))
            stack.enter_context(mock.patch.object(solvers._Blocks, "_rebuild", rebuild_spy))
            if name == "kaczmarz":
                x, trace = solvers.kaczmarz(a, b, x0, cfg)
            else:
                oracle, prof = build_kaczmarz(a, b)
                x, trace = _SOLVERS[name](oracle, prof, x0, cfg)
        return x, trace, seen

    x, trace, seen = run(poison=False)
    segments = len(seen["rebuilt"])
    assert segments == len(trace.iters) - 1 == 7
    # 150-step segments run as blocks of 80 and 70 steps, the last 100 as one
    assert seen["blocks"] == 2 * 6 + 1
    assert seen["adds"] == seen["blocks"] - segments
    x_poisoned, _, poisoned = run(poison=True)
    assert x_poisoned.tobytes() == x.tobytes()
    assert all(r.tobytes() == q.tobytes() for r, q in zip(seen["rebuilt"], poisoned["rebuilt"]))


@pytest.mark.parametrize("gram_bytes", [0, solvers._GRAM_BYTES], ids=["rows", "gram"])
def test_blocked_runs_leave_no_reference_cycles(gram_bytes):
    """With the cyclic collector off, a blocked run frees everything it
    made by reference counting: a later collection finds nothing.  A block
    view that referred to _Blocks, which holds it, would keep every run's
    arrays alive until the collector ran."""
    a, b = _system(300, 100)
    oracle, prof = build_kaczmarz(a, b)
    cfg = SolverConfig(iters=900, seed=1, trace_stride=300)
    runs = [lambda: solvers.nu_acdm(oracle, prof, np.zeros(300), cfg),
            lambda: solvers.rcdm(oracle, prof, np.zeros(300), cfg),
            lambda: solvers.kaczmarz(a, b, np.zeros(100), cfg)]
    with mock.patch.object(solvers, "_GRAM_BYTES", gram_bytes):
        for run in runs:
            run()  # the Gram and the lazy imports, made once
        gc.collect()
        gc.disable()
        try:
            for run in runs:
                run()
                assert gc.collect() == 0
        finally:
            gc.enable()
