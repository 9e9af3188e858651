"""Differential tests for the block steps of the coordinate loop.

On an oracle with a block_model (the Kaczmarz quadratic, the residual form
that solvers.kaczmarz steps, and the ridge and smoothed-Lasso duals) an
unchecked run takes its steps in blocks, one triangular solve per block
(solvers._Blocks).  That regroups the per-step loop's arithmetic, so a
blocked run must agree with the per-step loop to rounding: within REL of
the largest entry of the start and the returned point, and of the trace
values, with the same record iterations exactly.  The per-step reference
is the same run with block steps switched off; a checked run steps the
same way, but its descent check may trip on the skewed rows drawn here.
A Lasso block whose entries cross +-lam restarts at the crossing, which
must leave the same agreement.

REL is 1e-12, except for the strongly convex accelerated runs.  Their z
moves about 1/tau times as far as y per step, and y = u + c v is formed
from terms of z's size, so the per-step loop itself rounds at z's scale:
on the skewed draws here (tau near 1e-5) a change of one ulp in x0 moves
its nu_acdm point by up to 1.4e-12 of its largest entry, and the blocked
run differed from it by up to 4.3e-12.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import solvers
from nucd.matrix import SparseRowMatrix
from nucd.problems import (build_kaczmarz, build_lasso_dual, build_penalty_dual,
                           build_ridge_dual, smallest_positive_eigenvalue)
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


def _erm(variant, lam_frac, lam2=None):
    """A problem builder (A, labels, beta) for the ridge or smoothed-Lasso
    dual with lam = lam_frac * lam_max, lam_max = ||A^T labels||_inf / m
    (the smallest lam at which the Lasso's answer is w = 0)."""
    def problem(a, labels, beta):
        lam_max = float(np.max(np.abs(a.rmatvec(labels)))) / a.m
        lam = lam_frac * lam_max if lam_max > 0.0 else lam_frac
        if variant == "ridge":
            return build_ridge_dual(a, labels, lam, beta=beta)
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


def _drawn_comparison(name, data, problem=build_kaczmarz, empty=False):
    """_compare on drawn rows, stride, length, early stop and block length."""
    kind = data.draw(st.sampled_from(["dense", "scattered", "mixed"]), label="rows")
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


@pytest.mark.parametrize("name", [*_SOLVERS, "kaczmarz"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_block_steps_agree_with_single_steps(name, data):
    _drawn_comparison(name, data)


@pytest.mark.parametrize("variant", ["ridge", "lasso"])
@pytest.mark.parametrize("name", list(_SOLVERS))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_erm_block_steps_agree_with_single_steps(variant, name, data):
    """The ridge and smoothed-Lasso duals on the same rows, mixed rows with
    empty ones included.  The Lasso's lam runs from well below lam_max,
    where many columns are active and cross +-lam during a run, to above
    it, where none ever is."""
    problem = _erm(variant, data.draw(st.floats(0.05, 1.5), label="lam / lam_max"),
                   data.draw(st.floats(1e-3, 1.0), label="lam2"))
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


def test_penalty_dual_takes_single_steps():
    """The penalty dual's conjugate loss is not affine in y_i: it has no
    block model, and an unchecked run at a long stride solves nothing."""
    a = SparseRowMatrix.from_dense(_rows("dense", 12, 4, seed=6))
    pen, prof = build_penalty_dual(a, np.linspace(-1.0, 1.0, 12), 0.1)
    cfg = SolverConfig(iters=600, seed=2, trace_stride=120)
    assert pen.block_model is None
    assert not solvers._takes_blocks(pen, cfg)
    with mock.patch.object(solvers, "_dtrsv", wraps=solvers._dtrsv) as solves:
        solvers.nu_acdm_ns(pen, prof, np.zeros(12), cfg)
    assert solves.call_count == 0


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


@pytest.mark.parametrize("name", ["nu_acdm", "rcdm"])
def test_block_steps_name_the_iteration_of_a_non_finite_gradient(name):
    """Rows 0 and 1 are one hyperplane pair with right-hand sides +-1.5e308:
    after a step on row 0 the gradient of row 1 overflows.  Rows 2 and 3
    live on other columns.  Both paths raise for the same iteration."""
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
