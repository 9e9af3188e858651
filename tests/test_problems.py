import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nucd.data_io import gen_linear_system, gen_skewed_dataset, two_level_norms
from nucd.geometry import grad_check
from nucd.matrix import SparseRowMatrix
from nucd.problems import (
    PENALTY_LOSS,
    SQUARED_LOSS,
    ConvergenceError,
    ErmDual,
    KaczmarzQuadratic,
    _conjugate_grid_error,
    _strongly_convex_reference,
    build_kaczmarz,
    build_lasso_dual,
    build_penalty_dual,
    build_ridge_dual,
    build_separable_quadratic,
    duality_gap,
    global_smoothness,
    primal_from_dual,
    primal_objective,
    reference_minimum,
    ridge_primal_reference,
    smallest_positive_eigenvalue,
    smoothing_term,
)
from nucd import problems, solvers
from nucd.solvers import SolverConfig, nu_acdm

from reference import soft_threshold


def _skewed(n=12, d=5, r=0.25, seed=17):
    return gen_skewed_dataset(n, d, two_level_norms(n, r, hi=4.0, lo=1.0), seed=seed)


# --- scalar pieces ---


def test_soft_threshold():
    v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.allclose(soft_threshold(v, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])


def test_smallest_positive_eigenvalue_matches_dense_solver():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 5))
    gram = a.T @ a
    got = smallest_positive_eigenvalue(gram)
    eigs = np.linalg.eigvalsh(gram)
    want = float(np.min(eigs[eigs > 1e-10 * eigs[-1]]))
    assert abs(got - want) < 1e-8 * want
    # rank-deficient gram: zero eigenvalues must be skipped
    b = rng.standard_normal((3, 5))
    gram2 = b.T @ b
    got2 = smallest_positive_eigenvalue(gram2)
    eigs2 = np.linalg.eigvalsh(gram2)
    want2 = float(np.min(eigs2[eigs2 > 1e-10 * eigs2[-1]]))
    assert abs(got2 - want2) < 1e-8 * want2


def test_squared_loss_conjugate_values():
    # phi(t) = (t-l)^2/2, phi*(s) = s^2/2 + s*l
    assert SQUARED_LOSS.conj(2.0, 0.0) == 2.0
    assert SQUARED_LOSS.conj(1.0, 3.0) == 3.5
    assert SQUARED_LOSS.conj_deriv(1.0, 3.0) == 4.0
    assert _conjugate_grid_error(SQUARED_LOSS.phi, SQUARED_LOSS.conj, (-1.3, 0.0, 2.1)) < 1e-6


def test_penalty_loss_conjugate_values():
    # phi(t) = (t-l)^2/2 + |t-l|; conjugate is flat on |s| <= 1
    assert PENALTY_LOSS.conj(0.5, 0.0) == 0.0
    assert PENALTY_LOSS.conj(2.0, 0.0) == 0.5
    assert PENALTY_LOSS.conj(-3.0, 1.0) == -1.0
    assert PENALTY_LOSS.conj_deriv(0.5, 0.0) == 0.0
    assert PENALTY_LOSS.conj_deriv(2.0, 1.5) == 2.5
    assert _conjugate_grid_error(PENALTY_LOSS.phi, PENALTY_LOSS.conj, (-1.3, 0.0, 2.1)) < 1e-6


def test_fenchel_young_on_grid():
    for pair in (SQUARED_LOSS, PENALTY_LOSS):
        for l in (-0.7, 1.2):
            for t in np.linspace(-3, 3, 41):
                for s in np.linspace(-2.5, 2.5, 41):
                    assert pair.phi(t, l) + pair.conj(s, l) >= s * t - 1e-12


def test_grid_verifier_rejects_wrong_conjugate():
    from nucd.problems import ScalarConjugate

    bad = ScalarConjugate(
        SQUARED_LOSS.phi, lambda s, l: SQUARED_LOSS.conj(s, l) + 0.01, SQUARED_LOSS.conj_deriv
    )
    assert _conjugate_grid_error(bad.phi, bad.conj) > 1e-6


# --- quadratics ---


def test_separable_quadratic_gradients():
    oracle, prof = build_separable_quadratic(np.array([1.0, 4.0, 0.5]), np.array([1.0, 0.0, -2.0]))
    rng = np.random.default_rng(0)
    worst = max(
        grad_check(oracle, rng.standard_normal(3), i) for i in range(3) for _ in range(5)
    )
    assert worst < 1e-6
    assert prof.sigma_beta == 0.5
    _, prof_b = build_separable_quadratic(np.array([1.0, 4.0, 0.5]), beta=1.0)
    assert prof_b.sigma_beta == 1.0


def test_kaczmarz_oracle_against_dense_formulas():
    a, b, x_star = gen_linear_system(10, 4, 0.5, seed=5)
    oracle = KaczmarzQuadratic(a, b)
    dense = a.to_dense()
    rng = np.random.default_rng(1)
    y = rng.standard_normal(10)
    w = dense.T @ y
    assert abs(oracle.value(y) - (0.5 * w @ w - b @ y)) < 1e-12
    assert np.allclose(oracle.full_grad(y), dense @ w - b, atol=1e-12)
    for i in range(10):
        assert abs(oracle.coord_grad(y, i) - (dense[i] @ w - b[i])) < 1e-12
    assert np.allclose(oracle.aggregate(y), w, atol=1e-15)
    # the dual optimum recovers the primal solution of the consistent system
    y_opt = np.linalg.lstsq(dense @ dense.T, b, rcond=None)[0]
    assert np.allclose(oracle.aggregate(y_opt), x_star, atol=1e-8)


def test_kaczmarz_aggregate_coherence_long_run():
    a, b, _ = gen_linear_system(15, 6, 0.4, seed=9)
    oracle = KaczmarzQuadratic(a, b)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(15)
    agg = oracle.aggregate(y)
    for _ in range(2000):
        i = int(rng.integers(15))
        delta = float(rng.standard_normal())
        y[i] += delta
        oracle.update_aggregate(agg, i, delta)
    assert np.max(np.abs(agg - oracle.aggregate(y))) < 1e-9


def test_build_kaczmarz_profile():
    a, b, _ = gen_linear_system(30, 10, 0.2, seed=3)
    for beta in (0.0, 0.5, 1.0):
        oracle, prof = build_kaczmarz(a, b, beta=beta)
        assert np.array_equal(prof.l, a.row_norms_sq)
        dense = a.to_dense()
        sigma0 = smallest_positive_eigenvalue(dense.T @ dense)
        expect = min(
            sigma0 / float(np.max(prof.l**beta)),
            float(np.min(prof.l ** (1.0 - beta))),
        )
        assert abs(prof.sigma_beta - expect) < 1e-12 * expect
    with pytest.raises(ValueError):
        KaczmarzQuadratic(a, b[:5])


def test_build_kaczmarz_caps_modulus_on_wide_rowspace():
    # tiny system whose smallest positive Gram eigenvalue exceeds the
    # single-coordinate curvature; the profile cap must win
    dense = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    a = SparseRowMatrix.from_dense(dense)
    _, prof = build_kaczmarz(a, np.ones(3))
    assert prof.sigma_beta == float(np.min(a.row_norms_sq))


# --- regularized dual objectives ---


def test_erm_dual_smoothness_hand_value():
    # two examples with ||a_i||^2 = 2 and lam = 1: L_i = 1/2 + 2/4 = 1
    dense = np.array([[1.0, 1.0], [-1.0, 1.0]])
    _, prof = build_ridge_dual(
        SparseRowMatrix.from_dense(dense), np.array([1.0, -1.0]), lam=1.0
    )
    assert np.allclose(prof.l, [1.0, 1.0], atol=1e-15)
    assert prof.sigma_beta == 0.5  # the separable part contributes 1/n


@pytest.mark.parametrize("variant", ["ridge", "smoothed_lasso", "l1l2_penalty"])
def test_erm_dual_gradients(variant):
    data = _skewed()
    if variant == "ridge":
        oracle, _ = build_ridge_dual(data.features, data.labels, lam=0.1)
    elif variant == "smoothed_lasso":
        oracle, _ = build_lasso_dual(data.features, data.labels, lam=0.05, lam2=0.02)
    else:
        oracle, _ = build_penalty_dual(data.features, data.labels, lam=0.1)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        y = rng.standard_normal(data.n) * 2.0
        # keep clear of the conjugates' kinks so the numeric probe is valid
        y[np.abs(np.abs(y) - 1.0) < 1e-2] += 0.05
        i = int(rng.integers(data.n))
        worst = max(worst, grad_check(oracle, y, i))
        num = oracle.full_grad(y)
        assert abs(oracle.coord_grad(y, i) - num[i]) < 1e-12
    assert worst < 1e-6


def test_erm_aggregate_coherence():
    data = _skewed(n=20, d=6)
    oracle, _ = build_ridge_dual(data.features, data.labels, lam=0.3)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(20)
    agg = oracle.aggregate(y)
    for _ in range(1500):
        i = int(rng.integers(20))
        delta = float(rng.standard_normal())
        y[i] += delta
        oracle.update_aggregate(agg, i, delta)
    assert np.max(np.abs(agg - oracle.aggregate(y))) < 1e-9


def test_decoupled_dual_with_zero_features():
    """All-zero feature rows decouple the dual into n scalar problems with
    minimum -(1/2n) sum l_i^2 at y_i = -l_i."""
    n = 6
    labels = np.linspace(-2, 2, n)
    feats = SparseRowMatrix.from_dense(np.zeros((n, 3)))
    oracle, _ = build_ridge_dual(feats, labels, lam=1.0)
    assert abs(oracle.value(-labels) - (-(labels @ labels) / (2 * n))) < 1e-14
    ref = reference_minimum(oracle)
    assert np.allclose(ref.minimizer, -labels, atol=1e-8)
    assert abs(ref.value - (-(labels @ labels) / (2 * n))) < 1e-12


def test_ridge_reference_closed_form_vs_iterative():
    data = _skewed(n=15, d=4)
    oracle, _ = build_ridge_dual(data.features, data.labels, lam=0.2)
    ref = reference_minimum(oracle)  # closed form
    it = _strongly_convex_reference(oracle)
    assert abs(ref.value - it.value) < 1e-8 * max(1.0, abs(ref.value))
    assert np.allclose(ref.minimizer, it.minimizer, atol=1e-6)
    grad = oracle.full_grad(ref.minimizer)
    assert np.max(np.abs(grad)) < 1e-8


def test_weak_duality_all_variants():
    data = _skewed(n=10, d=4)
    builders = [
        lambda: build_ridge_dual(data.features, data.labels, lam=0.1),
        lambda: build_lasso_dual(data.features, data.labels, lam=0.05, lam2=0.01),
        lambda: build_penalty_dual(data.features, data.labels, lam=0.1),
    ]
    rng = np.random.default_rng(12)
    for make in builders:
        oracle, _ = make()
        for _ in range(25):
            y = rng.standard_normal(10) * 3.0
            assert duality_gap(oracle, y) >= -1e-10


def test_ridge_primal_dual_consistency():
    data = _skewed(n=18, d=5)
    lam = 0.15
    oracle, _ = build_ridge_dual(data.features, data.labels, lam=lam)
    ref = reference_minimum(oracle)
    p_star, w_star = ridge_primal_reference(oracle)
    # recovered primal at the dual optimum equals the closed-form solution
    w_rec = primal_from_dual(oracle, ref.minimizer)
    assert np.allclose(w_rec, w_star, atol=1e-8)
    assert abs(primal_objective(oracle, w_star) - p_star) < 1e-14
    # strong duality: P* = -D*, ridge has no smoothing correction
    assert abs(p_star + ref.value) < 1e-10
    assert smoothing_term(oracle, w_star) == 0.0
    # gap vanishes at the optimum, is positive elsewhere
    assert duality_gap(oracle, ref.minimizer) < 1e-10
    rng = np.random.default_rng(3)
    assert duality_gap(oracle, ref.minimizer + rng.standard_normal(18)) > 1e-6
    with pytest.raises(ValueError):
        ridge_primal_reference(build_penalty_dual(data.features, data.labels, lam=lam)[0])


def test_duality_gap_forms_the_aggregate_once(monkeypatch):
    data = _skewed(n=10, d=4)
    rng = np.random.default_rng(8)
    calls = []
    rmatvec = SparseRowMatrix.rmatvec
    monkeypatch.setattr(SparseRowMatrix, "rmatvec",
                        lambda self, v: calls.append(1) or rmatvec(self, v))
    for oracle, _ in (
        build_ridge_dual(data.features, data.labels, lam=0.1),
        build_lasso_dual(data.features, data.labels, lam=0.05, lam2=0.01),
        build_penalty_dual(data.features, data.labels, lam=0.1),
    ):
        y = rng.standard_normal(10)
        w = primal_from_dual(oracle, y)
        expect = primal_objective(oracle, w) + smoothing_term(oracle, w) + oracle.value(y)
        calls.clear()
        assert duality_gap(oracle, y) == expect
        assert len(calls) == 1


def test_build_kaczmarz_sigma_bitwise_from_general_product():
    """sigma0 comes from the general matrix product of two dense copies, not
    from numpy's symmetric x.T @ x path, whose rounding differs."""
    a, b, _ = gen_linear_system(300, 100, 0.1, seed=4)
    _, prof = build_kaczmarz(a, b)
    sigma0 = smallest_positive_eigenvalue(a.to_dense().T @ a.to_dense())
    assert sigma0 < float(np.min(prof.l))  # the cap is not what is compared
    assert prof.sigma_beta == sigma0


def test_penalty_reference_is_a_minimum():
    data = _skewed(n=10, d=3, seed=23)
    oracle, _ = build_penalty_dual(data.features, data.labels, lam=0.2)
    ref = reference_minimum(oracle)
    rng = np.random.default_rng(5)
    for _ in range(40):
        y = ref.minimizer + rng.standard_normal(10) * 0.1
        assert oracle.value(y) >= ref.value - 1e-10


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_penalty_reference_is_stationary_on_generated_duals(data):
    """Wide (n < d) and tall (n >> d) duals, lam over three decades and
    labels scaled up to 10x: the reference is certified by its first-order
    residual and closes the duality gap.  With n > d no w fits every label,
    and an example that keeps a residual has |y*_i| > 1, where the
    penalty's conjugate is quadratic."""
    n = data.draw(st.integers(2, 60), label="n")
    wide = data.draw(st.booleans(), label="wide")
    d = data.draw(st.integers(n + 1, 2 * n + 20) if wide
                  else st.integers(1, max(1, n // 5)), label="d")
    lam = 10.0 ** data.draw(st.floats(-3.0, 0.0), label="log10 lam")
    scale = 10.0 ** data.draw(st.floats(0.0, 1.0), label="log10 label scale")
    r = data.draw(st.floats(0.1, 0.9), label="r")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    ds = gen_skewed_dataset(n, d, two_level_norms(n, r, hi=10.0), seed=seed)
    oracle, _ = build_penalty_dual(ds.features, ds.labels * scale, lam)
    ref = reference_minimum(oracle)
    assert np.max(np.abs(oracle.full_grad(ref.minimizer))) <= 1e-9
    assert duality_gap(oracle, ref.minimizer) <= 1e-9 * max(1.0, abs(ref.value))
    above = bool(np.max(np.abs(ref.minimizer)) > 1.0)
    event(f"some |y*_i| > 1: {above}")
    assert above or n <= d


def test_penalty_reference_raises_above_the_residual_bound(monkeypatch):
    """The polish alone, from y = 0, ends away from stationarity on this
    dual; the 1e-9 residual bound turns that into ConvergenceError."""
    data = _skewed(n=10, d=3, seed=23)
    oracle, _ = build_penalty_dual(data.features, data.labels, lam=0.2)
    monkeypatch.setattr(problems, "_newton_start", lambda problem, q: np.zeros(problem.n))
    with pytest.raises(ConvergenceError,
                       match=r"first-order residual 2\.130e-02 after pattern polish"):
        reference_minimum(oracle)


def test_penalty_reference_refines_a_pattern_with_a_flat_direction():
    """A 30 x 8 dual at lam = 0.1, the instance of the beta-sweep workload
    at seed 2992, pass 33.  The Newton start ends with 9 coordinates inside
    [-1, 1] while Q has rank 8, so D is linear along a null direction of
    that pattern's system and the polish alone stops at a residual of
    1.28e-8, above the bound.  The exact line search along -grad D crosses
    into the minimizer's pattern, where the polish certifies the point."""
    ds = gen_skewed_dataset(30, 8, two_level_norms(30, 0.3), seed=4230828921)
    oracle, _ = build_penalty_dual(ds.features, ds.labels, 0.1)
    dense = ds.features.to_dense()
    q = dense @ dense.T / (0.1 * 30 * 30)
    start = problems._newton_start(oracle, q)
    assert np.sum(np.abs(start) <= 1.0) == 9
    polished, _ = problems._pattern_polish(oracle, q, start)
    assert 1.2e-8 < np.max(np.abs(oracle.full_grad(polished))) < 1.3e-8
    ref = reference_minimum(oracle)
    assert np.max(np.abs(oracle.full_grad(ref.minimizer))) <= 1e-9
    assert np.sum(np.abs(ref.minimizer) <= 1.0) <= 8
    assert duality_gap(oracle, ref.minimizer) <= 1e-9 * max(1.0, abs(ref.value))
    assert ref.value < oracle.value(polished)
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = ref.minimizer + rng.standard_normal(30) * 1e-4
        assert oracle.value(y) >= ref.value


def test_line_minimum_is_the_minimum_along_its_line():
    """On random penalty duals and directions, D at the line search's point
    is no larger than at any of 200 points along the line, kinks among
    them."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, d = int(rng.integers(3, 20)), int(rng.integers(1, 6))
        ds = gen_skewed_dataset(n, d, two_level_norms(n, 0.3), seed=int(rng.integers(2**16)))
        oracle, _ = build_penalty_dual(ds.features, ds.labels * 5.0, 0.05)
        dense = ds.features.to_dense()
        q = dense @ dense.T / (0.05 * n * n)
        y = rng.standard_normal(n) * 2.0
        direction = -oracle.full_grad(y)
        best = problems._line_minimum(oracle, q, y, direction)
        t = np.linalg.norm(best - y) / np.linalg.norm(direction)
        value = oracle.value(best)
        for s in np.linspace(0.0, 3.0 * t + 1.0, 200):
            probe = oracle.value(y + s * direction)
            assert value <= probe + 1e-12 * max(1.0, abs(probe))


def test_penalty_reference_bound_is_relative_to_the_gradients_terms():
    """A 126 x 12 dual with rows at norms 89 and 1, lam = 3.8e-4 and labels
    scaled by 1/80: Q's entries reach about 1e3, so full_grad rounds at
    about 1e-4 times the unit roundoff of its terms, and the polished point
    reads a residual of 1.1e-8.  An absolute bound of 1e-9 refused it; the
    bound 1e-9 max(1, max_i(|l_i|/n + (|Q| |y|)_i)), some 1e-5 here,
    certifies it, and the point is a minimum against nearby points."""
    ds = gen_skewed_dataset(126, 12, two_level_norms(126, 0.2, hi=89.0, lo=1.0), seed=5895)
    oracle, _ = build_penalty_dual(ds.features, ds.labels * 0.0125, 3.8e-4)
    ref = reference_minimum(oracle)
    dense = ds.features.to_dense()
    q = dense @ dense.T / (oracle.lam * 126 * 126)
    terms = float(np.max(np.abs(oracle.labels) / 126 + np.abs(q) @ np.abs(ref.minimizer)))
    residual = float(np.max(np.abs(oracle.full_grad(ref.minimizer))))
    assert 1e-9 < residual <= 1e-9 * terms
    assert ref.uncertainty == residual
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = ref.minimizer + rng.standard_normal(126) * 1e-4
        assert oracle.value(y) >= ref.value


def test_lasso_dual_runs_and_recovers_sparse_primal():
    data = _skewed(n=25, d=6, seed=29)
    lam = 0.4  # large enough to zero some coordinates
    oracle, _ = build_lasso_dual(data.features, data.labels, lam=lam, lam2=0.05)
    ref = reference_minimum(oracle)
    w = primal_from_dual(oracle, ref.minimizer)
    v = oracle.aggregate(ref.minimizer)
    # primal support matches the soft threshold of the dual aggregate
    assert np.allclose(w, soft_threshold(-v, lam) / 0.05, atol=1e-8)
    assert duality_gap(oracle, ref.minimizer) < 1e-8


def test_lasso_reference_is_one_blocked_run_recorded_every_50n_steps(monkeypatch):
    """On a 100 x 20 Lasso the reference is one nu_acdm run in block steps
    with one record per 50 n steps, at the value that a run of 50 n-step
    chunks recording every step gave, -0.18035869546016961."""
    ds = gen_skewed_dataset(100, 20, two_level_norms(100, 0.3), seed=6)
    oracle, _ = build_lasso_dual(ds.features, ds.labels, lam=0.1, lam2=0.01)
    blocks, records = [], []
    run, record = solvers._Blocks.run, solvers._Recorder.record
    monkeypatch.setattr(solvers._Blocks, "run",
                        lambda self, *a: blocks.append(a) or run(self, *a))
    monkeypatch.setattr(solvers._Recorder, "record",
                        lambda self, k, *a: records.append(k) or record(self, k, *a))
    ref = reference_minimum(oracle)
    chunked = -0.18035869546016961
    assert abs(ref.value - chunked) <= 1e-12 * abs(chunked)
    assert np.max(np.abs(oracle.full_grad(ref.minimizer))) <= 1e-10
    assert blocks
    assert len(records) > 1
    assert records == list(range(0, records[-1] + 1, 50 * oracle.n))


def test_lasso_reference_raises_when_the_value_keeps_moving():
    data = _skewed(n=25, d=6, seed=29)
    oracle, _ = build_lasso_dual(data.features, data.labels, lam=0.4, lam2=0.05)
    with pytest.raises(ConvergenceError, match="after 50 epochs"):
        _strongly_convex_reference(oracle, max_epochs=50)


def test_global_smoothness_values():
    quad, _ = build_separable_quadratic(np.array([1.0, 7.0, 3.0]))
    assert global_smoothness(quad) == 7.0
    a, b, _ = gen_linear_system(12, 5, 0.5, seed=7)
    kz = KaczmarzQuadratic(a, b)
    dense = a.to_dense()
    assert abs(global_smoothness(kz) - np.linalg.eigvalsh(dense.T @ dense)[-1]) < 1e-10
    data = _skewed(n=9, d=4)
    ridge, _ = build_ridge_dual(data.features, data.labels, lam=0.2)
    x = data.features.to_dense()
    want = 1.0 / 9 + np.linalg.eigvalsh(x @ x.T)[-1] / (0.2 * 81)
    assert abs(global_smoothness(ridge) - want) < 1e-10
    # the global constant dominates every coordinate constant
    l = 1.0 / 9 + data.features.row_norms_sq / (0.2 * 81)
    assert global_smoothness(ridge) >= np.max(l) - 1e-12


def test_erm_dual_validation():
    data = _skewed(n=6, d=3)
    with pytest.raises(ValueError):
        ErmDual(data.features, data.labels, lam=-1.0)
    with pytest.raises(ValueError):
        ErmDual(data.features, data.labels[:4], lam=0.1)
    with pytest.raises(ValueError):
        ErmDual(data.features, data.labels, lam=0.1, variant="elastic")
    with pytest.raises(ValueError):
        build_lasso_dual(data.features, data.labels, lam=0.1, lam2=0.0)


@pytest.mark.parametrize("kind", ["kaczmarz", "ridge"])
def test_global_smoothness_on_wide_rows_solves_the_small_gram(monkeypatch, kind):
    """With fewer rows than columns the constant comes from the m x m
    A A^T, which has the nonzero eigenvalues of A^T A: no d x d array."""
    m, d = 12, 3000
    rng = np.random.default_rng(41)
    a = SparseRowMatrix.from_dense(rng.standard_normal((m, d)))
    if kind == "kaczmarz":
        problem = KaczmarzQuadratic(a, rng.standard_normal(m))
    else:
        problem, _ = build_ridge_dual(a, rng.standard_normal(m), lam=0.2)
    x = a.to_dense()
    want = np.linalg.eigvalsh(x @ x.T)[-1]
    if kind == "ridge":
        want = 1.0 / m + want / (0.2 * m * m)
    sizes = []
    real = np.linalg.eigvalsh

    def spy(arr, *args, **kwargs):
        sizes.append(arr.shape)
        assert arr.shape == (m, m)
        return real(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = global_smoothness(problem)
    assert sizes == [(m, m)]
    assert abs(got - want) <= 1e-12 * want
