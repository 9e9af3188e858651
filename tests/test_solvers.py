import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import solvers
from nucd.geometry import SmoothnessProfile, s_alpha
from nucd.matrix import SparseRowMatrix
from nucd.problems import (
    build_kaczmarz,
    build_lasso_dual,
    build_penalty_dual,
    build_separable_quadratic,
)
from nucd.sampling import WeightedSampler
from nucd.solvers import (
    InvariantViolation,
    SolverConfig,
    accel_schedule,
    acdm_baseline,
    acdm_probabilities,
    full_gd,
    generalized_accel,
    kaczmarz,
    ns_schedule,
    nu_acdm,
    nu_acdm_ns,
    nu_probabilities,
    rcdm,
    rcdm_probabilities,
)
from nucd.data_io import gen_linear_system, gen_skewed_dataset, two_level_norms


# --- schedules and distributions ---


@settings(deadline=None, max_examples=200)
@given(
    st.floats(min_value=1e-6, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1.0),
)
def test_accel_schedule_coupling_identity(rate, ratio):
    # valid profiles always have sigma_beta <= S_alpha^2, so tau <= 0.62
    # and the identity holds without cancellation
    sigma = ratio * rate
    tau, eta = accel_schedule(rate, sigma)
    assert 0.0 < tau < 1.0
    lhs = (1.0 + eta * sigma) * (1.0 - tau)
    assert abs(lhs - 1.0) < 1e-12


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=1e-6, max_value=1e9))
def test_ns_schedule_recurrence(k, s_sq):
    eta1, tau = ns_schedule(k, s_sq)
    eta0 = (k + 1.0) / (2.0 * s_sq)
    assert tau == 2.0 / (k + 2.0)
    lhs = eta0 * eta0 * s_sq
    rhs = eta1 * eta1 * s_sq - eta1 + 1.0 / (4.0 * s_sq)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=1e-6, max_value=1e9))
def test_growing_step_is_ns_schedule_bit_for_bit(k, s_sq):
    _, prof = build_separable_quadratic(np.array([1.0, 4.0]))
    p = nu_probabilities(prof)
    idx = np.array([1, 0, 1])
    rho, etas, z_steps = solvers._Growing(prof, p, s_sq).steps(k, idx)
    for t, i in enumerate(idx):
        eta, tau = ns_schedule(k + t, s_sq)
        assert (rho[t], etas[t]) == (1.0 - tau, eta)
        assert z_steps[t] == eta * (1.0 / (p[i] * prof.l[i] ** prof.beta))


def test_schedule_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        accel_schedule(0.0, 1.0)
    with pytest.raises(ValueError):
        accel_schedule(4.0, 0.0)
    with pytest.raises(ValueError):
        ns_schedule(0, 0.0)


def test_sampling_distributions_hand_values():
    _, prof = build_separable_quadratic(np.array([1.0, 4.0]))
    assert np.allclose(nu_probabilities(prof), [1 / 3, 2 / 3], atol=1e-15)
    assert np.allclose(rcdm_probabilities(prof), [0.2, 0.8], atol=1e-15)
    # mean L = 2.5, so weights are (2.5, 4)
    assert np.allclose(acdm_probabilities(prof), [2.5 / 6.5, 4.0 / 6.5], atol=1e-15)
    _, prof1 = build_separable_quadratic(np.array([1.0, 4.0]), beta=1.0)
    assert np.allclose(nu_probabilities(prof1), [0.5, 0.5], atol=1e-15)
    assert np.allclose(rcdm_probabilities(prof1), [0.5, 0.5], atol=1e-15)


# --- transcript-level agreement with the written update rules ---


def _indices(p, seed, count):
    # solvers consume the sampler in blocks of 4096; one block covers these runs
    return WeightedSampler(p, seed).sample_block(4096)[:count]


def test_strongly_convex_loop_matches_hand_transcript():
    """25 iterations on a 2-d quadratic, replayed literally from the update
    formulas with the solver's own index stream."""
    l = np.array([1.0, 4.0])
    target = np.array([2.0, -1.0])
    oracle, prof = build_separable_quadratic(l, target)
    x0 = np.array([10.0, -3.0])
    iters, seed = 25, 123
    cfg = SolverConfig(iters=iters, seed=seed, trace_stride=1)
    out, trace = nu_acdm(oracle, prof, x0, cfg)

    p = np.array([1 / 3, 2 / 3])
    s_sq = 9.0
    tau, eta = accel_schedule(s_sq, prof.sigma_beta)
    shrink = 1.0 / (1.0 + eta * prof.sigma_beta)
    idx = _indices(p, seed, iters)
    x, y, z = x0.copy(), x0.copy(), x0.copy()
    values = [oracle.value(y)]
    for k in range(iters):
        x = tau * z + (1.0 - tau) * y
        i = int(idx[k])
        g = l[i] * (x[i] - target[i])
        y = x.copy()
        y[i] -= g / l[i]
        z = shrink * z + shrink * eta * prof.sigma_beta * x
        z[i] -= shrink * (eta / p[i]) * g
        values.append(oracle.value(y))

    assert np.allclose(out, y, rtol=1e-12, atol=1e-12)
    assert np.array_equal(trace.iters, np.arange(iters + 1))
    assert np.allclose(trace.values, values, rtol=1e-12, atol=1e-12)


def test_ns_loop_matches_hand_transcript():
    l = np.array([1.0, 4.0])
    target = np.array([-1.0, 0.5])
    oracle, prof = build_separable_quadratic(l, target)
    x0 = np.array([3.0, 3.0])
    iters, seed = 30, 7
    out, trace = nu_acdm_ns(oracle, prof, x0, SolverConfig(iters=iters, seed=seed))

    p = np.array([1 / 3, 2 / 3])
    s_sq = 9.0
    idx = _indices(p, seed, iters)
    y, z = x0.copy(), x0.copy()
    for k in range(iters):
        eta = (k + 2.0) / (2.0 * s_sq)
        tau = 2.0 / (k + 2.0)
        x = tau * z + (1.0 - tau) * y
        i = int(idx[k])
        g = l[i] * (x[i] - target[i])
        y = x.copy()
        y[i] -= g / l[i]
        z[i] -= (eta / p[i]) * g
    assert np.allclose(out, y, rtol=1e-12, atol=1e-12)
    assert trace.algo == "nu-acdm-ns"


def test_generalized_loop_at_acdm_distribution_matches_hand_transcript():
    """generalized_accel under the acdm distribution, which is not the nu
    distribution, at the acdm rate constant n * sum L^(1-beta); on this
    skewed profile that constant is the binding one."""
    l = np.array([100.0, 1.0, 1.0, 1.0])
    target = np.array([0.5, -2.0, 1.0, 3.0])
    oracle, prof = build_separable_quadratic(l, target, beta=0.5)
    x0 = np.array([4.0, 1.0, -3.0, 0.0])
    iters, seed = 30, 17
    p = acdm_probabilities(prof)
    rate = prof.n * s_alpha(prof, 1.0 - prof.beta)
    cfg = SolverConfig(iters=iters, seed=seed)
    out, trace = generalized_accel(oracle, prof, x0, cfg, p, rate_constant=rate)

    sigma = prof.sigma_beta
    tau, eta = accel_schedule(rate, sigma)
    shrink = 1.0 / (1.0 + eta * sigma)
    idx = _indices(p, seed, iters)
    x, y, z = x0.copy(), x0.copy(), x0.copy()
    values = [oracle.value(y)]
    for k in range(iters):
        x = tau * z + (1.0 - tau) * y
        i = int(idx[k])
        g = l[i] * (x[i] - target[i])
        y = x.copy()
        y[i] -= g / l[i]
        z = shrink * z + shrink * eta * sigma * x
        z[i] -= shrink * eta / (p[i] * l[i] ** prof.beta) * g
        values.append(oracle.value(y))

    assert np.allclose(out, y, rtol=1e-12, atol=1e-12)
    assert np.allclose(trace.values, values, rtol=1e-12, atol=1e-12)


def test_rcdm_matches_hand_transcript():
    l = np.array([1.0, 4.0, 0.25])
    target = np.array([2.0, -1.0, 3.0])
    oracle, prof = build_separable_quadratic(l, target, beta=0.5)
    x0 = np.array([-1.0, 5.0, 0.0])
    iters, seed = 40, 21
    out, trace = rcdm(oracle, prof, x0, SolverConfig(iters=iters, seed=seed))

    idx = _indices(rcdm_probabilities(prof), seed, iters)
    x = x0.copy()
    values = [oracle.value(x)]
    for k in range(iters):
        i = int(idx[k])
        x[i] -= l[i] * (x[i] - target[i]) / l[i]
        values.append(oracle.value(x))
    assert np.allclose(out, x, rtol=1e-12, atol=1e-12)
    assert np.allclose(trace.values, values, rtol=1e-12, atol=1e-12)
    assert trace.algo == "rcdm"


def _scattered_system():
    """A 9x12 system whose rows hold 2 to 5 scattered columns."""
    rng = np.random.default_rng(8)
    dense = np.zeros((9, 12))
    for i in range(9):
        cols = rng.choice(12, size=2 + i % 4, replace=False)
        dense[i, cols] = rng.standard_normal(cols.size) * (4.0 if i % 3 == 0 else 1.0)
    a = SparseRowMatrix.from_dense(dense)
    assert any(np.any(np.diff(a.row(i)[0]) > 1) for i in range(a.m))
    return a, rng.standard_normal(9)


@pytest.mark.parametrize("case", ["dense", "scattered", "nonzero-x0"])
def test_kaczmarz_matches_hand_transcript(case):
    if case == "scattered":
        a, b = _scattered_system()
    else:
        a, b, _x_star = gen_linear_system(6, 3, 0.5, seed=2)
    x0 = np.linspace(-1.0, 2.0, a.d) if case == "nonzero-x0" else np.zeros(a.d)
    iters, seed = 40, 4
    out, trace = kaczmarz(a, b, x0, SolverConfig(iters=iters, seed=seed))

    dense = a.to_dense()
    norms_sq = a.row_norms_sq
    idx = _indices(norms_sq, seed, iters)
    x = x0.copy()
    for k in range(iters):
        i = int(idx[k])
        x += (b[i] - dense[i] @ x) / norms_sq[i] * dense[i]
    assert np.allclose(out, x, rtol=1e-12, atol=1e-12)
    r = dense @ out - b
    assert abs(trace.values[-1] - r @ r) < 1e-12


def test_kaczmarz_hooks_see_the_primal_point():
    a, b, _ = gen_linear_system(20, 6, 0.5, seed=3)
    x0 = np.linspace(-1.0, 2.0, 6)
    dists, records = [], []

    def dist_fn(x, agg, value):
        dists.append((x.copy(), agg, value))
        return float(np.dot(x, x))

    cfg = SolverConfig(
        iters=100, seed=5, trace_stride=20, dist_fn=dist_fn,
        on_record=lambda k, x, agg, value: records.append((k, x.copy(), agg, value)),
    )
    out, trace = kaczmarz(a, b, x0, cfg)
    assert [k for k, *_ in records] == trace.iters.tolist() == [0, 20, 40, 60, 80, 100]
    assert np.array_equal(records[0][1], x0) and np.array_equal(records[-1][1], out)
    for (x, agg, value), (_k, x_rec, agg_rec, value_rec), dist in zip(
            dists, records, trace.dists):
        assert agg is None and agg_rec is None
        assert np.array_equal(x, x_rec) and value == value_rec
        # all rows hold all 6 columns: the residual is one dense product,
        # and it agrees with the CSR product to rounding
        r = a.dense @ x - b
        assert value == float(np.dot(r, r))
        r_csr = a.matvec(x) - b
        assert abs(value - float(np.dot(r_csr, r_csr))) <= 1e-12 * value
        assert dist == float(np.dot(x, x))


def test_kaczmarz_value_on_scattered_rows_is_the_csr_residual():
    """Rows of a few columns have no dense matrix: the recorded residual is
    the CSR product's, bit for bit."""
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((15, 8))
    arr[rng.random((15, 8)) < 0.5] = 0.0
    arr[~arr.any(axis=1), 0] = 1.0
    a = SparseRowMatrix.from_dense(arr)
    assert a.dense is None
    b = rng.standard_normal(15)
    records = []
    cfg = SolverConfig(iters=300, seed=2, trace_stride=64,
                       on_record=lambda k, x, agg, value: records.append((x.copy(), value)))
    kaczmarz(a, b, np.linspace(-1.0, 1.0, 8), cfg)
    assert len(records) == 6
    for x, value in records:
        r = a.matvec(x) - b
        assert value == float(np.dot(r, r))


def test_kaczmarz_draws_the_row_norm_stream(monkeypatch):
    """The rows come from WeightedSampler(row_norms_sq, seed), across the
    loop's 4096-index blocks; the replayed projections give the run's point."""
    drawn = []

    class Spy(WeightedSampler):
        def __init__(self, weights, seed):
            super().__init__(weights, seed)
            drawn.append(np.array(weights))

        def sample_block(self, size):
            block = super().sample_block(size)
            drawn.append(block)
            return block

    monkeypatch.setattr(solvers, "WeightedSampler", Spy)
    a, b = _scattered_system()
    iters, seed = 5000, 17
    out, _ = kaczmarz(a, b, np.zeros(a.d), SolverConfig(iters=iters, seed=seed,
                                                       trace_stride=1000))
    weights, *blocks = drawn
    assert np.array_equal(weights, a.row_norms_sq)
    idx = np.concatenate(blocks)[:iters]
    assert np.array_equal(idx, WeightedSampler(a.row_norms_sq, seed).sample_block(iters))
    dense, x = a.to_dense(), np.zeros(a.d)
    for i in idx.tolist():
        x += (b[i] - dense[i] @ x) / a.row_norms_sq[i] * dense[i]
    assert np.allclose(out, x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("iters, sizes", [(0, []), (600, [600]),
                                          (10_000, [4096, 4096, 1808])])
def test_index_draws_are_sized_to_the_run(monkeypatch, iters, sizes):
    """The loop draws exactly the indices the run takes, in blocks of at
    most 4096 that continue one stream: the indices of whole 4096-blocks."""
    blocks = []

    class Spy(WeightedSampler):
        def sample_block(self, size):
            block = super().sample_block(size)
            blocks.append(block)
            return block

    monkeypatch.setattr(solvers, "WeightedSampler", Spy)
    oracle, prof = build_separable_quadratic(np.linspace(1.0, 9.0, 30))
    cfg = SolverConfig(iters=iters, seed=4, trace_stride=300)
    rcdm(oracle, prof, np.ones(30), cfg)
    assert [block.size for block in blocks] == sizes
    whole = WeightedSampler(rcdm_probabilities(prof), 4)
    want = np.concatenate([whole.sample_block(4096) for _ in range(3)])[:iters]
    assert np.array_equal(np.concatenate([np.zeros(0, np.int64)] + blocks), want)


def test_kaczmarz_single_projection_lands_on_hyperplane():
    a, b, _ = gen_linear_system(5, 4, 1.0, seed=1)
    out, _tr = kaczmarz(a, b, np.zeros(4), SolverConfig(iters=1, seed=0))
    i = int(_indices(a.row_norms_sq, 0, 1)[0])
    assert abs(a.to_dense()[i] @ out - b[i]) < 1e-12


# --- literal rules on oracles with an aggregate ---


def _close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) <= tol * max(1.0, float(np.max(np.abs(want))))


def _literal_run(oracle, prof, x0, idx, schedule):
    """The written update rules, with every gradient read off the full
    gradient at x (its aggregate rebuilt from x).  schedule(k) gives
    (tau, z-map), where the z-map takes (z, x, i, g) to z_{k+1}.  Returns
    the y_k."""
    y, z = x0.copy(), x0.copy()
    ys = [y]
    for k, i in enumerate(int(j) for j in idx):
        tau, z_map = schedule(k)
        x = tau * z + (1.0 - tau) * y
        g = oracle.full_grad(x)[i]
        y = x.copy()
        y[i] -= g / prof.l[i]
        z = z_map(z, x, i, g)
        ys.append(y)
    return ys


def _sc_rules(prof, p, rate):
    tau, eta = accel_schedule(rate, prof.sigma_beta)
    sigma = prof.sigma_beta
    shrink = 1.0 / (1.0 + eta * sigma)
    lb = prof.l ** prof.beta

    def z_map(z, x, i, g):
        z = shrink * z + shrink * eta * sigma * x
        z[i] -= shrink * eta / (p[i] * lb[i]) * g
        return z

    return lambda k: (tau, z_map)


def _ns_rules(prof, p):
    s_sq = s_alpha(prof, prof.alpha) ** 2
    lb = prof.l ** prof.beta

    def rules(k):
        eta, tau = (k + 2.0) / (2.0 * s_sq), 2.0 / (k + 2.0)

        def z_map(z, x, i, g):
            z = z.copy()
            z[i] -= eta / (p[i] * lb[i]) * g
            return z

        return tau, z_map

    return rules


def _check_against_rules(oracle, prof, solver, rules, x0, iters, seed):
    seen = []
    cfg = SolverConfig(iters=iters, seed=seed,
                       on_record=lambda k, x, agg, value: seen.append(
                           (x.copy(), None if agg is None else agg.copy(), value)))
    out, _trace = solver(oracle, prof, x0, cfg)
    ys = _literal_run(oracle, prof, x0, _indices(nu_probabilities(prof), seed, iters),
                      rules)
    assert len(seen) == iters + 1
    for (x, agg, value), y in zip(seen, ys):
        assert _close(x, y)
        if agg is not None:
            assert _close(agg, oracle.aggregate(y))
        assert _close(value, oracle.value(y))
    assert _close(out, ys[-1])


def test_nu_acdm_on_kaczmarz_dual_matches_literal_rules():
    a, b, _ = gen_linear_system(12, 4, 0.25, seed=8)
    oracle, prof = build_kaczmarz(a, b, beta=0.5)
    rules = _sc_rules(prof, nu_probabilities(prof), s_alpha(prof, prof.alpha) ** 2)
    _check_against_rules(oracle, prof, nu_acdm, rules, np.full(12, 0.3), 400, 5)


def test_nu_acdm_on_lasso_dual_matches_literal_rules():
    ds = gen_skewed_dataset(15, 6, two_level_norms(15, 0.2), seed=4)
    oracle, prof = build_lasso_dual(ds.features, ds.labels, 0.05, 0.01)
    rules = _sc_rules(prof, nu_probabilities(prof), s_alpha(prof, prof.alpha) ** 2)
    _check_against_rules(oracle, prof, nu_acdm, rules, np.zeros(15), 400, 6)


def test_nu_acdm_ns_on_penalty_dual_matches_literal_rules():
    ds = gen_skewed_dataset(12, 5, two_level_norms(12, 0.25), seed=2)
    oracle, prof = build_penalty_dual(ds.features, ds.labels, 0.2, beta=0.3)
    rules = _ns_rules(prof, nu_probabilities(prof))
    _check_against_rules(oracle, prof, nu_acdm_ns, rules, np.zeros(12), 400, 7)


def test_fold_keeps_the_strongly_convex_loop_on_the_rules():
    """Enough steps that (1 - tau)^(2 iters) falls below FOLD_BELOW, so the
    implicit coefficient is folded into the stored vectors mid-run."""
    l = np.array([1.0, 4.0])
    oracle, prof = build_separable_quadratic(l, np.array([2.0, -1.0]))
    rate = s_alpha(prof, prof.alpha) ** 2
    iters = 1000
    tau, _eta = accel_schedule(rate, prof.sigma_beta)
    assert (1.0 - tau) ** (2 * iters) < solvers.FOLD_BELOW
    rules = _sc_rules(prof, nu_probabilities(prof), rate)
    _check_against_rules(oracle, prof, nu_acdm, rules, np.array([10.0, -3.0]), iters, 123)


@pytest.mark.parametrize("solver", [nu_acdm, nu_acdm_ns])
def test_frequent_folds_keep_the_aggregate_on_the_rules(monkeypatch, solver):
    """A fold threshold of 1/2 folds every few steps while the iterates still
    move, on an oracle whose aggregate must be folded too."""
    monkeypatch.setattr(solvers, "FOLD_BELOW", 0.5)
    a, b, _ = gen_linear_system(10, 4, 0.3, seed=1)
    oracle, prof = build_kaczmarz(a, b)
    p = nu_probabilities(prof)
    rules = (_sc_rules(prof, p, s_alpha(prof, prof.alpha) ** 2) if solver is nu_acdm
             else _ns_rules(prof, p))
    _check_against_rules(oracle, prof, solver, rules, np.full(10, -0.2), 300, 9)


def test_aggregate_drift_stays_bounded_over_a_long_run():
    """1000 epochs of nu_acdm on a 300x100 linear-system dual: the aggregate
    the loop hands to each record matches A^T y rebuilt from y."""
    a, b, _ = gen_linear_system(300, 100, 0.1, seed=0)
    oracle, prof = build_kaczmarz(a, b)
    worst = [0.0]

    def drift(k, y, agg, value):
        fresh = oracle.aggregate(y)
        rel = np.max(np.abs(agg - fresh)) / max(1e-300, np.max(np.abs(fresh)))
        worst[0] = max(worst[0], float(rel))

    cfg = SolverConfig(iters=1000 * 300, seed=3, trace_stride=300, on_record=drift)
    _out, trace = nu_acdm(oracle, prof, np.zeros(300), cfg)
    assert len(trace.iters) == 1001
    assert worst[0] <= 1e-11


# --- structural behavior ---


def test_single_coordinate_collapse():
    """With n = 1 every coordinate method solves the quadratic in one step."""
    oracle, prof = build_separable_quadratic(np.array([2.0]), np.array([3.0]))
    x0 = np.array([-7.0])
    cfg = SolverConfig(iters=1, seed=0, check_level="full")
    for solver in (nu_acdm, nu_acdm_ns, acdm_baseline, rcdm):
        out, trace = solver(oracle, prof, x0, cfg)
        assert abs(out[0] - 3.0) < 1e-12
        assert trace.values[-1] < 1e-24


def test_specialization_is_bit_identical():
    oracle, prof = build_separable_quadratic(10.0 ** np.linspace(-1, 1, 9), beta=0.4)
    x0 = np.linspace(-2, 2, 9)
    cfg = SolverConfig(iters=300, seed=42, trace_stride=25)
    out_nu, tr_nu = nu_acdm(oracle, prof, x0, cfg)
    out_gen, tr_gen = generalized_accel(oracle, prof, x0, cfg, nu_probabilities(prof))
    assert np.array_equal(out_nu, out_gen)
    assert np.array_equal(tr_nu.values, tr_gen.values)


def test_generalized_rejects_invalid_rate_constant():
    oracle, prof = build_separable_quadratic(np.array([1.0, 4.0]))
    p = nu_probabilities(prof)
    cfg = SolverConfig(iters=5)
    with pytest.raises(ValueError):
        generalized_accel(oracle, prof, np.zeros(2), cfg, p, rate_constant=8.9)
    generalized_accel(oracle, prof, np.zeros(2), cfg, p, rate_constant=9.0)
    with pytest.raises(ValueError):
        generalized_accel(oracle, prof, np.zeros(2), cfg, np.array([1.0, -1.0]))


def test_acdm_rate_constant_dominates_valid_minimum():
    # on skewed profiles the uniform-rate constant n * sum L^(1-beta) is the
    # binding one; the run must not reject it
    oracle, prof = build_separable_quadratic(np.array([100.0, 1.0, 1.0, 1.0]))
    out, trace = acdm_baseline(oracle, prof, np.ones(4), SolverConfig(iters=50, seed=0))
    assert trace.algo == "acdm"
    assert trace.values[-1] < oracle.value(np.ones(4))


def test_rcdm_descends_every_recorded_step():
    oracle, prof = build_separable_quadratic(10.0 ** np.linspace(-1, 2, 12))
    cfg = SolverConfig(iters=400, seed=3, check_level="full")
    _out, trace = rcdm(oracle, prof, np.ones(12), cfg)
    slack = 1e-12 * max(1.0, trace.values[0])
    assert np.all(np.diff(trace.values) <= slack)
    assert trace.max_descent_violation <= 1e-12


@pytest.mark.parametrize("solver", [rcdm, nu_acdm, nu_acdm_ns])
def test_descent_check_trips_on_a_profile_that_understates_l(solver):
    """Steps of 4/L_i overshoot every coordinate's minimum: a checked run
    reports the broken guarantee, accelerated or not."""
    l = 10.0 ** np.linspace(-1, 1, 6)
    oracle, _prof = build_separable_quadratic(l)
    prof = SmoothnessProfile(l / 4.0, sigma_beta=float(np.min(l)) / 4.0)
    cfg = SolverConfig(iters=50, seed=2, check_level="full")
    with pytest.raises(InvariantViolation, match="descent guarantee violated"):
        solver(oracle, prof, np.ones(6), cfg)


def test_full_gd_monotone_and_convergent():
    oracle, prof = build_separable_quadratic(np.array([1.0, 4.0, 9.0]))
    l_global = float(np.max(prof.l))
    out, trace = full_gd(oracle, l_global, np.ones(3) * 5.0, SolverConfig(iters=200))
    assert trace.values[-1] < 1e-10
    assert np.all(np.diff(trace.values) <= 1e-12 * max(1.0, trace.values[0]))
    with pytest.raises(ValueError):
        full_gd(oracle, 0.0, np.ones(3), SolverConfig(iters=1))


def test_full_check_level_clean_on_quadratics():
    oracle, prof = build_separable_quadratic(10.0 ** np.linspace(-2, 2, 8), beta=0.5)
    cfg = SolverConfig(iters=500, seed=9, check_level="full")
    for solver in (nu_acdm, nu_acdm_ns, acdm_baseline, rcdm):
        _out, trace = solver(oracle, prof, np.ones(8), cfg)
        assert trace.max_descent_violation <= 0.0 or trace.max_descent_violation < 1e-14
        if solver is rcdm:
            # no z sequence, so no mirror step to check
            assert math.isnan(trace.max_mirror_residual)
        else:
            assert trace.max_mirror_residual < 1e-10


# --- trace contract ---


def test_trace_stride_and_endpoints():
    oracle, prof = build_separable_quadratic(np.array([1.0, 2.0, 3.0]))
    cfg = SolverConfig(iters=10, seed=0, trace_stride=4)
    _out, trace = nu_acdm(oracle, prof, np.ones(3), cfg)
    # records at 0, every 4th step, and the final iteration regardless
    assert trace.iters.tolist() == [0, 4, 8, 10]
    assert np.allclose(trace.epochs, np.array([0, 4, 8, 10]) / 3.0)
    assert trace.units_per_epoch == 3


def test_gd_epoch_is_one_iteration():
    oracle, _ = build_separable_quadratic(np.array([1.0, 2.0]))
    _out, trace = full_gd(oracle, 2.0, np.ones(2), SolverConfig(iters=3))
    assert trace.units_per_epoch == 1
    assert trace.epochs.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_early_stop_at_recorded_threshold():
    oracle, prof = build_separable_quadratic(np.full(4, 2.0))
    x_star = np.zeros(4)

    def dist(x, agg, value):
        d = x - x_star
        return float(d @ d)

    cfg = SolverConfig(
        iters=10000, seed=1, trace_stride=4, dist_fn=dist, stop_when_dist_below=1e-6
    )
    _out, trace = nu_acdm(oracle, prof, np.ones(4), cfg)
    assert trace.final_dist() <= 1e-6
    assert trace.iters[-1] < 10000
    assert np.all(trace.dists[:-1] > 1e-6)


def test_on_record_hook_sees_every_record():
    oracle, prof = build_separable_quadratic(np.array([1.0, 4.0]))
    seen = []
    cfg = SolverConfig(
        iters=9,
        seed=2,
        trace_stride=3,
        on_record=lambda k, x, agg, value: seen.append((k, value)),
    )
    _out, trace = nu_acdm_ns(oracle, prof, np.ones(2), cfg)
    assert [k for k, _ in seen] == trace.iters.tolist()
    assert np.allclose([v for _, v in seen], trace.values)


def test_deterministic_reruns():
    a, b, _ = gen_linear_system(20, 8, 0.25, seed=6)
    oracle, prof = build_kaczmarz(a, b)
    x0 = np.zeros(20)
    cfg = SolverConfig(iters=150, seed=13, trace_stride=10)
    for solver in (nu_acdm, nu_acdm_ns, acdm_baseline, rcdm):
        out1, tr1 = solver(oracle, prof, x0, cfg)
        out2, tr2 = solver(oracle, prof, x0, cfg)
        assert np.array_equal(out1, out2)
        assert np.array_equal(tr1.values, tr2.values)
    k1, _ = kaczmarz(a, b, np.zeros(8), cfg)
    k2, _ = kaczmarz(a, b, np.zeros(8), cfg)
    assert np.array_equal(k1, k2)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(iters=1, trace_stride=0)
    with pytest.raises(ValueError):
        SolverConfig(iters=1, check_level="sometimes")


def test_early_stop_without_dist_fn_is_refused():
    """Without a dist_fn every distance is NaN and the stop never fires."""
    with pytest.raises(ValueError, match="needs a dist_fn"):
        SolverConfig(iters=1, stop_when_dist_below=1e-6)
    # kaczmarz swaps in a dist_fn of the dual point; the stop still fires
    a, b, x_star = gen_linear_system(20, 8, 0.25, seed=6)
    cfg = SolverConfig(iters=20000, trace_stride=20, stop_when_dist_below=1e-3,
                       dist_fn=lambda x, agg, value: float(np.sum((x - x_star) ** 2)))
    _x, trace = kaczmarz(a, b, np.zeros(8), cfg)
    assert trace.final_dist() <= 1e-3 < trace.dists[-2]
    assert trace.iters[-1] < 20000


def test_non_finite_objective_raises():
    """A finite start whose objective overflows; a non-finite start is a
    ValueError (tests/test_validation.py)."""
    oracle, prof = build_separable_quadratic(np.array([1.0, 1.0]))
    x0 = np.array([1e200, 1e200])
    with np.errstate(all="ignore"):
        with pytest.raises(InvariantViolation, match="nu-acdm: non-finite objective"):
            nu_acdm(oracle, prof, x0, SolverConfig(iters=5))
