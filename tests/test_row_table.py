"""Differential tests for the CSR-row fast path of the coordinate loop.

The loop slices row i's (cols, vals) out of oracle.row_matrix once per step,
with cols = slice(0, d) for a row of all d columns, takes the gradient from
the gathered aggregate and vals, and scatters (delta / agg_div) * vals into
the caches itself.  Every trajectory must stay bitwise what the public
coord_grad / update_aggregate protocol gives, so these tests compare with
array_equal and sign bits, never a tolerance.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import problems, solvers
from nucd.data_io import gen_linear_system
from nucd.geometry import s_alpha
from nucd.matrix import SparseRowMatrix
from nucd.problems import (
    ErmDual,
    KaczmarzQuadratic,
    _pen_conj_deriv,
    _pen_conj_deriv_scalar,
    build_kaczmarz,
    build_lasso_dual,
    build_penalty_dual,
    build_ridge_dual,
)
from nucd.sampling import WeightedSampler
from nucd.solvers import (
    SolverConfig,
    acdm_baseline,
    kaczmarz,
    acdm_probabilities,
    nu_acdm,
    nu_acdm_ns,
    nu_probabilities,
    rcdm,
    rcdm_probabilities,
)

from reference import soft_threshold


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


def _same(a, b) -> bool:
    """Equal values, nan where nan, and equal sign bits (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# --- the scalar conjugate derivative ---


_ULP = np.spacing(1.0)
_SPECIAL_S = [0.0, -0.0, 1.0, -1.0, 1.0 + _ULP, 1.0 - _ULP / 2, -1.0 - _ULP,
              -1.0 + _ULP / 2, np.inf, -np.inf, np.nan, -np.nan, 0.5, -2.5]
_LABELS = [0.0, -0.0, 1.5, -2.0]


def test_scalar_penalty_conj_deriv_is_the_array_form_bit_for_bit():
    rng = np.random.default_rng(0)
    s_all = _SPECIAL_S + list(rng.standard_normal(500) * 2.0)
    for l in _LABELS + list(rng.standard_normal(5)):
        s = np.array(s_all)
        want = _pen_conj_deriv(s, np.full(s.size, l))
        for s_k, want_k in zip(s_all, want):
            got = _pen_conj_deriv_scalar(float(s_k), float(l))
            assert type(got) is float
            assert _bits(got) == _bits(want_k), (s_k, l, got, want_k)


def test_penalty_loss_uses_the_scalar_form_and_squared_loss_its_own():
    assert problems.PENALTY_LOSS.conj_deriv_scalar is _pen_conj_deriv_scalar
    assert problems.SQUARED_LOSS.conj_deriv_scalar is problems.SQUARED_LOSS.conj_deriv


# --- oracle level: the row fetch, its gradient and its scatter ---


_VALUES = st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3)
_POINT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
                   st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def _matrices(draw, allow_empty):
    """Rows that are empty, one contiguous run, all d columns, or scattered
    columns."""
    m = draw(st.integers(1, 7))
    d = draw(st.integers(1, 12))
    kinds = ["run", "full", "scattered"] + (["empty"] if allow_empty else [])
    dense = np.zeros((m, d))
    for i in range(m):
        kind = draw(st.sampled_from(kinds))
        if kind == "full":
            cols = range(d)
        elif kind == "run":
            lo = draw(st.integers(0, d - 1))
            cols = range(lo, draw(st.integers(lo + 1, d)))
        elif kind == "scattered":
            cols = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d))
        else:
            cols = ()
        for j in cols:
            dense[i, j] = draw(_VALUES)
    return SparseRowMatrix.from_dense(dense)


def _csr_grad(oracle, x, i, agg):
    """grad_i f read off the CSR arrays with a fancy index, with the loss's
    array-form conjugate: the reference for the loop's row fetch."""
    mat = oracle.a if isinstance(oracle, KaczmarzQuadratic) else oracle.data
    lo, hi = mat.indptr[i], mat.indptr[i + 1]
    part, vals = agg[mat.indices[lo:hi]], mat.data[lo:hi]
    if isinstance(oracle, KaczmarzQuadratic):
        return float(np.dot(vals, part)) - float(oracle.b[i])
    sep = float(oracle.loss.conj_deriv(x[i:i + 1], oracle.labels[i:i + 1])[0])
    row_dot = float(np.dot(vals, oracle._reg_conj_grad(part)))
    return sep / oracle.n - row_dot / oracle.n


def _loop_row(mat, i):
    """(cols, vals) of row i as _coordinate_loop slices them."""
    lo, hi = mat.indptr.item(i), mat.indptr.item(i + 1)
    cols = slice(0, mat.d) if hi - lo == mat.d else mat.indices[lo:hi]
    vals = mat.data[lo:hi]
    # a full row is the slice because its ids ascend strictly in [0, d)
    assert np.array_equal(np.arange(mat.d)[cols], mat.indices[lo:hi])
    assert vals.size == 0 or np.shares_memory(vals, mat.data)
    return cols, vals


@pytest.mark.parametrize("variant", ["kaczmarz", "ridge", "smoothed_lasso", "l1l2_penalty"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_row_table_gradient_and_scatter_match_the_csr_path(variant, data):
    mat = data.draw(_matrices(allow_empty=variant != "kaczmarz"))
    rhs = np.array(data.draw(st.lists(_POINT, min_size=mat.m, max_size=mat.m)))
    if variant == "kaczmarz":
        oracle = KaczmarzQuadratic(mat, rhs)
        assert oracle.agg_div == 1.0
    else:
        oracle = ErmDual(mat, rhs, 0.3, 0.05, variant=variant)
        assert oracle.agg_div == float(mat.m)
    assert oracle.row_matrix is mat
    x = np.array(data.draw(st.lists(_POINT, min_size=mat.m, max_size=mat.m)))
    agg = np.array(data.draw(st.lists(_POINT, min_size=mat.d, max_size=mat.d)))
    for i in range(mat.m):
        cols, vals = _loop_row(mat, i)
        want = _csr_grad(oracle, x, i, agg)
        got = oracle.coord_grad_local(i, float(x[i]), agg[cols], vals)
        assert _same(got, want)
        assert _same(oracle.coord_grad(x, i, agg), want)

        delta = data.draw(_POINT)
        scattered, updated = agg.copy(), agg.copy()
        scattered[cols] += (delta / oracle.agg_div) * vals  # the loop's scatter
        oracle.update_aggregate(updated, i, delta)
        assert _same(scattered, updated)


# --- the ERM row gradients against the whole-vector conjugate gradient ---


_LAM = 0.3
_EDGE_PARTS = [0.0, -0.0, _LAM, -_LAM, 1e300, -1e300, 1e-300, -1e-300] + [
    float(np.nextafter(edge, toward)) for edge in (_LAM, -_LAM)
    for toward in (0.0, np.inf, -np.inf)]
_PARTS = st.one_of(st.sampled_from(_EDGE_PARTS), st.floats(-1e6, 1e6))
_ROW_VALS = st.one_of(st.sampled_from([1.0, -1.0, -2.5, 1e-3, -1e3]), _VALUES)
_SCALARS = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0]), st.floats(-4.0, 4.0))


@pytest.mark.parametrize("variant", ["ridge", "smoothed_lasso", "l1l2_penalty"])
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_erm_row_gradient_is_the_whole_vector_form_bit_for_bit(variant, data):
    """coord_grad_local on a row's part of v gives g bit for bit as the
    whole-vector _reg_conj_grad, sign of zero included; that form is -v / lam
    bit for bit, and the Lasso form differs from soft_threshold(-v) / lam2
    only in the sign of zero entries."""
    size = data.draw(st.integers(0, 6))
    part = np.array(data.draw(st.lists(_PARTS, min_size=size, max_size=size)))
    vals = np.array(data.draw(st.lists(_ROW_VALS, min_size=size, max_size=size)))
    label, y_i = data.draw(_SCALARS), data.draw(_SCALARS)
    oracle = ErmDual(SparseRowMatrix.from_dense(np.eye(3)), np.array([label, 1.0, 2.0]),
                     _LAM, 0.05, variant=variant)
    sep = float(oracle.loss.conj_deriv(np.array([y_i]), np.array([label]))[0])
    want = sep / oracle.n - float(np.dot(vals, oracle._reg_conj_grad(part))) / oracle.n
    assert _same(oracle.coord_grad_local(0, y_i, part, vals), want)

    grad = oracle._reg_conj_grad(part)
    if variant == "smoothed_lasso":
        textbook = soft_threshold(-part, _LAM) / 0.05
        assert np.array_equal(grad, textbook)
        nonzero = grad != 0.0
        assert _same(grad[nonzero], textbook[nonzero])
        assert not np.signbit(grad[~nonzero]).any()
    else:
        assert _same(grad, -part / _LAM)


def test_lasso_zero_gradient_keeps_the_whole_vector_sign():
    """On a one-entry row the row dot is the lone product, so a zero entry's
    sign reaches g: the clip form's entries are +0.0 where soft_threshold's
    are -0.0, and with label and y_i both -0.0 the gradient is the single
    form's -0.0 + -(+0.0) = -0.0, bit for bit as on the whole vector."""
    oracle = ErmDual(SparseRowMatrix.from_dense(np.eye(2)), np.array([-0.0, 1.0]),
                     _LAM, 0.05, variant="smoothed_lasso")
    part, vals = np.array([0.1]), np.array([2.0])
    assert _bits(soft_threshold(-part, _LAM)[0]) == _bits(-0.0)
    assert _bits(oracle._reg_conj_grad(part)[0]) == _bits(0.0)
    whole = oracle._reg_conj_grad(np.array([0.1, 1.0]))
    assert _bits(whole[0]) == _bits(0.0)
    assert _bits(whole[1]) == _bits(-(1.0 - _LAM) / 0.05)
    want = -0.0 / oracle.n - float(np.dot(vals, whole[:1])) / oracle.n
    assert _bits(want) == _bits(-0.0)
    assert _bits(oracle.coord_grad_local(0, -0.0, part, vals)) == _bits(want)


# --- loop level: the solvers against the public protocol ---


def _mixed_rows(m, d, seed, allow_empty=True):
    """Empty rows (when allowed), contiguous runs, scattered rows, rows of
    all d columns and rows of all but one, with norms spread over two orders
    of magnitude."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((m, d))
    for i in range(m):
        kind = i % 5 if allow_empty else 1 + i % 4
        if kind == 1:
            lo = int(rng.integers(0, d - 5))
            dense[i, lo:lo + 5] = rng.standard_normal(5)
        elif kind == 2:
            dense[i, rng.choice(d, size=6, replace=False)] = rng.standard_normal(6)
        elif kind >= 3:
            dense[i] = rng.standard_normal(d)
            if kind == 4:
                dense[i, rng.integers(d)] = 0.0
        dense[i] *= 10.0 if i % 4 == 0 else 1.0
    return SparseRowMatrix.from_dense(dense), rng.standard_normal(m)


def _problem(name):
    if name == "kaczmarz":
        a, b, _ = gen_linear_system(20, 8, 0.25, seed=4)
        scattered, rhs = _mixed_rows(20, 30, seed=5, allow_empty=False)
        return {"kaczmarz": build_kaczmarz(a, b, beta=0.5),
                "kaczmarz_scattered": build_kaczmarz(scattered, rhs)}
    data, labels = _mixed_rows(24, 30, seed=6)
    build = {"ridge": lambda: build_ridge_dual(data, labels, 0.1),
             "lasso": lambda: build_lasso_dual(data, labels, 0.1, 0.01, beta=0.3),
             "penalty": lambda: build_penalty_dual(data, labels, 0.1, beta=0.4)}
    return {name: build[name]()}


def _setup(solver, prof):
    """(p, schedule) exactly as each solver builds them."""
    if solver is rcdm:
        return rcdm_probabilities(prof), None
    if solver is nu_acdm_ns:
        p = nu_probabilities(prof)
        return p, solvers._Growing(prof, p, s_alpha(prof, prof.alpha) ** 2)
    if solver is nu_acdm:
        p = nu_probabilities(prof)
        p = p / p.sum()
        rate = float(np.max(prof.l ** (1.0 - prof.beta) / (p * p)))
    else:
        p = acdm_probabilities(prof)
        rate = max(prof.n * s_alpha(prof, 1.0 - prof.beta),
                   float(np.max(prof.l ** (1.0 - prof.beta) / (p * p))))
        p = p / p.sum()
    return p, solvers._StronglyConvex(prof, p, rate)


def _reference_loop(oracle, prof, x0, cfg, p, schedule):
    """The loop's (u, v, c) steps with whole x = u + c v and its aggregate
    formed every step, the gradient from the public coord_grad and the caches
    moved by update_aggregate.  Returns (y, recorded values)."""
    accel = schedule is not None
    u, uagg = x0.copy(), oracle.aggregate(x0)
    v, vagg = np.zeros(oracle.n), oracle.aggregate(np.zeros(oracle.n))
    c, r = 1.0, (schedule.r if accel else 0.0)
    inv_l = 1.0 / prof.l

    def point():
        return (u + c * v, uagg + c * vagg) if accel else (u, uagg)

    draws = WeightedSampler(p, cfg.seed).sample_block(cfg.iters)
    values = [oracle.value(*point())]
    for k, i in enumerate(draws.tolist()):
        if accel:
            rho, eta = schedule.step(k)
            c *= rho
            if c < solvers.FOLD_BELOW:
                v *= c
                vagg *= c
                c = 1.0
        x, agg = point()
        g = oracle.coord_grad(x, i, agg)
        dy = -g * inv_l[i]
        if accel:
            dz = -schedule.z_scale(schedule.z_coef[i], eta) * g
            du = (dz - r * dy) / (1.0 - r)
            dv = (dy - dz) / (c * (1.0 - r))
            u[i] += du
            v[i] += dv
            oracle.update_aggregate(uagg, i, du)
            oracle.update_aggregate(vagg, i, dv)
        else:
            u[i] += dy
            oracle.update_aggregate(uagg, i, dy)
        if (k + 1) % cfg.trace_stride == 0 or k + 1 == cfg.iters:
            values.append(oracle.value(*point()))
    return point()[0], np.array(values)


_CASES = [(solver, name)
          for name in ("kaczmarz", "ridge", "lasso", "penalty")
          for solver in (nu_acdm, acdm_baseline, nu_acdm_ns, rcdm)
          # the strongly convex schedules need sigma > 0, which penalty lacks
          if not (name == "penalty" and solver in (nu_acdm, acdm_baseline))]


@pytest.mark.parametrize("solver, name", _CASES,
                         ids=[f"{s.__name__}-{n}" for s, n in _CASES])
def test_loop_is_bitwise_the_public_protocol(solver, name):
    # a checked run keeps the per-step loop on every oracle; unchecked
    # Kaczmarz runs take block steps, which agree to rounding only
    # (test_block_steps.py)
    level = "cheap" if name == "kaczmarz" else "off"
    for oracle, prof in _problem(name).values():
        n = oracle.n
        x0 = np.linspace(-0.7, 0.4, n)
        cfg = SolverConfig(iters=25 * n, seed=13, trace_stride=n, check_level=level)
        out, trace = solver(oracle, prof, x0, cfg)
        p, schedule = _setup(solver, prof)
        want_y, want_values = _reference_loop(oracle, prof, x0, cfg, p, schedule)
        assert np.array_equal(out, want_y)
        assert np.array_equal(trace.values, want_values)


def test_an_aggregate_without_a_row_table_is_refused():
    """An oracle that keeps an aggregate must name the matrix whose rows a
    step moves it by; without one the loop would leave the aggregate stale."""

    class NoRows(KaczmarzQuadratic):
        def __init__(self, a_matrix, b):
            super().__init__(a_matrix, b)
            self.row_matrix = None

        def aggregate(self, y):
            return self.a.rmatvec(y)

    a, b, _ = gen_linear_system(12, 4, 0.25, seed=2)
    _, prof = build_kaczmarz(a, b)
    with pytest.raises(TypeError, match="NoRows keeps an aggregate but no row matrix"):
        rcdm(NoRows(a, b), prof, np.zeros(12), SolverConfig(iters=5))


def _inputs(rows):
    """A consistent system (A, b) and an ERM dataset (X, labels) whose rows
    are all d columns wide, or a few scattered columns each."""
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((24, 10))
    if rows == "scattered":
        dense[rng.random(dense.shape) < 0.6] = 0.0
        dense[np.arange(24), rng.integers(10, size=24)] = 3.0  # no empty rows
    a = SparseRowMatrix.from_dense(dense)
    widths = np.diff(a.indptr)
    assert (widths == a.d).all() if rows == "full" else (widths < a.d).all()
    return a, a.matvec(rng.standard_normal(10)), rng.standard_normal(24)


_SOLVERS = {
    "nu_acdm": nu_acdm, "acdm_baseline": acdm_baseline, "nu_acdm_ns": nu_acdm_ns,
    "rcdm": rcdm,
    "generalized_accel": lambda o, prof, x0, cfg: solvers.generalized_accel(
        o, prof, x0, cfg, rcdm_probabilities(prof)),
}


@pytest.mark.parametrize("rows", ["full", "scattered"])
@pytest.mark.parametrize("solver", [*_SOLVERS, "kaczmarz"])
def test_runs_neither_write_their_inputs_nor_alias_them(solver, rows):
    """The scatters write the loop's own caches in place: a run leaves x0,
    b, the labels and the row matrix's arrays as they were, returns a point
    of its own, and a second run gives the same point."""
    a, b, labels = _inputs(rows)
    if solver == "kaczmarz":
        cases = [(a, b, lambda x0, cfg: kaczmarz(a, b, x0, cfg)[0])]
    else:
        run = _SOLVERS[solver]
        cases = [(oracle.row_matrix, rhs, lambda x0, cfg, o=oracle, prof=prof:
                  run(o, prof, x0, cfg)[0])
                 for (oracle, prof), rhs in ((build_kaczmarz(a, b), b),
                                             (build_ridge_dual(a, labels, 0.1), labels))]
    for mat, rhs, solve in cases:
        x0 = np.linspace(-0.5, 0.5, a.d if solver == "kaczmarz" else a.m)
        before = [arr.copy() for arr in (x0, rhs, mat.indptr, mat.indices, mat.data)]
        cfg = SolverConfig(iters=6 * a.m, seed=2, trace_stride=a.m)
        out = solve(x0, cfg)
        for arr, kept in zip((x0, rhs, mat.indptr, mat.indices, mat.data), before):
            assert _same(arr, kept)
        assert not np.shares_memory(out, x0)
        assert not np.shares_memory(out, mat.data)
        assert _same(solve(x0, cfg), out)
