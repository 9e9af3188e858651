"""Input checks raise ValueError, so they hold under python -O as well."""

import numpy as np
import pytest

from nucd.data_io import gen_linear_system, gen_skewed_dataset
from nucd.geometry import SmoothnessProfile, TrackedPoint, lbeta_inner, lbeta_norm_sq
from nucd.matrix import SparseRowMatrix
from nucd.problems import (ErmDual, SeparableQuadratic, build_penalty_dual,
                           build_separable_quadratic)
from nucd.solvers import (SolverConfig, full_gd, kaczmarz, nu_acdm, nu_acdm_ns,
                          rcdm)

_PROFILE = SmoothnessProfile(np.array([1.0, 2.0, 3.0]))
_SYSTEM = gen_linear_system(5, 3, 0.5, seed=0)
_QUADRATIC = build_separable_quadratic(np.array([1.0, 2.0, 3.0]))
_DATA = gen_skewed_dataset(4, 2, np.ones(4), seed=0)
_PENALTY = build_penalty_dual(_DATA.features, _DATA.labels, 0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: kaczmarz(_SYSTEM[0], np.ones(4), np.zeros(3), SolverConfig(iters=1)),
        lambda: kaczmarz(_SYSTEM[0], _SYSTEM[1], np.zeros(2), SolverConfig(iters=1)),
        lambda: lbeta_norm_sq(np.ones(2), _PROFILE),
        lambda: lbeta_inner(np.ones(3), np.ones(2), _PROFILE),
        lambda: TrackedPoint(SeparableQuadratic(np.ones(3)), np.ones(2)),
        lambda: SeparableQuadratic(np.ones(3), target=np.ones(2)),
        lambda: SparseRowMatrix.from_dense(np.ones(3)),
        lambda: SparseRowMatrix([0, 2], [0, 1], [1.0], (1, 2)),
        lambda: nu_acdm(*_QUADRATIC, np.zeros(2), SolverConfig(iters=1)),
        lambda: rcdm(*_QUADRATIC, np.zeros(4), SolverConfig(iters=1)),
        lambda: full_gd(_QUADRATIC[0], 3.0, np.zeros((3, 1)), SolverConfig(iters=1)),
    ],
    ids=[
        "kaczmarz-b", "kaczmarz-x0", "lbeta_norm_sq", "lbeta_inner",
        "TrackedPoint", "SeparableQuadratic", "from_dense",
        "SparseRowMatrix", "nu_acdm-x0", "rcdm-x0", "full_gd-x0",
    ],
)
def test_bad_shapes_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def _dual(lam, lam2=None, variant="ridge"):
    return ErmDual(_DATA.features, _DATA.labels, lam, lam2, variant=variant)


_NAN_X0 = np.array([0.0, np.nan, 1.0])
_INF_X0 = np.array([np.inf, 0.0, 1.0])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: _dual(np.inf), "lam"),
        (lambda: _dual(-np.inf), "lam"),
        (lambda: _dual(np.nan), "lam"),
        (lambda: _dual(0.1, np.inf, "smoothed_lasso"), "lam2"),
        (lambda: _dual(0.1, np.nan, "smoothed_lasso"), "lam2"),
        (lambda: nu_acdm(*_QUADRATIC, _NAN_X0, SolverConfig(iters=1)), "point"),
        (lambda: rcdm(*_QUADRATIC, _INF_X0, SolverConfig(iters=1)), "point"),
        (lambda: nu_acdm_ns(*_PENALTY, np.full(4, np.nan), SolverConfig(iters=1)),
         "point"),
        (lambda: full_gd(_QUADRATIC[0], 3.0, _INF_X0, SolverConfig(iters=1)), "point"),
        (lambda: kaczmarz(_SYSTEM[0], _SYSTEM[1], _NAN_X0, SolverConfig(iters=1)), "x0"),
    ],
    ids=[
        "lam-inf", "lam-minus-inf", "lam-nan", "lam2-inf", "lam2-nan",
        "nu_acdm-x0", "rcdm-x0", "nu_acdm_ns-x0", "full_gd-x0", "kaczmarz-x0",
    ],
)
def test_non_finite_inputs_raise_value_error(call, name):
    with pytest.raises(ValueError, match=rf"^{name} .*finite"):
        call()

