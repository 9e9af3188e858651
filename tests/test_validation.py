"""Input checks raise ValueError, so they hold under python -O as well."""

import numpy as np
import pytest

from nucd.data_io import gen_linear_system
from nucd.geometry import SmoothnessProfile, TrackedPoint, lbeta_inner, lbeta_norm_sq
from nucd.matrix import SparseRowMatrix
from nucd.problems import SeparableQuadratic
from nucd.solvers import SolverConfig, kaczmarz

_PROFILE = SmoothnessProfile(np.array([1.0, 2.0, 3.0]))
_SYSTEM = gen_linear_system(5, 3, 0.5, seed=0)


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
        lambda: SparseRowMatrix.from_rows([([0, 1], [1.0])], d=2),
    ],
    ids=[
        "kaczmarz-b", "kaczmarz-x0", "lbeta_norm_sq", "lbeta_inner",
        "TrackedPoint", "SeparableQuadratic", "from_dense", "from_rows",
    ],
)
def test_bad_shapes_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
