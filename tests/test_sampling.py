import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nucd.data_io import gen_skewed_dataset, two_level_norms
from nucd.problems import build_lasso_dual
from nucd.sampling import WeightedSampler
from nucd.solvers import nu_probabilities


def _table_mass(s):
    """Index-selection probabilities implied by the cumulative table."""
    return np.diff(s._cdf, prepend=0.0)


def test_rejects_bad_weights():
    for bad in ([], [[1.0, 2.0]], [1.0, -0.5], [np.nan, 1.0], [np.inf], [0.0, 0.0]):
        with pytest.raises(ValueError):
            WeightedSampler(np.asarray(bad, dtype=float), seed=0)


def test_probabilities_normalized():
    s = WeightedSampler(np.array([2.0, 6.0]), seed=0)
    assert np.allclose(_table_mass(s), [0.25, 0.75], atol=1e-15)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40).filter(
        lambda w: sum(w) > 0.0
    )
)
def test_cdf_table_mass_exact(weights):
    """Differencing the cumulative table must reproduce the requested
    distribution to rounding error, including exact zeros."""
    w = np.asarray(weights)
    s = WeightedSampler(w, seed=0)
    assert np.max(np.abs(_table_mass(s) - w / w.sum())) < 1e-12


def test_cdf_table_mass_extreme_skew():
    w = 10.0 ** np.linspace(-8, 8, 33)
    s = WeightedSampler(w, seed=0)
    assert np.max(np.abs(_table_mass(s) - w / w.sum())) < 1e-12


def test_zero_weight_indices_never_drawn():
    w = np.array([0.0, 3.0, 0.0, 1.0, 0.0])
    s = WeightedSampler(w, seed=7)
    draws = s.sample_block(20000)
    assert set(np.unique(draws)) <= {1, 3}
    mass = _table_mass(s)
    assert mass[0] == 0.0 and mass.size == 5


def test_empirical_frequencies_chi_square():
    w = np.array([10.0, 1.0, 1.0, 5.0, 0.5, 20.0, 2.0, 0.25])
    p = w / w.sum()
    n_draws = 200000
    draws = WeightedSampler(w, seed=11).sample_block(n_draws)
    counts = np.bincount(draws, minlength=w.size)
    chi2 = float(np.sum((counts - n_draws * p) ** 2 / (n_draws * p)))
    # one fixed seed, so a 99.9% quantile gate is not flaky
    assert chi2 < stats.chi2.ppf(0.999, w.size - 1)


def test_same_seed_same_stream():
    w = np.array([1.0, 2.0, 3.0])
    a = WeightedSampler(w, seed=5).sample_block(1000)
    b = WeightedSampler(w, seed=5).sample_block(1000)
    assert np.array_equal(a, b)
    c = WeightedSampler(w, seed=6).sample_block(1000)
    assert not np.array_equal(a, c)


def test_consecutive_blocks_continue_one_stream():
    w = np.array([1.0, 9.0, 0.0, 4.0])
    ref = WeightedSampler(w, seed=9).sample_block(60)
    s = WeightedSampler(w, seed=9)
    parts = [s.sample_block(17), s.sample_block(5), s.sample_block(38)]
    assert np.array_equal(ref, np.concatenate(parts))


def test_stream_does_not_depend_on_weight_normalisation():
    """generalized_accel renormalises p; the stream it draws must be the
    one drawn from nu_probabilities itself."""
    split = []
    for s in range(200):
        ds = gen_skewed_dataset(15, 6, two_level_norms(15, 0.2), seed=s)
        _oracle, profile = build_lasso_dual(ds.features, ds.labels, 0.05, 0.01)
        p = nu_probabilities(profile)
        a = WeightedSampler(p, s).sample_block(4096)
        b = WeightedSampler(p / p.sum(), s).sample_block(4096)
        if not np.array_equal(a, b):
            split.append(s)
    assert split == []


def test_single_index_degenerate():
    s = WeightedSampler(np.array([5.0]), seed=0)
    assert np.array_equal(s.sample_block(10), np.zeros(10, dtype=np.int64))
