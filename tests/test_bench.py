import math

import numpy as np
import pytest

from nucd import bench, problems
from nucd.bench import (
    beta_sweep,
    run_erm_race,
    run_kaczmarz_race,
    speedup_table,
    summary_lines,
)
from nucd.cli import main
from nucd.data_io import gen_skewed_dataset, two_level_norms
from nucd.geometry import SmoothnessProfile, speedup_factor
from nucd.solvers import nu_probabilities


def test_degenerate_one_by_one_race():
    """A 1x1 system is solved exactly in one step by every contender."""
    res = run_kaczmarz_race(1, 1, 1.0, seeds=[0, 1], eps=1e-12, max_epochs=10)
    for algo in res.algos:
        assert res.median_epochs_to(algo, 1e-12) <= 2.0


def test_uniform_norms_remove_the_advantage():
    """With r = 1 all rows share one norm; the non-uniform and uniform
    accelerated runs follow the same schedule up to sampling noise."""
    res = run_kaczmarz_race(60, 20, 1.0, seeds=range(6), eps=1e-8, max_epochs=3000)
    nu = res.median_epochs_to("nu-acdm", 1e-8)
    un = res.median_epochs_to("acdm", 1e-8)
    assert math.isfinite(nu) and math.isfinite(un)
    assert abs(nu - un) <= 0.1 * max(nu, un)
    assert abs(res.speedup - 1.0) < 1e-12


def test_skewed_race_orders_as_predicted():
    res = run_kaczmarz_race(80, 24, 0.125, seeds=range(6), eps=1e-8, max_epochs=4000)
    nu = res.median_epochs_to("nu-acdm", 1e-8)
    un = res.median_epochs_to("acdm", 1e-8)
    kz = res.median_epochs_to("kaczmarz", 1e-8)
    assert nu < un < kz
    # the theoretical advantage is nearly attained but never by forbidden margins
    assert un / nu >= res.speedup / 2.0
    assert res.speedup > 1.3


def test_epochs_to_monotone_in_tolerance():
    res = run_kaczmarz_race(50, 15, 0.2, seeds=[3, 4], eps=1e-10, max_epochs=4000)
    for algo in res.algos:
        prev = np.zeros(2)
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            cur = res.epochs_to(algo, eps)
            ok = ~np.isnan(cur)
            assert np.all(cur[ok] >= prev[ok])
            prev = np.where(ok, cur, prev)


def test_race_traces_account_epochs():
    res = run_kaczmarz_race(30, 10, 0.5, seeds=[0], eps=1e-6, max_epochs=500)
    tr_nu = res.traces[("nu-acdm", 0)]
    tr_kz = res.traces[("kaczmarz", 0)]
    assert tr_nu.units_per_epoch == 30  # dual coordinates = rows
    assert tr_kz.units_per_epoch == 30
    assert np.all(np.diff(tr_nu.iters) % 30 == 0)


def test_speedup_table_matches_profiles():
    rows = speedup_table([0.1, 0.6, 1.0], m=200, n=60)
    assert [r for r, _ in rows] == [0.1, 0.6, 1.0]
    for r, theory in rows:
        prof = SmoothnessProfile(two_level_norms(200, r, hi=10.0, lo=1.0) ** 2)
        assert abs(theory - speedup_factor(prof)) < 1e-12
    assert rows[-1][1] == pytest.approx(1.0, abs=1e-12)


def _dataset(n=40, d=8, r=0.1, seed=19):
    return gen_skewed_dataset(n, d, two_level_norms(n, r, hi=10.0, lo=1.0), seed=seed)


def test_erm_race_beats_unaccelerated_by_theory_margin():
    data = _dataset()
    res = run_erm_race(
        data,
        "ridge",
        lam=0.1,
        algos=("nu-acdm", "rcdm"),
        seeds=range(4),
        epochs=400,
        eps=1e-7,
    )
    nu = res.median_epochs_to("nu-acdm", 1e-7)
    rc = res.median_epochs_to("rcdm", 1e-7)
    assert math.isfinite(nu) and math.isfinite(rc)
    assert rc / nu >= res.speedup / 2.0


def test_erm_race_single_example_is_trivial():
    data = _dataset(n=1, d=4)
    res = run_erm_race(
        data, "ridge", lam=0.5, algos=("nu-acdm",), seeds=[0], epochs=30, eps=1e-10
    )
    assert res.median_epochs_to("nu-acdm", 1e-10) <= 30


def test_erm_race_gd_epoch_accounting():
    data = _dataset(n=12, d=5)
    res = run_erm_race(
        data, "ridge", lam=0.2, algos=("gd", "nu-acdm"), seeds=[0], epochs=20, eps=None
    )
    assert res.traces[("gd", 0)].units_per_epoch == 1
    assert res.traces[("gd", 0)].iters[-1] == 20
    assert res.traces[("nu-acdm", 0)].units_per_epoch == 12
    assert res.traces[("nu-acdm", 0)].iters[-1] == 240


def test_erm_race_ridge_collects_primal_gaps():
    data = _dataset(n=15, d=4)
    res = run_erm_race(
        data, "ridge", lam=0.1, algos=("nu-acdm",), seeds=[0, 1], epochs=60, eps=None
    )
    rows = [res.primal_gaps[("nu-acdm", seed)] for seed in (0, 1)]
    length = min(len(g) for g in rows)
    gaps = np.mean([g[:length] for g in rows], axis=0)
    assert gaps[0] > gaps[-1] >= -1e-10


def test_beta_sweep_bounds_hold_and_uniform_profile_is_flat():
    data = gen_skewed_dataset(16, 5, np.full(16, 3.0), seed=2)
    entries = beta_sweep(data, lam=0.2, beta_list=[0.0, 0.5, 1.0], seeds=range(5), epochs=8)
    assert all(e.ok for e in entries)
    # equal norms make schedule, sampling, and bound independent of beta
    gaps = [e.mean_final_gap for e in entries]
    bounds = [e.bound for e in entries]
    assert max(gaps) - min(gaps) <= 1e-12 * max(1.0, max(map(abs, gaps)))
    assert max(bounds) - min(bounds) <= 1e-9 * max(bounds)


def test_beta_one_samples_uniformly_even_when_skewed():
    l = two_level_norms(50, 0.1, hi=10.0, lo=1.0) ** 2
    p = nu_probabilities(SmoothnessProfile(l, beta=1.0))
    assert np.allclose(p, 1.0 / 50, atol=1e-15)
    # and the draws reflect it: fixed-seed binomial count within 4 sigma
    from nucd.sampling import WeightedSampler

    draws = WeightedSampler(p, seed=5).sample_block(20000)
    count = int(np.sum(draws == 0))
    sigma = math.sqrt(20000 * (1 / 50) * (49 / 50))
    assert abs(count - 400) <= 4.0 * sigma


def test_driver_validation_and_dispatch(capsys):
    """The drivers reject empty runs; nucd bench rejects an unknown
    experiment and hands its flags to the driver it names."""
    with pytest.raises(ValueError):
        run_kaczmarz_race(seeds=[])
    with pytest.raises(ValueError):
        run_erm_race(_dataset(), seeds=[0], algos=())
    for experiment in ("kaczmarz-race", "erm-race", "beta-sweep"):
        assert main(["bench", "--experiment", experiment, "--seeds", "0"]) == 1
    assert main(["bench", "--experiment", "unknown"]) == 1
    assert "need at least one seed" in capsys.readouterr().err

    code = main(["bench", "--experiment", "kaczmarz-race", "--seeds", "2", "--m", "20",
                 "--n", "8", "--r", "0.5", "--eps", "1e-6"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    res = run_kaczmarz_race(20, 8, 0.5, seeds=[0, 1], eps=1e-6)
    assert lines[0] == "algo,eps,median_epochs,speedup_theory,median_wall_s"
    assert len(lines) == 1 + len(res.algos)
    for line, want in zip(lines[1:], summary_lines(res)[1:]):
        algo, eps, med, sp, wall = line.split(",")
        assert algo in res.algos
        assert float(eps) == 1e-6
        assert float(med) == res.median_epochs_to(algo)
        assert float(sp) == res.speedup
        assert float(wall) > 0.0
        assert line.rsplit(",", 1)[0] == want.rsplit(",", 1)[0]


def test_beta_sweep_rejects_empty_seeds_and_betas():
    data = _dataset(n=10, d=4)
    with pytest.raises(ValueError, match="seed"):
        beta_sweep(data, seeds=[], epochs=2)
    with pytest.raises(ValueError, match="beta"):
        beta_sweep(data, beta_list=(), seeds=[0], epochs=2)


def test_erm_race_computes_the_global_constant_once(monkeypatch):
    """Every gd cell steps by the same global smoothness constant, which
    costs a dense d x d Gram and an eigendecomposition: one call a race."""
    calls = []
    real = problems.global_smoothness

    def spy(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(problems, "global_smoothness", spy)
    res = run_erm_race(_dataset(n=12, d=5), "ridge", lam=0.2, algos=("gd", "nu-acdm"),
                       seeds=range(10), epochs=3)
    assert len(calls) == 1
    assert len(res.traces) == 20
    first = res.traces[("gd", 0)].values
    assert all(np.array_equal(res.traces[("gd", s)].values, first) for s in range(10))
    run_erm_race(_dataset(n=12, d=5), "ridge", lam=0.2, algos=("nu-acdm",), seeds=[0],
                 epochs=3)
    assert len(calls) == 1  # a race without gd needs no global constant


def test_race_rejects_empty_seeds():
    with pytest.raises(ValueError):
        run_kaczmarz_race(10, 5, 0.5, seeds=[], eps=1e-6)


def _fake_pool(monkeypatch):
    """Stand a fake in for the process pool; returns the list that each
    pool's worker count is appended to."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
    return sizes


def test_pool_is_sized_to_the_cells(monkeypatch):
    """A pool forks every worker at its first submit, so it gets no more
    workers than there are cells; a fake stands in for it here."""
    sizes = _fake_pool(monkeypatch)
    pooled = run_kaczmarz_race(20, 8, 0.5, seeds=[0], eps=1e-6, jobs=64)
    assert sizes == [3]  # nu-acdm, acdm and kaczmarz
    serial = run_kaczmarz_race(20, 8, 0.5, seeds=[0], eps=1e-6, jobs=1)
    assert sizes == [3]
    for key, trace in serial.traces.items():
        assert np.array_equal(pooled.traces[key].values, trace.values)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_kaczmarz_race(20, 8, 0.5, seeds=[0], eps=1e-6, jobs=jobs)
    assert sizes == [3]


def _sweep_data():
    return gen_skewed_dataset(8, 3, two_level_norms(8, 0.25), seed=4)


def test_beta_sweep_runs_one_pool(monkeypatch):
    """Every beta's cells share one pool; a repeated beta stays its own
    entry, equal to the first."""
    sizes = _fake_pool(monkeypatch)
    pooled = beta_sweep(_sweep_data(), beta_list=[0.0, 0.5, 0.0], seeds=range(3),
                        epochs=4, jobs=2)
    assert sizes == [2]
    serial = beta_sweep(_sweep_data(), beta_list=[0.0, 0.5, 0.0], seeds=range(3),
                        epochs=4)
    assert [e.beta for e in pooled] == [0.0, 0.5, 0.0]
    for got, want in zip(pooled, serial):
        assert got.bound == want.bound and got.mean_final_gap == want.mean_final_gap
        assert np.array_equal(got.mean_gap_trace, want.mean_gap_trace)
    assert np.array_equal(pooled[0].mean_gap_trace, pooled[2].mean_gap_trace)


def test_real_worker_processes_give_the_serial_runs():
    """Cells pickled to two worker processes come back bit for bit."""
    pooled = run_kaczmarz_race(20, 8, 0.5, seeds=[0, 1], jobs=2)
    serial = run_kaczmarz_race(20, 8, 0.5, seeds=[0, 1], jobs=1)
    assert sorted(pooled.traces) == sorted(serial.traces)
    for key, want in serial.traces.items():
        got = pooled.traces[key]
        for attr in ("iters", "values", "dists"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    sweeps = [beta_sweep(_sweep_data(), beta_list=[0.0, 1.0], seeds=range(4), epochs=6,
                         jobs=jobs) for jobs in (2, 1)]
    for got, want in zip(*sweeps):
        assert (got.beta, got.bound, got.mean_final_gap) == (
            want.beta, want.bound, want.mean_final_gap)
        assert np.array_equal(got.epochs, want.epochs)
        assert np.array_equal(got.mean_gap_trace, want.mean_gap_trace)
