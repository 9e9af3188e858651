import math
import os
import pathlib
import re
import subprocess
import sys

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


@pytest.mark.parametrize("algos", [("foo",), ("kaczmarz",), ("nu-acdm", "nu-acdm")],
                         ids=["unknown", "kaczmarz", "repeated"])
def test_erm_race_rejects_bad_algorithm_names_before_any_work(monkeypatch, algos):
    """kaczmarz projects rows of a linear system, not an ERM dual, and a
    repeated name would run its cells twice and keep one trace per key."""
    calls = []
    real = problems.reference_minimum

    def spy(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(problems, "reference_minimum", spy)
    with pytest.raises(ValueError, match="names from nu-acdm, nu-acdm-ns, acdm, rcdm, gd;"):
        run_erm_race(_dataset(n=12, d=5), algos=algos, seeds=[0], epochs=2)
    assert calls == []


def _spy_setup(monkeypatch):
    """The calls to each race's first pieces of work: the system, the
    problem and the reference minimum."""
    calls = []

    def spy(name, real):
        def called(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return called

    for owner, name in ((bench, "gen_linear_system"), (bench, "build_erm"),
                        (problems, "reference_minimum")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    return calls


_RACES = {
    "kaczmarz": lambda **kw: run_kaczmarz_race(20, 8, 0.5, max_epochs=2, **kw),
    "erm": lambda **kw: run_erm_race(_dataset(n=12, d=5), algos=("nu-acdm",), epochs=2,
                                     **kw),
}


@pytest.mark.parametrize("race", list(_RACES))
def test_races_reject_repeated_seeds_before_any_work(monkeypatch, race):
    """A race keeps one trace per (algorithm, seed): a repeated seed would
    run its cells again and drop their traces."""
    calls = _spy_setup(monkeypatch)
    with pytest.raises(ValueError, match="seeds must be distinct; got \\[1, 1\\]"):
        _RACES[race](seeds=[1, 1])
    assert calls == []


@pytest.mark.parametrize("eps", [math.nan, -1e-8, -math.inf, math.inf])
@pytest.mark.parametrize("race", list(_RACES))
def test_races_reject_a_bad_eps_before_any_work(monkeypatch, race, eps):
    """No record meets a NaN or negative target, so the race would run its
    whole budget and report NaN epochs."""
    calls = _spy_setup(monkeypatch)
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        _RACES[race](seeds=[0], eps=eps)
    assert calls == []


def test_beta_sweep_rejects_repeated_seeds_before_any_work(monkeypatch):
    """The sweep keys its cells by (beta, seed), so a repeated seed would
    run its cells twice and count their traces twice in each mean."""
    calls = _spy_setup(monkeypatch)
    with pytest.raises(ValueError, match="seeds must be distinct; got \\[0, 0\\]"):
        beta_sweep(_dataset(n=10, d=4), seeds=[0, 0], epochs=2)
    assert calls == []


# each driver with its epoch budget's keyword
_BUDGETED = {
    "kaczmarz": (lambda **kw: run_kaczmarz_race(20, 8, 0.5, seeds=[0], **kw), "max_epochs"),
    "erm": (lambda **kw: run_erm_race(_dataset(n=12, d=5), algos=("nu-acdm",), seeds=[0],
                                      **kw), "epochs"),
    "beta": (lambda **kw: beta_sweep(_dataset(n=10, d=4), seeds=[0], **kw), "epochs"),
}


@pytest.mark.parametrize("budget", [-1, 2.5, True, False, "2", None, np.float64(2.0)])
@pytest.mark.parametrize("driver", list(_BUDGETED))
def test_drivers_reject_a_budget_that_is_not_a_count_before_any_work(monkeypatch, driver,
                                                                     budget):
    """-1 used to fail inside SolverConfig after the reference was built,
    2.5 with a TypeError naming iters, and True ran one epoch."""
    calls = _spy_setup(monkeypatch)
    run, name = _BUDGETED[driver]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0; "
                       f"got {re.escape(repr(budget))}$"):
        run(**{name: budget})
    assert calls == []


@pytest.mark.parametrize("driver", list(_BUDGETED))
def test_drivers_take_a_numpy_integer_budget(driver):
    run, name = _BUDGETED[driver]
    run(**{name: np.int64(1)})


def test_penalty_runs_leave_the_optimizer_unloaded():
    """The penalty dual's reference minimum is computed with numpy alone,
    so a sweep and a penalty race never load scipy.optimize."""
    code = (
        "import sys\n"
        "from nucd import bench\n"
        "from nucd.data_io import gen_skewed_dataset, two_level_norms\n"
        "ds = gen_skewed_dataset(12, 5, two_level_norms(12, 0.25, hi=10.0), seed=3)\n"
        "bench.beta_sweep(ds, seeds=[0, 1], epochs=2, enforce=False)\n"
        "bench.run_erm_race(ds, 'penalty', algos=('nu-acdm-ns', 'rcdm'), seeds=[0],"
        " epochs=2)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["False"]


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


@pytest.mark.parametrize("algos, named", [(("nu-acdm", "acdm", "rcdm"), "nu-acdm, acdm"),
                                          (("rcdm", "acdm"), "acdm")],
                         ids=["defaults", "acdm"])
def test_erm_race_refuses_strongly_convex_solvers_on_the_penalty_dual(monkeypatch, algos,
                                                                      named):
    """The penalty dual has sigma = 0, which the strongly convex schedules
    cannot run on: the race names them before the reference minimum."""
    calls = []
    real = problems.reference_minimum

    def spy(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(problems, "reference_minimum", spy)
    with pytest.raises(ValueError, match=f"^{named} need a strongly convex dual, and the "
                       "penalty dual has sigma_beta = 0; nu-acdm-ns, rcdm and gd run on it$"):
        run_erm_race(_dataset(n=12, d=5), "penalty", algos=algos, seeds=[0], epochs=2)
    assert calls == []
    res = run_erm_race(_dataset(n=12, d=5), "penalty", algos=("nu-acdm-ns", "rcdm", "gd"),
                       seeds=[0], epochs=2)
    assert len(calls) == 1 and len(res.traces) == 3
