import inspect
import json

import numpy as np
import pytest

from nucd import bench, problems
from nucd.cli import main
from nucd.data_io import (gen_skewed_dataset, parse_libsvm, read_solution, read_trace,
                          two_level_norms)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_help_exits_zero(capsys):
    code, out, _err = run(capsys, "--help")
    assert code == 0
    code, _out, _err = run(capsys, "solve", "--help")
    assert code == 0


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("argv", [["bench", "--experiment", "kaczmarz-race"], ["check"]],
                         ids=["bench", "check"])
def test_jobs_below_one_is_a_usage_error(capsys, argv, jobs):
    code, _out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 1
    assert "--jobs: must be at least 1" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "solve", "--problem", "kaczmarz", "--algo", "nosuch")[0] == 1
    assert run(capsys, "gen", "--kind", "linsys", "--m", "5", "--n", "9",
               "--r", "0.5", "--out", "x")[0] == 1  # m < n
    # kaczmarz only projects linear systems
    assert run(capsys, "solve", "--problem", "ridge", "--algo", "kaczmarz")[0] == 1
    code, _out, err = run(capsys, "solve", "--problem", "ridge", "--algo", "nu-acdm",
                          "--lambda", "inf", "--epochs", "1")
    assert code == 1 and "lam must be finite" in err


def test_metadata_json_on_stderr(capsys):
    code, out, err = run(capsys, "speedup", "--r-list", "0.1")
    assert code == 0
    meta = json.loads(err.strip().splitlines()[0])
    assert meta["cmd"] == "speedup"
    assert meta["rng"] == "numpy-pcg64"


def test_speedup_output_format(capsys):
    # field order r,theory,measured; measured stays nan without a race
    code, out, _ = run(capsys, "speedup", "--r-list", "0.1", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0.1,1.737639,nan"
    assert lines[1] == "1.0,1.000000,nan"


def test_gen_solve_round_trip(tmp_path, capsys):
    sys_path = tmp_path / "sys.libsvm"
    code, *_ = run(capsys, "gen", "--kind", "linsys", "--m", "25", "--n", "8",
                   "--r", "0.2", "--seed", "3", "--out", str(sys_path))
    assert code == 0
    ds = parse_libsvm(sys_path)
    assert ds.n == 25 and ds.d == 8
    x_star = read_solution(str(sys_path) + ".soln")
    assert np.max(np.abs(ds.features.matvec(x_star) - ds.labels)) < 1e-12

    trace_path = tmp_path / "run.csv"
    code, *_ = run(capsys, "solve", "--problem", "kaczmarz", "--algo", "kaczmarz",
                   "--data", str(sys_path), "--epochs", "30", "--seed", "1",
                   "--trace-out", str(trace_path))
    assert code == 0
    traces = read_trace(trace_path)
    assert len(traces) == 1 and traces[0].algo == "kaczmarz"
    assert traces[0].values[-1] < traces[0].values[0]


def test_solve_default_instance_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        code, *_ = run(capsys, "solve", "--problem", "kaczmarz", "--algo", "nu-acdm",
                       "--seed", "7", "--epochs", "2", "--trace-out", str(p))
        assert code == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_solve_trace_to_stdout(capsys):
    code, out, _ = run(capsys, "solve", "--problem", "ridge", "--algo", "rcdm",
                       "--lambda", "0.2", "--epochs", "2", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "algo,seed,iter,epoch,value,dist_to_min"
    assert lines[1].startswith("rcdm,1,0,0,")
    assert len(lines) == 4  # header + records at 0, 1, 2 epochs


def test_solve_erm_variants(tmp_path, capsys):
    for problem, extra in [
        ("lasso", ["--lambda2", "0.01"]),
        ("penalty", []),
    ]:
        p = tmp_path / f"{problem}.csv"
        algo = "nu-acdm" if problem == "lasso" else "nu-acdm-ns"
        code, *_ = run(capsys, "solve", "--problem", problem, "--algo", algo,
                       "--lambda", "0.1", "--epochs", "3", "--seed", "0",
                       "--trace-out", str(p), *extra)
        assert code == 0
        tr = read_trace(p)[0]
        assert tr.values[-1] < tr.values[0]


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1 0:5\n")
    code, _out, err = run(capsys, "solve", "--problem", "kaczmarz",
                          "--algo", "kaczmarz", "--data", str(bad))
    assert code == 3
    assert "parse error" in err


def test_overflowing_index_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1 99999999999999999999:1\n")
    code, _out, err = run(capsys, "solve", "--problem", "kaczmarz",
                          "--algo", "kaczmarz", "--data", str(bad))
    assert code == 3
    assert f"parse error: {bad}:1:3: index 99999999999999999999 out of range" in err


def test_undecodable_byte_exits_three(tmp_path, capsys):
    """A Latin-1 byte in a comment is ignored; in a token it is a parse
    error naming its position."""
    data = tmp_path / "latin.libsvm"
    data.write_bytes(b"1 1:2 # caf\xe9\n2 2:3\n")
    code, *_ = run(capsys, "solve", "--problem", "kaczmarz", "--algo", "kaczmarz",
                   "--data", str(data), "--epochs", "1")
    assert code == 0
    data.write_bytes(b"1 1:2\n2 2:3\xe9\n")
    code, _out, err = run(capsys, "solve", "--problem", "kaczmarz", "--algo", "kaczmarz",
                          "--data", str(data), "--epochs", "1")
    assert code == 3
    assert f"parse error: {data}:2:3: bad value '3" in err


def test_missing_output_dir_exits_three(tmp_path, capsys):
    target = tmp_path / "nope" / "sys.libsvm"
    code, _out, err = run(capsys, "gen", "--kind", "linsys", "--m", "5", "--n", "2",
                          "--r", "0.5", "--out", str(target))
    assert code == 3
    assert "i/o error" in err


def test_bench_beta_sweep_writes_csv(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, *_ = run(capsys, "bench", "--experiment", "beta-sweep", "--seeds", "3",
                   "--n", "5", "--lambda", "0.2", "--betas", "0,1",
                   "--epochs", "6", "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,bound,mean_final_gap,ok"
    assert len(lines) == 3
    for line in lines[1:]:
        beta, bound, gap, ok = line.split(",")
        assert float(bound) > 0 and ok in ("0", "1")


def test_bench_race_writes_summary_and_traces(tmp_path, capsys):
    out_dir = tmp_path / "race"
    code, *_ = run(capsys, "bench", "--experiment", "kaczmarz-race", "--seeds", "2",
                   "--m", "30", "--n", "10", "--r", "0.5", "--eps", "1e-6",
                   "--out", str(out_dir))
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "algo,eps,median_epochs,speedup_theory,median_wall_s"
    assert len(summary) == 4
    traces = read_trace(out_dir / "traces.csv")
    assert {t.algo for t in traces} == {"nu-acdm", "acdm", "kaczmarz"}
    assert len(traces) == 6


def test_bench_eps_reaches_erm_race(tmp_path, capsys):
    out_dir = tmp_path / "erm"
    code, *_ = run(capsys, "bench", "--experiment", "erm-race", "--seeds", "1",
                   "--d", "5", "--epochs", "2", "--eps", "1e-2",
                   "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "summary.csv").read_text().strip().splitlines()[1:]
    assert rows
    assert all(row.split(",")[1] == "0.01" for row in rows)


def test_bench_epochs_cap_kaczmarz_race(tmp_path, capsys):
    # eps=0 is never reached, so every run spends its whole epoch budget
    out_dir = tmp_path / "race"
    code, *_ = run(capsys, "bench", "--experiment", "kaczmarz-race", "--seeds", "1",
                   "--m", "30", "--n", "10", "--r", "0.5", "--eps", "0",
                   "--epochs", "3", "--out", str(out_dir))
    assert code == 0
    traces = read_trace(out_dir / "traces.csv")
    assert {t.algo for t in traces} == {"nu-acdm", "acdm", "kaczmarz"}
    assert all(t.epochs[-1] == 3.0 for t in traces)


def test_bench_rejects_eps_for_beta_sweep(capsys):
    code, _out, err = run(capsys, "bench", "--experiment", "beta-sweep", "--seeds", "1",
                          "--n", "4", "--eps", "1e-3")
    assert code == 1
    assert "eps" in err


@pytest.mark.parametrize(
    "experiment, flag, value",
    [
        ("kaczmarz-race", "--d", "5"),
        ("kaczmarz-race", "--variant", "lasso"),
        ("kaczmarz-race", "--lambda", "0.2"),
        ("kaczmarz-race", "--lambda2", "0.01"),
        ("kaczmarz-race", "--algos", "nu-acdm"),
        ("kaczmarz-race", "--betas", "0,1"),
        ("erm-race", "--m", "20"),
        ("erm-race", "--betas", "0,1"),
        ("erm-race", "--lambda2", "0.01"),  # the default variant is ridge
        ("beta-sweep", "--m", "20"),
        ("beta-sweep", "--variant", "lasso"),
        ("beta-sweep", "--lambda2", "0.01"),
        ("beta-sweep", "--algos", "nu-acdm"),
    ],
)
def test_bench_rejects_flags_the_experiment_ignores(tmp_path, capsys, experiment, flag, value):
    out_dir = tmp_path / "out"
    code, _out, err = run(capsys, "bench", "--experiment", experiment, "--seeds", "1",
                          flag, value, "--out", str(out_dir))
    assert code == 1
    assert flag in err
    assert not out_dir.exists()


@pytest.mark.parametrize("algos", ["foo", "kaczmarz", "nu-acdm,nu-acdm"])
def test_bench_rejects_bad_erm_race_algos_before_any_work(monkeypatch, capsys, algos):
    calls = []
    real = problems.reference_minimum

    def spy(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(problems, "reference_minimum", spy)
    code, out, err = run(capsys, "bench", "--experiment", "erm-race", "--seeds", "1",
                         "--n", "12", "--d", "5", "--epochs", "2", "--algos", algos)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith(
        "invalid value: algos must be distinct names from nu-acdm, nu-acdm-ns, acdm, rcdm, gd;")
    assert calls == []


@pytest.mark.parametrize("experiment, name", [("kaczmarz-race", "max_epochs"),
                                              ("erm-race", "epochs"),
                                              ("beta-sweep", "epochs")])
def test_bench_rejects_a_negative_epoch_budget_before_any_work(monkeypatch, capsys,
                                                              experiment, name):
    calls = []
    real = problems.reference_minimum

    def spy(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(problems, "reference_minimum", spy)
    code, out, err = run(capsys, "bench", "--experiment", experiment, "--seeds", "1",
                         "--epochs", "-1")
    assert code == 1 and out == "" and calls == []
    assert err.splitlines()[-1] == f"invalid value: {name} must be an integer >= 0; got -1"


@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-8"])
@pytest.mark.parametrize("experiment", ["kaczmarz-race", "erm-race"])
def test_bench_rejects_a_bad_eps_before_any_work(monkeypatch, capsys, experiment, eps):
    """A NaN target used to run the race's whole budget and report NaN
    epochs.  A value that is not finite is refused before the metadata
    record, which is strict JSON, and a negative one by the race."""
    calls = []
    monkeypatch.setattr(bench, "_execute", lambda *args: calls.append(args))
    code, out, err = run(capsys, "bench", "--experiment", experiment, "--seeds", "1",
                         f"--eps={eps}")
    assert code == 1 and out == "" and calls == []
    if eps in ("nan", "inf"):
        assert err == f"invalid value: eps must be finite; got {eps}\n"
    else:
        assert err.splitlines()[-1] == ("invalid value: eps must be finite and nonnegative; "
                                        "got -1e-08")
    assert "Traceback" not in err


def test_metadata_is_strict_json(capsys):
    """The metadata record parses with NaN and inf refused, and a list
    flag holding a value that is not finite is refused."""
    def refuse(constant):
        raise ValueError(constant)

    code, _out, err = run(capsys, "speedup", "--r-list", "0.1", "0.5")
    assert code == 0
    assert json.loads(err.splitlines()[0], parse_constant=refuse)["params"]["r_list"] == [0.1, 0.5]
    code, out, err = run(capsys, "speedup", "--r-list", "0.1", "nan")
    assert (code, out) == (1, "")
    assert err == "invalid value: r_list must be finite; got [0.1, nan]\n"


class _Called(Exception):
    pass


@pytest.mark.parametrize(
    "experiment, driver, want",
    [
        ("kaczmarz-race", "run_kaczmarz_race",
         dict(m=300, n=100, r=0.1, max_epochs=4000, eps=1e-8, instance_seed=0)),
        ("erm-race", "run_erm_race",
         dict(variant="ridge", lam=0.1, lam2=None, algos=("nu-acdm", "acdm", "rcdm"),
              epochs=40, eps=None)),
        ("beta-sweep", "beta_sweep",
         dict(lam=0.1, beta_list=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), epochs=40,
              enforce=False)),
    ],
)
def test_bench_defaults_are_the_drivers(monkeypatch, experiment, driver, want):
    """Without parameter flags nucd bench runs each experiment at these
    values; the CLI passes only the flags given, so they are the driver's."""
    real = getattr(bench, driver)
    calls = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise _Called

    monkeypatch.setattr(bench, driver, spy)
    with pytest.raises(_Called):
        main(["bench", "--experiment", experiment])
    (got,) = calls
    assert {k: got[k] for k in want} == want
    assert list(got["seeds"]) == list(range(10)) and got["jobs"] == 1
    if experiment != "kaczmarz-race":
        # 100 examples with 20 features, a tenth of them heavy
        ref = gen_skewed_dataset(100, 20, two_level_norms(100, 0.1), seed=0)
        got_data = got["dataset"]
        assert np.array_equal(got_data.features.to_dense(), ref.features.to_dense())
        assert np.array_equal(got_data.labels, ref.labels)


def test_bench_accepts_lambda2_for_lasso_erm_race(tmp_path, capsys):
    out_dir = tmp_path / "erm"
    code, *_ = run(capsys, "bench", "--experiment", "erm-race", "--seeds", "1",
                   "--n", "20", "--d", "5", "--variant", "lasso", "--lambda2", "0.02",
                   "--algos", "nu-acdm", "--epochs", "2", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "summary.csv").exists()


def test_bench_summary_reports_median_wall_seconds(tmp_path, capsys):
    out_dir = tmp_path / "race"
    code, *_ = run(capsys, "bench", "--experiment", "kaczmarz-race", "--seeds", "3",
                   "--m", "30", "--n", "10", "--r", "0.5", "--eps", "1e-6",
                   "--out", str(out_dir))
    assert code == 0
    header, *rows = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert header.split(",")[-1] == "median_wall_s"
    walls = {row.split(",")[0]: float(row.split(",")[-1]) for row in rows}
    assert set(walls) == {"nu-acdm", "acdm", "kaczmarz"}
    assert all(0.0 < w < 60.0 for w in walls.values())


@pytest.mark.parametrize(
    "argv, flags",
    [
        # the projection method reads no geometry and no regularizer
        (["--problem", "kaczmarz", "--algo", "kaczmarz", "--lambda", "5",
          "--lambda2", "3", "--beta", "0.5"], ["--beta", "--lambda", "--lambda2"]),
        (["--problem", "ridge", "--algo", "rcdm", "--lambda2", "0.01"], ["--lambda2"]),
        (["--problem", "penalty", "--algo", "nu-acdm-ns", "--lambda2", "0.01"],
         ["--lambda2"]),
        # gd steps by the global smoothness constant, with no profile
        (["--problem", "ridge", "--algo", "gd", "--beta", "0.5"], ["--beta"]),
        (["--problem", "kaczmarz", "--algo", "nu-acdm", "--lambda", "0.2"], ["--lambda"]),
        (["--problem", "kaczmarz", "--algo", "rcdm", "--lambda2", "0.01"], ["--lambda2"]),
        (["--problem", "kaczmarz", "--algo", "gd", "--lambda", "0.2", "--lambda2", "0.01"],
         ["--lambda", "--lambda2"]),
    ],
)
def test_solve_rejects_flags_the_run_does_not_read(tmp_path, capsys, argv, flags):
    out = tmp_path / "trace.csv"
    code, _out, err = run(capsys, "solve", *argv, "--epochs", "1",
                          "--trace-out", str(out))
    assert code == 1
    message = err.strip().splitlines()[-1]
    assert message.startswith("usage error: ")
    assert message.endswith("does not read " + ", ".join(flags))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "kaczmarz", "--algo", "nu-acdm", "--beta", "0.5"],
        ["--problem", "lasso", "--algo", "rcdm", "--lambda", "0.2", "--lambda2", "0.02",
         "--beta", "0.3"],
        ["--problem", "ridge", "--algo", "gd", "--lambda", "0.2"],
    ],
)
def test_solve_flags_that_are_read_reach_the_run(tmp_path, capsys, argv):
    """A flag the run reads changes its trace."""
    traces = []
    for extra in ([], argv[4:]):
        out = tmp_path / f"trace{len(traces)}.csv"
        code, *_ = run(capsys, "solve", *argv[:4], *extra, "--epochs", "2",
                       "--trace-out", str(out))
        assert code == 0
        traces.append(read_trace(out)[0].values)
    assert not np.array_equal(traces[0], traces[1])


@pytest.mark.parametrize("algo", ["nu-acdm", "acdm"])
def test_strongly_convex_solvers_on_the_penalty_dual_are_invalid_values(capsys, algo):
    """sigma = 0 on the penalty dual: the solver names itself and the ones
    that run there, and the CLI exits 1 without a traceback."""
    code, out, err = run(capsys, "solve", "--problem", "penalty", "--algo", algo,
                         "--epochs", "2")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (f"invalid value: {algo} needs a strongly convex profile "
                                    "(sigma_beta > 0); nu-acdm-ns, rcdm and gd run at "
                                    "sigma_beta = 0")
    assert "Traceback" not in err


def test_bench_runs_the_other_solvers_on_the_penalty_dual(capsys):
    code, out, err = run(capsys, "bench", "--experiment", "erm-race", "--variant", "penalty",
                         "--algos", "nu-acdm-ns,rcdm", "--seeds", "2", "--epochs", "2")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["nu-acdm-ns", "rcdm"]
    code, out, err = run(capsys, "bench", "--experiment", "erm-race", "--variant", "penalty",
                         "--seeds", "2", "--epochs", "2")
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("invalid value: nu-acdm, acdm need a strongly "
                                           "convex dual")
