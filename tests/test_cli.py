import json

import numpy as np
import pytest

from nucd.cli import main
from nucd.data_io import parse_libsvm, read_solution, read_trace


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_help_exits_zero(capsys):
    code, out, _err = run(capsys, "--help")
    assert code == 0
    code, _out, _err = run(capsys, "solve", "--help")
    assert code == 0


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "solve", "--problem", "kaczmarz", "--algo", "nosuch")[0] == 1
    assert run(capsys, "gen", "--kind", "linsys", "--m", "5", "--n", "9",
               "--r", "0.5", "--out", "x")[0] == 1  # m < n
    # kaczmarz only projects linear systems
    assert run(capsys, "solve", "--problem", "ridge", "--algo", "kaczmarz")[0] == 1


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


def test_missing_output_dir_exits_three(tmp_path, capsys):
    target = tmp_path / "nope" / "sys.libsvm"
    code, _out, err = run(capsys, "gen", "--kind", "linsys", "--m", "5", "--n", "2",
                          "--r", "0.5", "--out", str(target))
    assert code == 3
    assert "i/o error" in err


def test_bench_beta_sweep_writes_csv(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, *_ = run(capsys, "bench", "--experiment", "beta-sweep", "--seeds", "3",
                   "--m", "20", "--n", "5", "--lambda", "0.2", "--betas", "0,1",
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
    assert summary[0] == "algo,eps,median_epochs,speedup_theory"
    assert len(summary) == 4
    traces = read_trace(out_dir / "traces.csv")
    assert {t.algo for t in traces} == {"nu-acdm", "acdm", "kaczmarz"}
    assert len(traces) == 6


def test_bench_eps_reaches_erm_race(tmp_path, capsys):
    out_dir = tmp_path / "erm"
    code, *_ = run(capsys, "bench", "--experiment", "erm-race", "--seeds", "1",
                   "--m", "20", "--d", "5", "--epochs", "2", "--eps", "1e-2",
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
                          "--m", "10", "--n", "4", "--eps", "1e-3")
    assert code == 1
    assert "eps" in err
