"""Command line front end.

Subcommands: gen (write instances), solve (one run, trace to CSV), bench
(experiment drivers), speedup (theory table), check (full invariant suite).
Every invocation prints a one-line JSON metadata record to stderr; data goes
to files or stdout.  Exit codes: 0 success, 1 usage error, 2 failed
guarantee or acceptance check, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, checks, problems, solvers
from .data_io import (
    Dataset,
    ParseError,
    gen_linear_system,
    gen_skewed_dataset,
    parse_libsvm,
    two_level_norms,
    write_libsvm,
    write_solution,
    write_trace,
)
from .solvers import SolverConfig

RNG_NAME = "numpy-pcg64"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _csv_floats(text):
    return tuple(float(v) for v in text.split(","))


def _csv_names(text):
    return tuple(v for v in text.split(",") if v)


def build_parser() -> _Parser:
    parser = _Parser(prog="nucd", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=("linsys", "dataset"), required=True)
    gen.add_argument("--m", type=int, default=300,
                     help="rows (linsys) / examples (dataset)")
    gen.add_argument("--n", type=int, default=100,
                     help="columns (linsys) / features (dataset)")
    gen.add_argument("--r", type=float, default=0.1,
                     help="fraction of rows at the high norm level")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one solver, write its trace")
    solve.add_argument("--problem", required=True,
                       choices=("kaczmarz", "ridge", "lasso", "penalty"))
    solve.add_argument("--algo", required=True,
                       choices=("nu-acdm", "nu-acdm-ns", "acdm", "rcdm",
                                "kaczmarz", "gd"))
    solve.add_argument("--beta", type=float, default=0.0)
    solve.add_argument("--lambda", dest="lam", type=float, default=0.1)
    solve.add_argument("--lambda2", dest="lam2", type=float, default=None)
    solve.add_argument("--epochs", type=int, default=40)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--data", default=None,
                       help="LibSVM input; a small generated default otherwise")
    solve.add_argument("--trace-out", default="-",
                       help="trace CSV path, '-' for stdout")
    solve.set_defaults(func=cmd_solve)

    bench_p = sub.add_parser("bench", help="run an experiment")
    bench_p.add_argument("--experiment", required=True,
                         choices=("kaczmarz-race", "erm-race", "beta-sweep"))
    bench_p.add_argument("--seeds", type=int, default=10,
                         help="number of seeds (0..K-1)")
    bench_p.add_argument("--out", default=None, help="output directory")
    bench_p.add_argument("--jobs", type=int, default=1)
    bench_p.add_argument("--m", type=int, default=300)
    bench_p.add_argument("--n", type=int, default=100)
    bench_p.add_argument("--d", type=int, default=20)
    bench_p.add_argument("--r", type=float, default=0.1)
    bench_p.add_argument("--variant", choices=("ridge", "lasso", "penalty"),
                         default="ridge")
    bench_p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    bench_p.add_argument("--lambda2", dest="lam2", type=float, default=None)
    bench_p.add_argument("--algos", type=_csv_names,
                         default=("nu-acdm", "acdm", "rcdm"))
    bench_p.add_argument("--betas", type=_csv_floats,
                         default=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    bench_p.add_argument("--epochs", type=int, default=None,
                         help="epoch budget (default: the experiment's own)")
    bench_p.add_argument("--eps", type=float, default=None,
                         help="race target (default: the experiment's own)")
    bench_p.add_argument("--instance-seed", type=int, default=0)
    bench_p.set_defaults(func=cmd_bench)

    speedup = sub.add_parser("speedup", help="print the speed-up table")
    speedup.add_argument("--r-list", type=float, nargs="+", required=True)
    speedup.add_argument("--m", type=int, default=300)
    speedup.add_argument("--n", type=int, default=100)
    speedup.set_defaults(func=cmd_speedup)

    check = sub.add_parser("check", help="run the acceptance suite")
    check.add_argument("--jobs", type=int, default=1)
    check.set_defaults(func=cmd_check)

    return parser


def _emit_metadata(args) -> None:
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "subcommand")
    }
    record = {
        "cmd": args.subcommand,
        "rng": RNG_NAME,
        "seed": params.get("seed"),
        "params": params,
    }
    print(json.dumps(record, default=str), file=sys.stderr)


def cmd_gen(args) -> int:
    if args.kind == "linsys":
        a, b, x_star = gen_linear_system(args.m, args.n, args.r, seed=args.seed)
        write_libsvm(Dataset(a, b), args.out)
        write_solution(x_star, args.out + ".soln")
    else:
        ds = gen_skewed_dataset(
            args.m, args.n, two_level_norms(args.m, args.r), seed=args.seed
        )
        write_libsvm(ds, args.out)
    return 0


_COORD_SOLVERS = {
    "nu-acdm": solvers.nu_acdm,
    "nu-acdm-ns": solvers.nu_acdm_ns,
    "acdm": solvers.acdm_baseline,
    "rcdm": solvers.rcdm,
}


def cmd_solve(args) -> int:
    if args.problem == "kaczmarz":
        if args.data is not None:
            ds = parse_libsvm(args.data)
            a, b, x_star = ds.features, ds.labels, None
        else:
            a, b, x_star = gen_linear_system(300, 100, 0.1, seed=0)
        dist = None
        if x_star is not None:
            dist = bench.RelErrToSolution(x_star, float(np.dot(x_star, x_star)))
        if args.algo == "kaczmarz":
            cfg = SolverConfig(iters=args.epochs * a.m, seed=args.seed,
                               trace_stride=a.m, dist_fn=dist)
            _x, trace = solvers.kaczmarz(a, b, np.zeros(a.d), cfg)
        else:
            oracle, profile = problems.build_kaczmarz(a, b, beta=args.beta)
            trace = _run_coord(args, oracle, profile, dist)
    else:
        if args.algo == "kaczmarz":
            raise _UsageError("--algo kaczmarz applies only to --problem kaczmarz")
        if args.data is not None:
            ds = parse_libsvm(args.data)
        else:
            ds = gen_skewed_dataset(100, 20, two_level_norms(100, 0.1), seed=0)
        if args.problem == "ridge":
            oracle, profile = problems.build_ridge_dual(
                ds.features, ds.labels, args.lam, beta=args.beta)
        elif args.problem == "lasso":
            lam2 = args.lam / 10.0 if args.lam2 is None else args.lam2
            oracle, profile = problems.build_lasso_dual(
                ds.features, ds.labels, args.lam, lam2, beta=args.beta)
        else:
            oracle, profile = problems.build_penalty_dual(
                ds.features, ds.labels, args.lam, beta=args.beta)
        trace = _run_coord(args, oracle, profile, None)

    out = sys.stdout if args.trace_out == "-" else args.trace_out
    write_trace([trace], out)
    return 0


def _run_coord(args, oracle, profile, dist):
    x0 = np.zeros(oracle.n)
    if args.algo == "gd":
        cfg = SolverConfig(iters=args.epochs, seed=args.seed,
                           trace_stride=1, dist_fn=dist)
        _x, trace = solvers.full_gd(
            oracle, problems.global_smoothness(oracle), x0, cfg)
        return trace
    cfg = SolverConfig(iters=args.epochs * oracle.n, seed=args.seed,
                       trace_stride=oracle.n, dist_fn=dist)
    _x, trace = _COORD_SOLVERS[args.algo](oracle, profile, x0, cfg)
    return trace


def cmd_bench(args) -> int:
    spec = bench.ExperimentSpec(
        experiment=args.experiment,
        seeds=tuple(range(args.seeds)),
        jobs=args.jobs,
        m=args.m,
        n=args.n,
        d=args.d,
        r=args.r,
        variant=args.variant,
        lam=args.lam,
        lam2=args.lam2,
        algos=args.algos,
        betas=args.betas,
        epochs=args.epochs,
        eps=args.eps,
        instance_seed=args.instance_seed,
    )
    result = bench.run_experiment(spec)

    if args.experiment == "beta-sweep":
        lines = ["beta,bound,mean_final_gap,ok"]
        lines += [
            f"{e.beta:g},{e.bound:.17g},{e.mean_final_gap:.17g},{int(e.ok)}"
            for e in result
        ]
        _write_lines(args.out, "sweep.csv", lines)
        return 0

    lines = bench.summary_lines(result)
    if args.out is None:
        _write_lines(None, "summary.csv", lines)
        return 0
    os.makedirs(args.out, exist_ok=True)
    _write_lines(args.out, "summary.csv", lines)
    write_trace(result.trace_list(), os.path.join(args.out, "traces.csv"))
    if result.primal_gaps:
        rows = ["algo,seed,record,primal_gap"]
        for (algo, seed), gaps in sorted(result.primal_gaps.items()):
            rows += [
                f"{algo},{seed},{j},{g:.17g}" for j, g in enumerate(gaps)
            ]
        _write_lines(args.out, "primal_gaps.csv", rows)
    return 0


def _write_lines(out_dir, name, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def cmd_speedup(args) -> int:
    table = bench.speedup_table(args.r_list, m=args.m, n=args.n)
    for r, factor in table:
        # measured column filled only by an actual race (bench subcommand)
        print(f"{float(r)},{factor:.6f},nan")
    return 0


def cmd_check(args) -> int:
    results = checks.run_all(jobs=args.jobs)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1

    _emit_metadata(args)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except solvers.InvariantViolation as err:
        print(f"guarantee violated: {err}", file=sys.stderr)
        return 2
    except problems.ConvergenceError as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"invalid value: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
