"""Command line front end.

Subcommands: gen (write instances), solve (one run, trace to CSV), bench
(experiment drivers), speedup (theory table), check (full invariant suite).
Every invocation whose values parse prints a one-line JSON metadata record
to stderr, strict JSON: a value that is not a finite number is refused
first.  Data goes to files or stdout.  Exit codes: 0 success, 1 usage error
or invalid value, 2 failed guarantee or acceptance check, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
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

RNG_NAME = "numpy-pcg64"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    # None means the default the help names; cmd_solve rejects a flag the
    # run does not read
    solve.add_argument("--beta", type=float, default=None,
                       help="geometry exponent; not read by kaczmarz or gd (default 0)")
    solve.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="ridge, lasso, penalty (default 0.1)")
    solve.add_argument("--lambda2", dest="lam2", type=float, default=None,
                       help="lasso only (default lambda/10)")
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
    bench_p.add_argument("--jobs", type=_positive_int, default=1)
    # experiment parameters default to None, meaning the driver's default;
    # cmd_bench rejects those the experiment does not read
    bench_p.add_argument("--m", type=int, default=None,
                         help="rows of the system (kaczmarz-race; default 300)")
    bench_p.add_argument("--n", type=int, default=None,
                         help="columns (kaczmarz-race) / examples (default 100)")
    bench_p.add_argument("--d", type=int, default=None,
                         help="features (erm-race, beta-sweep; default 20)")
    bench_p.add_argument("--r", type=float, default=None,
                         help="fraction of rows at the high norm level (default 0.1)")
    bench_p.add_argument("--variant", choices=("ridge", "lasso", "penalty"),
                         default=None, help="erm-race only (default ridge)")
    bench_p.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="erm-race, beta-sweep (default 0.1)")
    bench_p.add_argument("--lambda2", dest="lam2", type=float, default=None,
                         help="erm-race with --variant lasso (default lambda/10)")
    bench_p.add_argument("--algos", type=_csv_names, default=None,
                         help="erm-race only (default nu-acdm,acdm,rcdm)")
    bench_p.add_argument("--betas", type=_csv_floats, default=None,
                         help="beta-sweep only (default 0,0.2,...,1)")
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
    check.add_argument("--jobs", type=_positive_int, default=1)
    check.set_defaults(func=cmd_check)

    return parser


def _emit_metadata(args) -> None:
    """The run's metadata record, as strict JSON: a parameter that is not a
    finite number (NaN or inf) raises ValueError first, since JSON has no
    such number."""
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "subcommand")
    }
    for k, v in params.items():
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (v if isinstance(v, (list, tuple)) else (v,))):
            raise ValueError(f"{k} must be finite; got {v}")
    record = {
        "cmd": args.subcommand,
        "rng": RNG_NAME,
        "seed": params.get("seed"),
        "params": params,
    }
    print(json.dumps(record, default=str, allow_nan=False), file=sys.stderr)


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


def _flag(dest: str) -> str:
    """The option string of a parameter's destination."""
    return {"lam": "--lambda", "lam2": "--lambda2"}.get(dest, "--" + dest)


def _skewed_dataset(n=100, d=20, r=0.1, seed=0) -> Dataset:
    """The generated ERM dataset of solve and bench: n examples with d
    features, a fraction r of them at the high norm level."""
    return gen_skewed_dataset(n, d, two_level_norms(n, r), seed=seed)


def _solve_reads(problem: str, algo: str) -> set:
    """The optional parameters a (problem, algo) run reads."""
    reads = set()
    if problem != "kaczmarz":
        reads.add("lam")
    if problem == "lasso":
        reads.add("lam2")
    if algo not in ("kaczmarz", "gd"):  # gd steps by the global constant
        reads.add("beta")
    return reads


def cmd_solve(args) -> int:
    if args.algo == "kaczmarz" and args.problem != "kaczmarz":
        raise _UsageError("--algo kaczmarz applies only to --problem kaczmarz")
    reads = _solve_reads(args.problem, args.algo)
    ignored = [_flag(k) for k in ("beta", "lam", "lam2")
               if getattr(args, k) is not None and k not in reads]
    if ignored:
        raise _UsageError(f"solve --problem {args.problem} --algo {args.algo} "
                          f"does not read {', '.join(ignored)}")
    beta = 0.0 if args.beta is None else args.beta
    cell = dict(key=(args.algo, args.seed), algo=args.algo, epochs=args.epochs,
                seed=args.seed)
    if args.problem == "kaczmarz":
        if args.data is not None:
            ds = parse_libsvm(args.data)
            a, b, x_star = ds.features, ds.labels, None
        else:
            a, b, x_star = gen_linear_system(300, 100, 0.1, seed=0)
        if x_star is not None:
            cell["dist_fn"] = bench.RelErrToSolution(x_star, float(np.dot(x_star, x_star)))
        if args.algo == "kaczmarz":
            cell.update(matrix=a, b=b, x0=np.zeros(a.d))
        else:
            oracle, profile = problems.build_kaczmarz(a, b, beta=beta)
    else:
        ds = _skewed_dataset() if args.data is None else parse_libsvm(args.data)
        lam = 0.1 if args.lam is None else args.lam
        oracle, profile = bench.build_erm(ds, args.problem, lam, args.lam2, beta)
    if args.algo == "gd":
        cell["l_global"] = problems.global_smoothness(oracle)
    if args.algo != "kaczmarz":
        cell.update(oracle=oracle, profile=profile, x0=np.zeros(oracle.n))
    _key, trace, _extras = bench.run_cell(cell)

    out = sys.stdout if args.trace_out == "-" else args.trace_out
    write_trace([trace], out)
    return 0


# the parameter flags each experiment reads, by destination, with the driver
# keyword each sets; None marks n, d and r of the ERM experiments, which size
# the generated dataset
_BENCH_FLAGS = {
    "kaczmarz-race": {"m": "m", "n": "n", "r": "r", "epochs": "max_epochs",
                      "eps": "eps"},
    "erm-race": {"n": None, "d": None, "r": None, "variant": "variant",
                 "lam": "lam", "lam2": "lam2", "algos": "algos",
                 "epochs": "epochs", "eps": "eps"},
    "beta-sweep": {"n": None, "d": None, "r": None, "lam": "lam",
                   "betas": "beta_list", "epochs": "epochs"},
}


def cmd_bench(args) -> int:
    reads = dict(_BENCH_FLAGS[args.experiment])
    given = {k: v for k, v in vars(args).items() if v is not None
             and any(k in flags for flags in _BENCH_FLAGS.values())}
    if given.get("variant") != "lasso":
        reads.pop("lam2", None)  # only the lasso variant has a second weight
    ignored = [_flag(k) for k in given if k not in reads]
    if ignored:
        raise _UsageError(f"{args.experiment} does not read {', '.join(ignored)}")
    # only the flags given reach the driver: every default is the driver's
    params = {reads[k]: v for k, v in given.items() if reads[k] is not None}
    params.update(seeds=range(args.seeds), jobs=args.jobs)
    if args.experiment == "kaczmarz-race":
        result = bench.run_kaczmarz_race(instance_seed=args.instance_seed, **params)
    else:
        shape = {k: v for k, v in given.items() if reads[k] is None}
        dataset = _skewed_dataset(seed=args.instance_seed, **shape)
        if args.experiment == "erm-race":
            result = bench.run_erm_race(dataset, **params)
        else:
            result = bench.beta_sweep(dataset, enforce=False, **params)

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

    try:
        _emit_metadata(args)
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
