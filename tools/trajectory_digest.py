"""Print two SHA-1s per (problem, solver, check level) trajectory, and two
per trace of tiny bench experiment runs: a full digest and a digest of
the record iterations alone.

A solver line is `problem solver check_level sha1 iters_sha1`, the full
digest taken over the returned point, trace.iters, trace.values,
trace.dists and the trace's two invariant margins, the second over
trace.iters alone.  A change that moves only rounding changes full digests
and no iters digest: every record and every early stop stays where it was.
The problems are the Kaczmarz quadratic, ridge, Lasso and penalty duals on
rows of all d columns ("dense"), rows of a few scattered columns
("scattered") and a mix of empty rows, contiguous runs, scattered, full and
all-but-one rows ("mixed"); the solvers are nu_acdm, acdm_baseline,
generalized_accel, nu_acdm_ns and rcdm, plus kaczmarz on the three linear
systems.  Every cell above has a trace stride of 20 steps.  That is at
least _BLOCK_MIN (16), so the dense cells at check level "off" take block
steps, but below the 64 at which rows of a few columns take them, so the
scattered and mixed Kaczmarz systems (kaczmarz), ridge and Lasso duals
(all five solvers) and penalty duals (nu_acdm_ns and rcdm) are digested
once more, unchecked and with a trace stride of 64 steps.
None of those runs folds the strongly convex implicit coefficient c (that
takes some 13 000 steps there), so the last solver cells run a 2 x 2
Kaczmarz quadratic whose c folds about every 338 steps: nu_acdm,
acdm_baseline, generalized_accel and nu_acdm_ns for a fixed FOLD_STEPS
steps whatever --epochs is, at a stride of 1 step at each check level and
unchecked at strides of 64 and 997 steps, where they take block steps.
Every blocked cell here takes the row path: the Gram path of dense linear
systems (solvers._GramRows) needs row blocks shorter than 80 steps, so
at least 41 columns, and the systems here have at most 12.  The blocked
Gram path is covered by tests/test_block_steps.py and by the 300 x 100
kaczmarz-race acceptance check.

The last line, `parse-libsvm parse_libsvm rows=R sha1 structure_sha1`,
digests what parse_libsvm reads from one generated LibSVM file holding
signed zeros, "+"-signed numbers, subnormals, exponents, 17-digit values
and comments: the labels, indptr, indices and data, then indptr and
indices alone.

An experiment line is `experiment algo seed=S sha1 iters_sha1` for each
trace of a run_kaczmarz_race, a ridge run_erm_race (gd and nu-acdm; the digest
covers the primal gaps too) and a lasso run_erm_race, the full digest taken
over trace.iters, values, dists and units_per_epoch; and
`beta-sweep nu-acdm-ns beta=B sha1 epochs_sha1` for each beta_sweep entry,
over its bound, mean final gap, epochs and mean gap trace, then over its
epochs alone.

A change meant to leave every trajectory bitwise unchanged is checked by
digesting the parent's source with this same script and diffing:

    mkdir -p /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python tools/trajectory_digest.py --src /tmp/parent/src > parent.txt
    python tools/trajectory_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import tempfile

import numpy as np

CHECK_LEVELS = ("off", "cheap", "full")
# steps of each fold cell: 8 folds of c at tau = 0.264
FOLD_STEPS = 3000
ROW_KINDS = ("dense", "scattered", "mixed")


def _rows(kind, m, d, rng):
    """An m x d dense array whose rows are all of one kind, or mixed."""
    dense = np.zeros((m, d))
    for i in range(m):
        row_kind = kind if kind != "mixed" else ("empty", "run", "scattered",
                                                 "dense", "all_but_one")[i % 5]
        if row_kind == "run":
            lo = int(rng.integers(0, d - 5))
            dense[i, lo:lo + 5] = rng.standard_normal(5)
        elif row_kind == "scattered":
            dense[i, rng.choice(d, size=4, replace=False)] = rng.standard_normal(4)
        elif row_kind in ("dense", "all_but_one"):
            dense[i] = rng.standard_normal(d)
            if row_kind == "all_but_one":
                dense[i, rng.integers(d)] = 0.0
        # norms spread over two orders of magnitude
        dense[i] *= 10.0 if i % 4 == 0 else 1.0
    return dense


def problems():
    """{name: (oracle, profile)} and {name: (A, b)} for the kaczmarz solver."""
    from nucd.matrix import SparseRowMatrix
    from nucd.problems import (build_kaczmarz, build_lasso_dual,
                               build_penalty_dual, build_ridge_dual)

    oracles, systems = {}, {}
    for seed, kind in enumerate(ROW_KINDS):
        rng = np.random.default_rng(seed)
        m, d = 40, (12 if kind == "dense" else 30)
        # Kaczmarz rows may not be empty: an empty row gets one entry
        a_dense = _rows(kind, m, d, rng)
        a_dense[~a_dense.any(axis=1), 0] = 1.0
        a = SparseRowMatrix.from_dense(a_dense)
        b = a.matvec(rng.standard_normal(d))
        systems[kind] = (a, b)
        oracles[f"kaczmarz-{kind}"] = build_kaczmarz(a, b, beta=0.5)
        data = SparseRowMatrix.from_dense(_rows(kind, m, d, rng))
        labels = rng.standard_normal(m)
        labels[::9] = -0.0
        oracles[f"ridge-{kind}"] = build_ridge_dual(data, labels, 0.1)
        oracles[f"lasso-{kind}"] = build_lasso_dual(data, labels, 0.1, 0.01, beta=0.3)
        oracles[f"penalty-{kind}"] = build_penalty_dual(data, labels, 0.1, beta=0.4)
    return oracles, systems


def _sha1(*parts) -> str:
    """SHA-1 over the bytes of each (array, dtype) part, in order."""
    h = hashlib.sha1()
    for arr, dtype in parts:
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def _digest(point, trace) -> tuple[str, str]:
    return (_sha1((point, np.float64), (trace.iters, np.int64),
                  (trace.values, np.float64), (trace.dists, np.float64),
                  ([trace.max_descent_violation, trace.max_mirror_residual],
                   np.float64)),
            _sha1((trace.iters, np.int64)))


def cells(epochs: int):
    """Yield (problem, solver, check_level, sha1, iters_sha1) for every
    cell."""
    from nucd import solvers
    from nucd.matrix import SparseRowMatrix
    from nucd.problems import build_kaczmarz

    def norm_sq(x, agg, value):
        return float(np.dot(x, x))

    def start(n):
        x0 = np.linspace(-0.7, 0.4, n)
        x0[::7] = -0.0
        return x0

    runs = {"nu_acdm": solvers.nu_acdm, "acdm_baseline": solvers.acdm_baseline,
            "generalized_accel": lambda o, p, x, c: solvers.generalized_accel(
                o, p, x, c, solvers.rcdm_probabilities(p)),
            "nu_acdm_ns": solvers.nu_acdm_ns, "rcdm": solvers.rcdm}
    def solvable(prof):
        # the strongly convex schedules need sigma > 0
        return runs if prof.sigma_beta > 0.0 else {k: runs[k] for k in ("nu_acdm_ns", "rcdm")}

    oracles, systems = problems()
    for name, (oracle, prof) in oracles.items():
        n = oracle.n
        for solver, run in solvable(prof).items():
            for level in CHECK_LEVELS:
                cfg = solvers.SolverConfig(iters=epochs * n, seed=3,
                                           trace_stride=n // 2, check_level=level,
                                           dist_fn=norm_sq)
                yield (name, solver, level, *_digest(*run(oracle, prof, start(n), cfg)))
    for kind, (a, b) in systems.items():
        for level in CHECK_LEVELS:
            cfg = solvers.SolverConfig(iters=epochs * a.m, seed=3,
                                       trace_stride=a.m // 2, check_level=level,
                                       dist_fn=norm_sq)
            out = solvers.kaczmarz(a, b, start(a.d), cfg)
            yield (f"linsys-{kind}", "kaczmarz", level, *_digest(*out))
    for kind in ("scattered", "mixed"):
        # a stride of 64 steps, at which rows of a few columns take blocks
        a, b = systems[kind]
        cfg = solvers.SolverConfig(iters=epochs * a.m, seed=3, trace_stride=64,
                                   dist_fn=norm_sq)
        out = solvers.kaczmarz(a, b, start(a.d), cfg)
        yield (f"linsys-{kind}-stride64", "kaczmarz", "off", *_digest(*out))
    for name in ("ridge-scattered", "ridge-mixed", "lasso-scattered", "lasso-mixed",
                 "penalty-scattered", "penalty-mixed"):
        oracle, prof = oracles[name]
        n = oracle.n
        for solver, run in solvable(prof).items():
            cfg = solvers.SolverConfig(iters=epochs * n, seed=3, trace_stride=64,
                                       dist_fn=norm_sq)
            yield (f"{name}-stride64", solver, "off",
                   *_digest(*run(oracle, prof, start(n), cfg)))
    # tau = 0.264 on these rows, so c falls by rho = 0.54 per step
    a = SparseRowMatrix.from_dense(np.array([[1.0, 0.3], [0.2, 2.0]]))
    oracle, prof = build_kaczmarz(a, np.array([1.0, -1.0]))
    for stride, levels in ((1, CHECK_LEVELS), (64, ("off",)), (997, ("off",))):
        for solver in ("nu_acdm", "acdm_baseline", "generalized_accel", "nu_acdm_ns"):
            for level in levels:
                cfg = solvers.SolverConfig(iters=FOLD_STEPS, seed=3, trace_stride=stride,
                                           check_level=level, dist_fn=norm_sq)
                yield (f"fold-2x2-stride{stride}", solver, level,
                       *_digest(*runs[solver](oracle, prof, start(2), cfg)))


def driver_cells(epochs: int):
    """Yield (experiment, algo, seed or beta, sha1, iters_sha1) for every
    trace of tiny runs of the three bench experiments.  Every parameter
    that once had no default (m, n, r, variant, lam) is passed, so --src can
    digest a checkout from before those functions had defaults."""
    from nucd import bench
    from nucd.data_io import gen_skewed_dataset, two_level_norms

    def dataset(n, d, r, seed):
        return gen_skewed_dataset(n, d, two_level_norms(n, r), seed=seed)

    races = {
        "kaczmarz-race": bench.run_kaczmarz_race(
            30, 10, 0.5, seeds=[0, 1], eps=1e-6, max_epochs=epochs, instance_seed=4),
        "erm-race-ridge": bench.run_erm_race(
            dataset(24, 6, 0.25, 5), "ridge", 0.1, algos=("gd", "nu-acdm"),
            seeds=[0, 1], epochs=epochs),
        "erm-race-lasso": bench.run_erm_race(
            dataset(20, 8, 0.3, 6), "lasso", 0.1, 0.01,
            algos=("nu-acdm", "acdm", "rcdm"), seeds=[2],
            epochs=epochs, eps=1e-9),
    }
    for name, race in races.items():
        for (algo, seed), trace in sorted(race.traces.items()):
            gaps = race.primal_gaps.get((algo, seed), [])
            yield (name, algo, f"seed={seed}",
                   _sha1((trace.iters, np.int64), (trace.values, np.float64),
                         (trace.dists, np.float64), ([trace.units_per_epoch], np.int64),
                         (gaps, np.float64)),
                   _sha1((trace.iters, np.int64)))
    entries = bench.beta_sweep(dataset(12, 4, 0.3, 7), 0.1, beta_list=(0.0, 0.5, 1.0),
                               seeds=range(3), epochs=epochs, enforce=False)
    for e in entries:
        yield ("beta-sweep", "nu-acdm-ns", f"beta={e.beta:g}",
               _sha1(([e.bound, e.mean_final_gap], np.float64),
                     (e.epochs, np.float64), (e.mean_gap_trace, np.float64)),
               _sha1((e.epochs, np.float64)))


def parse_cells():
    """Yield (name, reader, rows, sha1, structure_sha1) for one generated
    LibSVM file."""
    from nucd.data_io import parse_libsvm

    rng = np.random.default_rng(8)
    specials = ["0", "-0", "-0.0", "+1", "+2.5e-3", "5e-324", "-4.9406564584124654e-324",
                "2.2250738585072009e-308", "1e-300", "-2.5E+10", "1e5", "7e-06",
                "-1.2345678901234567e+150"]
    lines = ["# signed zeros, subnormals, exponents and 17-digit values"]
    for i in range(48):
        cols = np.sort(rng.choice(30, size=rng.integers(0, 6), replace=False)) + 1
        nums = [specials[j % len(specials)] if j % 3 == 0 else
                f"{rng.standard_normal() * 10.0 ** rng.integers(-12, 12):.17g}"
                for j in rng.integers(0, 99, size=cols.size + 1)]
        line = " ".join([nums[0]] + [f"{c}:{v}" for c, v in zip(cols, nums[1:])])
        lines.append(line + ("  # row %d" % i if i % 11 == 0 else ""))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "digest.libsvm"
        path.write_text("\n".join(lines) + "\n")
        ds = parse_libsvm(path)
    f = ds.features
    yield ("parse-libsvm", "parse_libsvm", f"rows={ds.n}",
           _sha1((ds.labels, np.float64), (f.indptr, np.int64), (f.indices, np.int64),
                 (f.data, np.float64)),
           _sha1((f.indptr, np.int64), (f.indices, np.int64)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=20,
                        help="steps per cell, in epochs (default 20)")
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the nucd package to digest")
    args = parser.parse_args(argv)
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")
    sys.path.insert(0, args.src)
    import nucd

    if not pathlib.Path(nucd.__file__).resolve().is_relative_to(
            pathlib.Path(args.src).resolve()):
        parser.error(f"nucd imports from {nucd.__file__}, not from {args.src}")
    for cell in cells(args.epochs):
        print(*cell)
    for cell in driver_cells(args.epochs):
        print(*cell)
    for cell in parse_cells():
        print(*cell)
    return 0


if __name__ == "__main__":
    sys.exit(main())
