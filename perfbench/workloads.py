"""The four benchmark workloads.

A workload splits into inputs(), made outside any timed region from the
run seed and the pass number, solve(), the timed work that calls into nucd
exactly as a user would, and check(), which verifies one pass's outputs
untimed; check_run() verifies what needs every pass of the run.  Passes are
kept short and every pass draws fresh sampling seeds, so a run's medians
cover many independent cells and outlast the seconds-long slow spells of a
shared machine.  Each workload's `primary` solver is the one whose time to
target is reported as tte_s.p50.
"""

from __future__ import annotations

import os

import numpy as np

import gen
from nucd import bench, data_io, problems, solvers


def seeds_from(entropy: list[int], count: int) -> list[int]:
    """count independent 32-bit seeds derived from entropy, e.g. [run seed,
    pass number]."""
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


def first_epoch_below(trace, eps):
    """Epoch of the first record with dist <= eps, or NaN if none."""
    hit = np.flatnonzero(trace.dists <= eps)
    return float(trace.epochs[hit[0]]) if hit.size else float("nan")


class Workload:
    """Defaults shared by the workloads below."""

    def check_run(self, cells) -> list[str]:
        """Failures visible only across the run's cells."""
        return []


class LinsysRace(Workload):
    """bench.run_kaczmarz_race on a fresh 300x100 system each pass."""

    name = "linsys-race"
    primary = "nu-acdm"
    eps = 1e-8
    seeds_per_pass = 1

    def inputs(self, seed, pass_no, work_dir):
        instance, *seeds = seeds_from([seed, pass_no], 1 + self.seeds_per_pass)
        return {"instance": instance, "seeds": seeds}

    def solve(self, inp):
        return bench.run_kaczmarz_race(
            300, 100, 0.1, seeds=inp["seeds"], eps=self.eps,
            instance_seed=inp["instance"], jobs=1,
        )

    def check(self, inp, race, cells):
        failures = [f"{c.algo} seed {c.seed} missed {self.eps:g}"
                    for c in cells if not c.reached]
        return len(cells), failures

    def check_run(self, cells):
        med = [float(np.median([c.epochs for c in cells if c.algo == a]))
               for a in bench.KACZMARZ_RACE_ALGOS]
        if med[0] < med[1] < med[2]:
            return []
        return [f"median epochs not ordered nu-acdm < acdm < kaczmarz: {med}"]


class BetaSweep(Workload):
    """bench.beta_sweep on a fresh 30x8 penalty dual each pass."""

    name = "beta-sweep"
    primary = "nu-acdm-ns"
    eps = None  # fixed 20-epoch horizon; the bound is checked per beta
    seeds_per_pass = 20

    def inputs(self, seed, pass_no, work_dir):
        instance, *seeds = seeds_from([seed, pass_no], 1 + self.seeds_per_pass)
        return {"instance": instance, "seeds": seeds}

    def solve(self, inp):
        ds = data_io.gen_skewed_dataset(
            30, 8, data_io.two_level_norms(30, 0.3), seed=inp["instance"]
        )
        return bench.beta_sweep(ds, lam=0.1, seeds=inp["seeds"], epochs=20,
                                enforce=False, jobs=1)

    def check(self, inp, entries, cells):
        failures = [
            f"beta={e.beta:g}: mean final gap {e.mean_final_gap:.3e} > 1.2 * bound {e.bound:.3e}"
            for e in entries if not e.ok
        ]
        if len(entries) != 6:
            failures.append(f"expected 6 betas, got {len(entries)}")
        return len(entries), failures


class DualityGap:
    """dist = P(w(y)) + smoothing + D(y), recomputed from y alone so the
    stop rule does not trust the solver's incremental aggregate."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __call__(self, y, aggregate, value):
        return problems.duality_gap(self.oracle, y)


class SparseLasso(Workload):
    """parse_libsvm -> build_lasso_dual -> nu_acdm and rcdm to gap 1e-8."""

    name = "sparse-lasso"
    primary = "nu-acdm"
    eps = 1e-8
    seeds_per_pass = 1
    shape = (500, 10_000, 20)  # examples, features, nonzeros per row
    max_epochs = 400

    def inputs(self, seed, pass_no, work_dir):
        instance, *seeds = seeds_from([seed, pass_no], 1 + self.seeds_per_pass)
        m, d, k = self.shape
        return {"path": gen.lasso_file(work_dir, instance, m, d, k), "seeds": seeds}

    def solve(self, inp):
        m, d, _ = self.shape
        ds = data_io.parse_libsvm(inp["path"], n_features=d)
        oracle, profile = problems.build_lasso_dual(ds.features, ds.labels, 0.1, 0.01)
        finals = []
        for run in (solvers.nu_acdm, solvers.rcdm):
            for s in inp["seeds"]:
                cfg = solvers.SolverConfig(
                    iters=self.max_epochs * m, seed=s, trace_stride=m // 4,
                    dist_fn=DualityGap(oracle), stop_when_dist_below=self.eps,
                )
                y, _ = run(oracle, profile, np.zeros(m), cfg)
                finals.append(y)
        return oracle, finals

    def check(self, inp, out, cells):
        oracle, finals = out
        failures = []
        for c, y in zip(cells, finals):
            gap = problems.duality_gap(oracle, y)
            rounding = 1e-12 * max(1.0, abs(oracle.value(y)))
            if not -rounding <= gap <= self.eps:
                failures.append(f"{c.algo} seed {c.seed}: final gap {gap:.3e}")
        if len(finals) != len(cells):
            failures.append(f"{len(cells)} solver cells for {len(finals)} results")
        return len(finals), failures


class SparseIngest(Workload):
    """parse_libsvm on a large consistent system, then solvers.kaczmarz to
    relative error 1e-6.  The instance is drawn once per run (its file is
    the expensive input) and re-parsed by every pass."""

    name = "sparse-ingest"
    primary = "kaczmarz"
    eps = 1e-6
    seeds_per_pass = 1
    shape = (50_000, 2_500, 10)  # rows, columns, nonzeros per row
    max_epochs = 100

    def inputs(self, seed, pass_no, work_dir):
        m, d, k = self.shape
        (instance,) = seeds_from([seed], 1)
        path, x_star = gen.ingest_file(work_dir, instance, m, d, k)
        return {"path": path, "x_star": x_star,
                "seeds": seeds_from([seed, pass_no], self.seeds_per_pass)}

    def solve(self, inp):
        m, d, _ = self.shape
        ds = data_io.parse_libsvm(inp["path"], n_features=d)
        x_star = inp["x_star"]
        dist = bench.RelErrToSolution(x_star, float(np.dot(x_star, x_star)))
        finals = []
        for s in inp["seeds"]:
            cfg = solvers.SolverConfig(
                iters=self.max_epochs * m, seed=s, trace_stride=m // 10,
                dist_fn=dist, stop_when_dist_below=self.eps,
            )
            x, _ = solvers.kaczmarz(ds.features, ds.labels, np.zeros(d), cfg)
            finals.append(x)
        return finals

    def check(self, inp, finals, cells):
        x_star = inp["x_star"]
        failures = []
        for c, x in zip(cells, finals):
            err = float(np.sum((x - x_star) ** 2) / np.sum(x_star ** 2))
            if not err <= self.eps:
                failures.append(f"kaczmarz seed {c.seed}: relative error {err:.3e}")
        if len(finals) != len(cells):
            failures.append(f"{len(cells)} solver cells for {len(finals)} results")
        return len(finals), failures


WORKLOADS = {w.name: w for w in (LinsysRace(), SparseLasso(), BetaSweep(), SparseIngest())}


def cache_dir(root) -> str:
    path = os.path.join(root, ".perfbench_work", "cache")
    os.makedirs(path, exist_ok=True)
    return path
