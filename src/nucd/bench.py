"""Experiment drivers: head-to-head solver races on generated instances.

Epochs (passes over the data: n coordinate steps, m row picks for row
projection, one full gradient step) are the x-axis everywhere; run_cell is
the one place that turns an (algorithm, epochs, seed) cell into a solver
call.  Wall-clock is recorded per cell and reported as a per-algorithm
median next to the epoch counts.  Each (algorithm, seed) cell is an
independent run, so cells may be executed in parallel; results are merged
by sorted key and a race is bit-reproducible from its parameters, for a
fixed BLAS library and thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import problems, solvers
from .data_io import Dataset, gen_linear_system
from .geometry import SmoothnessProfile, lbeta_norm_sq, s_alpha, speedup_factor
from .solvers import SolverConfig

KACZMARZ_RACE_ALGOS = ("nu-acdm", "acdm", "kaczmarz")


# --- picklable trace metrics ---


class RelErrToSolution:
    """dist = ||x - x*||^2 / denom, reading x from the oracle aggregate when
    one is present (for dual runs the aggregate is the recovered solution)."""

    def __init__(self, x_star, denom):
        self.x_star = np.asarray(x_star, dtype=float)
        self.denom = float(denom)

    def __call__(self, x, agg, value):
        v = agg if agg is not None else x
        d = v - self.x_star
        return float(np.dot(d, d)) / self.denom


class GapTo:
    """dist = value - reference minimum."""

    def __init__(self, f_star):
        self.f_star = float(f_star)

    def __call__(self, x, agg, value):
        return value - self.f_star


class PrimalGapRecorder:
    """Collects P(w(y_k)) - P* (gaps) and the duality gap P(w(y_k)) + D(y_k)
    (duality_gaps) at every trace record of a dual ERM run."""

    def __init__(self, problem, p_star):
        self.problem = problem
        self.p_star = float(p_star)
        self.gaps = []
        self.duality_gaps = []

    def __call__(self, k, x, agg, value):
        v = self.problem.aggregate(x) if agg is None else agg
        w = problems.primal_from_dual(self.problem, x, aggregate=v)
        p = problems.primal_objective(self.problem, w)
        self.gaps.append(p - self.p_star)
        self.duality_gaps.append(p + problems.smoothing_term(self.problem, w) + value)


# --- cell execution ---


# algorithm name -> coordinate solver in `solvers`, looked up by attribute
# name at call time so that a wrapper rebound there (perfbench/spans.py
# times the solver entry points this way) is the one that runs
COORD_SOLVERS = {
    "nu-acdm": "nu_acdm",
    "nu-acdm-ns": "nu_acdm_ns",
    "acdm": "acdm_baseline",
    "rcdm": "rcdm",
}


def run_cell(cell: dict):
    """Run one (algorithm, seed) cell from x0 for cell["epochs"] epochs with
    one trace record per epoch, and return (key, trace, extras).

    An epoch is m row projections for "kaczmarz" (the cell holds matrix and
    b), one full step for "gd" (oracle, l_global) and n coordinate steps for
    a sampled coordinate solver (oracle, profile).  Optional entries: dist_fn,
    eps (the early-stop target) and primal_star, which makes extras carry the
    primal gap of a dual ERM run at every record."""
    algo = cell["algo"]
    if algo == "kaczmarz":
        units = cell["matrix"].m
        run = partial(solvers.kaczmarz, cell["matrix"], cell["b"])
    elif algo == "gd":
        units = 1
        run = partial(solvers.full_gd, cell["oracle"], cell["l_global"])
    else:
        units = cell["oracle"].n
        run = partial(getattr(solvers, COORD_SOLVERS[algo]), cell["oracle"],
                      cell["profile"])
    cfg = SolverConfig(
        iters=cell["epochs"] * units,
        seed=cell["seed"],
        trace_stride=units,
        dist_fn=cell.get("dist_fn"),
        stop_when_dist_below=cell.get("eps"),
    )
    if cell.get("primal_star") is not None:
        cfg.on_record = PrimalGapRecorder(cell["oracle"], cell["primal_star"])
    start = time.perf_counter()
    _, trace = run(cell["x0"], cfg)
    extras = {"wall_seconds": time.perf_counter() - start}
    if cfg.on_record is not None:
        extras["primal_gaps"] = np.asarray(cfg.on_record.gaps)
    return cell["key"], trace, extras


def _execute(cells, jobs: int):
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # a pool forks all its workers at the first submit
    workers = min(jobs, len(cells))
    if workers <= 1:
        results = [run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cells))
    return sorted(results, key=lambda item: item[0])


# --- results ---


@dataclass
class RaceResult:
    description: str
    eps: float
    speedup: float
    traces: dict = field(default_factory=dict)       # (algo, seed) -> trace
    extras: dict = field(default_factory=dict)       # (algo, seed) -> metadata
    primal_gaps: dict = field(default_factory=dict)  # (algo, seed) -> array

    @property
    def algos(self):
        return sorted({algo for algo, _ in self.traces})

    def trace_list(self):
        return [self.traces[k] for k in sorted(self.traces)]

    def epochs_to(self, algo, eps=None):
        """Per-seed first recorded epoch with dist <= eps (NaN if never);
        nonincreasing as eps is relaxed."""
        eps = self.eps if eps is None else eps
        out = []
        for (a, _seed), tr in sorted(self.traces.items()):
            if a != algo:
                continue
            hit = np.flatnonzero(tr.dists <= eps)
            out.append(tr.epochs[hit[0]] if hit.size else float("nan"))
        return np.asarray(out)

    def median_epochs_to(self, algo, eps=None) -> float:
        return float(np.median(self.epochs_to(algo, eps)))


def _collect(description, eps, speedup, results) -> RaceResult:
    out = RaceResult(description=description, eps=eps, speedup=speedup)
    for key, trace, extras in results:
        out.traces[key] = trace
        gaps = extras.pop("primal_gaps", None)
        out.extras[key] = extras
        if gaps is not None:
            out.primal_gaps[key] = gaps
    return out


# --- experiments ---


def run_kaczmarz_race(
    m: int = 300,
    n: int = 100,
    r: float = 0.1,
    seeds=range(10),
    eps: float = 1e-8,
    max_epochs: int = 4000,
    instance_seed: int = 0,
    jobs: int = 1,
) -> RaceResult:
    """Race row projection against the two accelerated dual runs on one
    generated system, measuring relative error ||x_k - x*||^2/||x0 - x*||^2
    of the recovered solution, to first passage below eps."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    a, b, x_star = gen_linear_system(m, n, r, seed=instance_seed)
    oracle, profile = problems.build_kaczmarz(a, b)
    # ||x0 - x*||^2 with x0 = 0 on the primal side
    dist = RelErrToSolution(x_star, float(np.dot(x_star, x_star)))
    run = dict(epochs=max_epochs, dist_fn=dist, eps=eps)
    dual = dict(run, oracle=oracle, profile=profile, x0=np.zeros(m))
    primal = dict(run, matrix=a, b=b, x0=np.zeros(n))
    cells = [
        dict(primal if algo == "kaczmarz" else dual, key=(algo, seed), algo=algo,
             seed=seed)
        for seed in seeds
        for algo in KACZMARZ_RACE_ALGOS
    ]

    results = _execute(cells, jobs)
    return _collect(
        f"linsys m={m} n={n} r={r} instance_seed={instance_seed}",
        eps,
        speedup_factor(profile),
        results,
    )


def speedup_table(r_values, m: int = 300, n: int = 100, instance_seed: int = 0):
    """(r, predicted speed-up factor) for generated two-norm-level systems."""
    out = []
    for r in r_values:
        a, _b, _x = gen_linear_system(m, n, r, seed=instance_seed)
        profile = SmoothnessProfile(a.row_norms_sq.copy())
        out.append((float(r), speedup_factor(profile)))
    return out


def build_erm(dataset: Dataset, variant: str, lam: float, lam2, beta: float):
    """(oracle, profile) of the ERM dual named variant; lam2 defaults to
    lam/10 for lasso."""
    if variant == "ridge":
        return problems.build_ridge_dual(dataset.features, dataset.labels, lam, beta)
    if variant == "lasso":
        lam2 = lam / 10.0 if lam2 is None else lam2
        return problems.build_lasso_dual(
            dataset.features, dataset.labels, lam, lam2, beta
        )
    if variant == "penalty":
        return problems.build_penalty_dual(dataset.features, dataset.labels, lam, beta)
    raise ValueError(f"unknown variant {variant!r}")


def run_erm_race(
    dataset: Dataset,
    variant: str = "ridge",
    lam: float = 0.1,
    lam2: float | None = None,
    algos=("nu-acdm", "acdm", "rcdm"),
    seeds=range(10),
    epochs: int = 40,
    eps: float | None = None,
    jobs: int = 1,
) -> RaceResult:
    """Dual suboptimality D(y_k) - D* per epoch for each algorithm; ridge
    runs also record the primal gap P(w(y_k)) - P*.  Every algorithm runs
    at beta = 0."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if not algos:
        raise ValueError("need at least one algorithm")
    oracle, profile = build_erm(dataset, variant, lam, lam2, 0.0)
    ref = problems.reference_minimum(oracle)
    run = dict(epochs=epochs, dist_fn=GapTo(ref.value), eps=eps, oracle=oracle,
               profile=profile, x0=np.zeros(oracle.n))
    if variant == "ridge":
        run["primal_star"], _w = problems.ridge_primal_reference(oracle)
    if "gd" in algos:
        run["l_global"] = problems.global_smoothness(oracle)

    cells = [dict(run, key=(algo, seed), algo=algo, seed=seed)
             for algo in algos for seed in seeds]
    return _collect(
        f"erm variant={variant} n={dataset.n} d={dataset.d} lam={lam}",
        1e-6 if eps is None else eps,
        speedup_factor(profile),
        _execute(cells, jobs),
    )


@dataclass
class BetaSweepEntry:
    beta: float
    bound: float
    mean_final_gap: float
    epochs: np.ndarray
    mean_gap_trace: np.ndarray

    @property
    def ok(self) -> bool:
        # 20% slack on a 200-seed mean against an expectation bound
        return self.mean_final_gap <= 1.2 * self.bound


def beta_sweep(
    dataset: Dataset,
    lam: float = 0.1,
    beta_list=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    seeds=range(200),
    epochs: int = 40,
    enforce: bool = True,
    jobs: int = 1,
):
    """Run the non-strongly-convex solver on the penalty dual at several
    exponents and test each run family against its 1/(T+1)^2 guarantee:

        mean_T gap <= 2 ||x0 - y*||^2_{L^beta} * S_{(1-beta)/2}^2 / (T+1)^2

    Returns one entry per beta; with enforce=True a violated bound raises.
    """
    seeds, beta_list = list(seeds), list(beta_list)
    if not seeds:
        raise ValueError("need at least one seed")
    if not beta_list:
        raise ValueError("need at least one beta")
    oracle, _ = problems.build_penalty_dual(dataset.features, dataset.labels, lam)
    ref = problems.reference_minimum(oracle)
    x0 = np.zeros(oracle.n)
    run = dict(algo="nu-acdm-ns", epochs=epochs, dist_fn=GapTo(ref.value),
               oracle=oracle, x0=x0)
    t_total = epochs * oracle.n

    # every beta's cells go to one pool, keyed by the beta's position so a
    # repeated beta stays its own entry
    bounds, cells = [], []
    for pos, beta in enumerate(beta_list):
        _, profile = problems.build_penalty_dual(
            dataset.features, dataset.labels, lam, beta=beta
        )
        s_sq = s_alpha(profile, profile.alpha) ** 2
        bounds.append(
            2.0 * lbeta_norm_sq(x0 - ref.minimizer, profile) * s_sq
            / (t_total + 1.0) ** 2
        )
        cells += [dict(run, key=(pos, seed), seed=seed, profile=profile)
                  for seed in seeds]
    by_beta = [[] for _ in beta_list]
    for (pos, _seed), trace, _extras in _execute(cells, jobs):
        by_beta[pos].append(trace)

    entries = []
    for beta, bound, traces in zip(beta_list, bounds, by_beta):
        finals = np.asarray([trace.final_dist() for trace in traces])
        length = min(len(trace.dists) for trace in traces)
        mean_gaps = np.mean([trace.dists[:length] for trace in traces], axis=0)
        epochs_axis = traces[0].epochs[:length]
        entry = BetaSweepEntry(
            beta=float(beta),
            bound=float(bound),
            mean_final_gap=float(np.mean(finals)),
            epochs=epochs_axis,
            mean_gap_trace=mean_gaps,
        )
        if enforce and not entry.ok:
            raise solvers.InvariantViolation(
                f"beta={beta}: mean final gap {entry.mean_final_gap:.3e} exceeds "
                f"1.2 * bound {entry.bound:.3e}"
            )
        entries.append(entry)
    return entries


# --- summaries ---


def summary_lines(result: RaceResult) -> list[str]:
    """CSV summary: per-algorithm median epochs to the race target, and the
    median wall-clock seconds of that algorithm's runs."""
    lines = ["algo,eps,median_epochs,speedup_theory,median_wall_s"]
    for algo in result.algos:
        med = result.median_epochs_to(algo)
        wall = np.median([e["wall_seconds"] for (a, _s), e in result.extras.items()
                          if a == algo])
        lines.append(
            f"{algo},{result.eps:g},{med:.17g},{result.speedup:.17g},{wall:.6g}"
        )
    return lines
