"""Experiment drivers: head-to-head solver races on generated instances.

Epochs (passes over the data: n coordinate steps, m row picks for row
projection) are the x-axis everywhere; wall-clock is recorded as metadata
only.  Each (algorithm, seed) cell is an independent run, so cells may be
executed in parallel; results are merged by sorted key and a race is
bit-reproducible from its parameters.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import problems, solvers
from .data_io import Dataset, gen_linear_system, gen_skewed_dataset, two_level_norms
from .geometry import SmoothnessProfile, lbeta_norm_sq, s_alpha, speedup_factor
from .solvers import ConvergenceTrace, SolverConfig

KACZMARZ_RACE_ALGOS = ("nu-acdm", "acdm", "kaczmarz")


class RaceError(RuntimeError):
    """A race could not produce the comparison it was asked for."""


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
    """Collects P(w(y_k)) - P* at every trace record of a dual run."""

    def __init__(self, problem, p_star):
        self.problem = problem
        self.p_star = float(p_star)
        self.gaps = []

    def __call__(self, k, x, agg, value):
        v = self.problem.aggregate(x) if agg is None else agg
        w = problems.primal_from_dual(self.problem, x, aggregate=v)
        self.gaps.append(problems.primal_objective(self.problem, w) - self.p_star)


# --- cell execution ---


def _run_cell(cell: dict):
    cfg = SolverConfig(**cell["cfg"])
    recorder = None
    if cell.get("primal_star") is not None:
        recorder = PrimalGapRecorder(cell["oracle"], cell["primal_star"])
        cfg.on_record = recorder
    start = time.perf_counter()
    algo = cell["algo"]
    if algo == "kaczmarz":
        _, trace = solvers.kaczmarz(cell["matrix"], cell["b"], cell["x0"], cfg)
    elif algo == "gd":
        _, trace = solvers.full_gd(cell["oracle"], cell["l_global"], cell["x0"], cfg)
    else:
        fn = {
            "nu-acdm": solvers.nu_acdm,
            "nu-acdm-ns": solvers.nu_acdm_ns,
            "acdm": solvers.acdm_baseline,
            "rcdm": solvers.rcdm,
        }[algo]
        _, trace = fn(cell["oracle"], cell["profile"], cell["x0"], cfg)
    elapsed = time.perf_counter() - start
    extras = {"wall_seconds": elapsed}
    if recorder is not None:
        extras["primal_gaps"] = np.asarray(recorder.gaps)
    return cell["key"], trace, extras


def _execute(cells, jobs: int):
    if jobs <= 1:
        results = [_run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, cells))
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

    def mean_trace(self, algo):
        """(epochs, mean dist) averaged over seeds, truncated to the
        shortest run so every epoch averages every seed."""
        rows = [tr for (a, _s), tr in sorted(self.traces.items()) if a == algo]
        if not rows:
            raise KeyError(algo)
        length = min(len(t.dists) for t in rows)
        dists = np.mean([t.dists[:length] for t in rows], axis=0)
        return rows[0].epochs[:length], dists

    def mean_primal_trace(self, algo):
        rows = [g for (a, _s), g in sorted(self.primal_gaps.items()) if a == algo]
        if not rows:
            raise KeyError(algo)
        length = min(len(g) for g in rows)
        return np.mean([g[:length] for g in rows], axis=0)


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
    m: int,
    n: int,
    r: float,
    seeds,
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
    x0_dual = np.zeros(m)
    x0_primal = np.zeros(n)
    denom = float(np.dot(x_star, x_star))  # x0 = 0 on the primal side
    dist = RelErrToSolution(x_star, denom)

    cells = []
    for seed in seeds:
        cfg = dict(
            iters=max_epochs * m,
            seed=seed,
            trace_stride=m,
            dist_fn=dist,
            stop_when_dist_below=eps,
        )
        for algo in ("nu-acdm", "acdm"):
            cells.append(
                dict(key=(algo, seed), algo=algo, oracle=oracle,
                     profile=profile, x0=x0_dual, cfg=cfg)
            )
        cells.append(
            dict(key=("kaczmarz", seed), algo="kaczmarz", matrix=a, b=b,
                 x0=x0_primal, cfg=cfg)
        )

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


def _build_erm(dataset: Dataset, variant: str, lam: float, lam2, beta: float):
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
    variant: str,
    lam: float,
    lam2: float | None = None,
    algos=("nu-acdm", "acdm", "rcdm"),
    betas: dict | None = None,
    seeds=range(10),
    epochs: int = 40,
    eps: float | None = None,
    jobs: int = 1,
) -> RaceResult:
    """Dual suboptimality D(y_k) - D* per epoch for each algorithm; ridge
    runs also record the primal gap P(w(y_k)) - P*.  betas maps algorithm
    name to the exponent it runs at (default 0)."""
    seeds = list(seeds)
    if not seeds or not algos:
        raise ValueError("need at least one seed and one algorithm")
    betas = dict(betas or {})
    oracle, _ = _build_erm(dataset, variant, lam, lam2, 0.0)
    ref = problems.reference_minimum(oracle)
    dist = GapTo(ref.value)
    n = oracle.n
    x0 = np.zeros(n)

    primal_star = None
    if variant == "ridge":
        primal_star, _w = problems.ridge_primal_reference(oracle)

    profile_cache = {}
    cells = []
    for algo in algos:
        beta = float(betas.get(algo, 0.0))
        if beta not in profile_cache:
            _, profile_cache[beta] = _build_erm(dataset, variant, lam, lam2, beta)
        profile = profile_cache[beta]
        for seed in seeds:
            is_gd = algo == "gd"
            cfg = dict(
                iters=epochs if is_gd else epochs * n,
                seed=seed,
                trace_stride=1 if is_gd else n,
                dist_fn=dist,
                stop_when_dist_below=eps,
            )
            cell = dict(
                key=(algo, seed), algo=algo, oracle=oracle, profile=profile,
                x0=x0, cfg=cfg, primal_star=primal_star,
            )
            if is_gd:
                cell["l_global"] = problems.global_smoothness(oracle)
            cells.append(cell)

    results = _execute(cells, jobs)
    result = _collect(
        f"erm variant={variant} n={dataset.n} d={dataset.d} lam={lam}",
        1e-6 if eps is None else eps,
        speedup_factor(profile_cache.get(0.0) or next(iter(profile_cache.values()))),
        results,
    )
    result.reference = ref
    return result


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
    lam: float,
    beta_list=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    seeds=range(200),
    epochs: int = 20,
    enforce: bool = True,
    jobs: int = 1,
):
    """Run the non-strongly-convex solver on the penalty dual at several
    exponents and test each run family against its 1/(T+1)^2 guarantee:

        mean_T gap <= 2 ||x0 - y*||^2_{L^beta} * S_{(1-beta)/2}^2 / (T+1)^2

    Returns one entry per beta; with enforce=True a violated bound raises.
    """
    seeds = list(seeds)
    oracle, _ = problems.build_penalty_dual(dataset.features, dataset.labels, lam)
    ref = problems.reference_minimum(oracle)
    dist = GapTo(ref.value)
    n = oracle.n
    x0 = np.zeros(n)
    t_total = epochs * n

    entries = []
    for beta in beta_list:
        _, profile = problems.build_penalty_dual(
            dataset.features, dataset.labels, lam, beta=beta
        )
        s_sq = s_alpha(profile, profile.alpha) ** 2
        bound = (
            2.0 * lbeta_norm_sq(x0 - ref.minimizer, profile) * s_sq
            / (t_total + 1.0) ** 2
        )
        cells = [
            dict(
                key=("nu-acdm-ns", seed), algo="nu-acdm-ns", oracle=oracle,
                profile=profile, x0=x0,
                cfg=dict(iters=t_total, seed=seed, trace_stride=n, dist_fn=dist),
            )
            for seed in seeds
        ]
        results = _execute(cells, jobs)
        finals = np.asarray([trace.final_dist() for _k, trace, _e in results])
        length = min(len(trace.dists) for _k, trace, _e in results)
        mean_gaps = np.mean([trace.dists[:length] for _k, trace, _e in results], axis=0)
        epochs_axis = results[0][1].epochs[:length]
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


# --- experiment spec / summaries ---


@dataclass
class ExperimentSpec:
    """Declarative description of one bench invocation."""

    experiment: str  # kaczmarz-race | erm-race | beta-sweep
    seeds: tuple = tuple(range(10))
    jobs: int = 1
    m: int = 300
    n: int = 100
    d: int = 20
    r: float = 0.1
    variant: str = "ridge"
    lam: float = 0.1
    lam2: float | None = None
    algos: tuple = ("nu-acdm", "acdm", "rcdm")
    betas: tuple = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    epochs: int | None = None  # None: the experiment's own default
    eps: float | None = None  # None: the experiment's own default
    instance_seed: int = 0

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.experiment == "erm-race" and not self.algos:
            raise ValueError("need at least one algorithm")
        if self.experiment == "beta-sweep" and self.eps is not None:
            raise ValueError("beta-sweep runs a fixed horizon; eps does not apply")


def default_dataset(spec: ExperimentSpec) -> Dataset:
    norms = two_level_norms(spec.n, spec.r)
    return gen_skewed_dataset(spec.n, spec.d, norms, seed=spec.instance_seed)


def run_experiment(spec: ExperimentSpec, dataset: Dataset | None = None):
    if spec.experiment == "kaczmarz-race":
        limits = {}
        if spec.eps is not None:
            limits["eps"] = spec.eps
        if spec.epochs is not None:
            limits["max_epochs"] = spec.epochs
        return run_kaczmarz_race(
            spec.m, spec.n, spec.r, spec.seeds,
            instance_seed=spec.instance_seed, jobs=spec.jobs, **limits,
        )
    if dataset is None:
        dataset = default_dataset(spec)
    epochs = 40 if spec.epochs is None else spec.epochs
    if spec.experiment == "erm-race":
        return run_erm_race(
            dataset, spec.variant, spec.lam, spec.lam2, algos=spec.algos,
            seeds=spec.seeds, epochs=epochs, eps=spec.eps, jobs=spec.jobs,
        )
    if spec.experiment == "beta-sweep":
        return beta_sweep(
            dataset, spec.lam, beta_list=spec.betas, seeds=spec.seeds,
            epochs=epochs, enforce=False, jobs=spec.jobs,
        )
    raise ValueError(f"unknown experiment {spec.experiment!r}")


def summary_lines(result: RaceResult) -> list[str]:
    """CSV summary: per-algorithm median epochs to the race target."""
    lines = ["algo,eps,median_epochs,speedup_theory"]
    for algo in result.algos:
        med = result.median_epochs_to(algo)
        lines.append(f"{algo},{result.eps:g},{med:.17g},{result.speedup:.17g}")
    return lines
