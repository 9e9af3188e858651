"""Self-check suite: every advertised guarantee, executed at desk scale.

Each check builds its own fixed instance (so a failure is reproducible),
runs the relevant solver family, and compares against the claimed bound or
oracle with the tolerance stated in its docstring.  `run_all` powers both
the `check` CLI subcommand and the acceptance test module, so users and CI
execute the same suite.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import bench, problems, solvers
from .data_io import gen_linear_system, gen_skewed_dataset, two_level_norms
from .geometry import grad_check, lbeta_norm_sq, s_alpha
from .matrix import SparseRowMatrix
from .problems import (
    PENALTY_LOSS,
    SQUARED_LOSS,
    _conjugate_grid_error,
    build_kaczmarz,
    build_lasso_dual,
    build_penalty_dual,
    build_ridge_dual,
    build_separable_quadratic,
)
from .solvers import (
    DESCENT_SLACK,
    MIRROR_RESIDUAL_TOL,
    InvariantViolation,
    SolverConfig,
    accel_schedule,
    acdm_baseline,
    generalized_accel,
    kaczmarz,
    nu_acdm,
    nu_acdm_ns,
    nu_probabilities,
    rcdm,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.2f}s): {self.detail}"


def _result(name, started, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - started)


def _log_uniform_instance(n=20, seed=1234):
    """The standard synthetic family: diagonal quadratic with smoothness
    spread over four orders of magnitude, random target and start."""
    rng = np.random.default_rng(seed)
    l = 10.0 ** rng.uniform(-2.0, 2.0, n)
    target = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    return l, target, x0


def check_ns_convergence_bound(seeds=200) -> CheckResult:
    """Non-strongly-convex guarantee: for T in {10, 100, 1000} the mean
    final gap over `seeds` runs stays within 1.2x of
    2 ||x0 - x*||^2 (sum sqrt(L_i))^2 / (T+1)^2."""
    started = time.perf_counter()
    l, target, x0 = _log_uniform_instance()
    oracle, profile = build_separable_quadratic(l, target, beta=0.0)
    s_sq = s_alpha(profile, 0.5) ** 2
    dist_sq = lbeta_norm_sq(x0 - target, profile)
    parts = []
    ok = True
    for t in (10, 100, 1000):
        finals = []
        for seed in range(seeds):
            cfg = SolverConfig(iters=t, seed=seed, trace_stride=t)
            y, _ = nu_acdm_ns(oracle, profile, x0, cfg)
            finals.append(oracle.value(y))
        mean = float(np.mean(finals))
        bound = 2.0 * dist_sq * s_sq / (t + 1.0) ** 2
        ok = ok and mean <= 1.2 * bound
        parts.append(f"T={t}: mean {mean:.3e} vs bound {bound:.3e}")
    return _result("ns-convergence-bound", started, ok, "; ".join(parts))


def check_sc_convergence_decay(seeds=200) -> CheckResult:
    """Strongly convex guarantee: after T = ceil(6/tau) iterations the mean
    gap is within 1.2x of 2 (1-tau)^T (f(x0) - f*)."""
    started = time.perf_counter()
    l, target, x0 = _log_uniform_instance()
    oracle, profile = build_separable_quadratic(l, target, beta=0.0)
    tau, _eta = accel_schedule(s_alpha(profile, 0.5) ** 2, profile.sigma_beta)
    t = math.ceil(6.0 / tau)
    f0 = oracle.value(x0)
    finals = []
    for seed in range(seeds):
        cfg = SolverConfig(iters=t, seed=seed, trace_stride=t)
        y, _ = nu_acdm(oracle, profile, x0, cfg)
        finals.append(oracle.value(y))
    mean = float(np.mean(finals))
    bound = 2.0 * (1.0 - tau) ** t * f0
    ok = mean <= 1.2 * bound
    detail = f"T={t}, tau={tau:.3e}: mean {mean:.3e} vs bound {bound:.3e}"
    return _result("sc-convergence-decay", started, ok, detail)


@functools.cache
def _fully_checked_runs():
    """A battery of small runs with check_level=full: every solver family
    on every problem family it applies to.  Any violated per-iteration
    guarantee raises inside the solver.  The battery is deterministic, so
    it runs once per process and both checks that read it share it."""
    runs = []
    rng = np.random.default_rng(99)
    for beta in (0.0, 0.5, 1.0):
        l = 10.0 ** rng.uniform(-2.0, 2.0, 8)
        oracle, profile = build_separable_quadratic(l, rng.standard_normal(8), beta)
        x0 = rng.standard_normal(8)
        cfg = SolverConfig(iters=400, seed=5, check_level="full")
        for solver in (nu_acdm, nu_acdm_ns, acdm_baseline, rcdm):
            label = f"quad(beta={beta})/{solver.__name__}"
            runs.append((label, solver(oracle, profile, x0, cfg)[1]))

    a, b, _x = gen_linear_system(30, 10, 0.3, seed=2)
    oracle, profile = build_kaczmarz(a, b)
    cfg = SolverConfig(iters=300, seed=6, check_level="full")
    runs.append(("linsys/nu_acdm", nu_acdm(oracle, profile, np.zeros(30), cfg)[1]))
    runs.append(("linsys/nu_acdm_ns", nu_acdm_ns(oracle, profile, np.zeros(30), cfg)[1]))

    ds = gen_skewed_dataset(20, 6, two_level_norms(20, 0.3), seed=3)
    ridge, ridge_prof = build_ridge_dual(ds.features, ds.labels, lam=0.1)
    pen, pen_prof = build_penalty_dual(ds.features, ds.labels, lam=0.1)
    cfg = SolverConfig(iters=300, seed=7, check_level="full")
    runs.append(("ridge/nu_acdm", nu_acdm(ridge, ridge_prof, np.zeros(20), cfg)[1]))
    runs.append(("penalty/nu_acdm_ns", nu_acdm_ns(pen, pen_prof, np.zeros(20), cfg)[1]))
    return tuple(runs)


def check_per_step_descent() -> CheckResult:
    """Single-coordinate descent guarantee f(y+) <= f(x+) - g^2/(2 L_i) at
    every iteration of the full-check battery, 1e-12 relative slack."""
    started = time.perf_counter()
    try:
        runs = _fully_checked_runs()
    except InvariantViolation as err:
        return _result("per-step-descent", started, False, str(err))
    worst = max(t.max_descent_violation for _n, t in runs)
    detail = f"{len(runs)} runs, worst relative violation {worst:.3e}"
    return _result("per-step-descent", started, worst <= DESCENT_SLACK, detail)


def check_mirror_step_residuals() -> CheckResult:
    """First-order condition of every z-step in the battery holds to 1e-9
    in the weighted norm."""
    started = time.perf_counter()
    try:
        runs = _fully_checked_runs()
    except InvariantViolation as err:
        return _result("mirror-step-residual", started, False, str(err))
    residuals = [t.max_mirror_residual for _n, t in runs
                 if not math.isnan(t.max_mirror_residual)]
    worst = max(residuals)
    detail = f"{len(residuals)} accelerated runs, worst residual {worst:.3e}"
    return _result(
        "mirror-step-residual", started, worst <= MIRROR_RESIDUAL_TOL, detail
    )


def check_schedule_identities(count=10_000) -> CheckResult:
    """Both step-size identities hold to 1e-12 over `count` random
    parameterizations: (1+eta*sigma)(1-tau) = 1 and the eta recurrence."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    m = 10.0 ** rng.uniform(-4.0, 8.0, count)
    sigma = m * 10.0 ** rng.uniform(-12.0, 0.0, count)
    q = np.sqrt(4.0 * m / sigma + 1.0)
    tau = 2.0 / (1.0 + q)
    eta = 1.0 / (tau * m)
    err1 = float(np.max(np.abs((1.0 + eta * sigma) * (1.0 - tau) - 1.0)))

    s_sq = 10.0 ** rng.uniform(-4.0, 8.0, count)
    k = rng.integers(0, 10**6, count).astype(float)
    eta_next = (k + 2.0) / (2.0 * s_sq)
    eta_k = (k + 1.0) / (2.0 * s_sq)
    lhs = eta_k * eta_k * s_sq
    rhs = eta_next * eta_next * s_sq - eta_next + 1.0 / (4.0 * s_sq)
    err2 = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))

    ok = err1 <= 1e-12 and err2 <= 1e-12
    detail = f"coupling error {err1:.3e}, recurrence error {err2:.3e} ({count} draws)"
    return _result("schedule-identities", started, ok, detail)


PRINTED_SPEEDUPS = {
    1.0: 1.0,
    0.8: 1.0992,
    0.6: 1.2464,
    0.4: 1.4025,
    0.2: 1.6243,
    0.1: 1.7379,
}


def check_speedup_table() -> CheckResult:
    """Predicted speed-up factors on the two-norm-level family match the
    published six-value table within 3%."""
    started = time.perf_counter()
    table = bench.speedup_table(sorted(PRINTED_SPEEDUPS, reverse=True))
    worst = 0.0
    parts = []
    for r, factor in table:
        expected = PRINTED_SPEEDUPS[r]
        dev = abs(factor - expected) / expected
        worst = max(worst, dev)
        parts.append(f"r={r:g}: {factor:.4f} vs {expected:g}")
    detail = f"worst deviation {100 * worst:.2f}%; " + "; ".join(parts)
    return _result("speedup-table", started, worst <= 0.03, detail)


def check_kaczmarz_race(jobs=1) -> CheckResult:
    """300x100 race at r=0.1 to relative error 1e-8 over 10 seeds: median
    epochs must order non-uniform < uniform-rate < row projection, with at
    least a 1.3x advantage for the non-uniform schedule."""
    started = time.perf_counter()
    result = bench.run_kaczmarz_race(
        300, 100, 0.1, seeds=range(10), eps=1e-8, jobs=jobs
    )
    med = {algo: result.median_epochs_to(algo) for algo in result.algos}
    ratio = med["acdm"] / med["nu-acdm"]
    ok = (
        med["nu-acdm"] < med["acdm"] < med["kaczmarz"]
        and ratio >= 1.3
    )
    detail = (
        f"median epochs nu-acdm {med['nu-acdm']:.0f}, acdm {med['acdm']:.0f}, "
        f"kaczmarz {med['kaczmarz']:.0f}; advantage {ratio:.2f}x "
        f"(theory {result.speedup:.2f}x)"
    )
    return _result("kaczmarz-race", started, ok, detail)


def _clear_of_kinks(y, kinks, margin):
    return min(abs(abs(v) - k) for v in y for k in kinks) > margin


def check_gradients_and_conjugates() -> CheckResult:
    """Every problem's coordinate gradient agrees with central differences
    to 1e-6 at 20 generic points, and the hand-derived conjugates of both
    losses and of the Lasso regularizer match brute-force grid suprema
    (step 1e-3 on [-3, 3], tolerance 1e-6)."""
    started = time.perf_counter()
    failures = []

    a, b, _x = gen_linear_system(25, 8, 0.3, seed=11)
    kz, _ = build_kaczmarz(a, b)
    ds = gen_skewed_dataset(30, 6, two_level_norms(30, 0.4), seed=12)
    ridge, _ = build_ridge_dual(ds.features, ds.labels, lam=0.1)
    lasso, _ = build_lasso_dual(ds.features, ds.labels, lam=0.1, lam2=0.01)
    penalty, _ = build_penalty_dual(ds.features, ds.labels, lam=0.1)

    rng = np.random.default_rng(13)
    worst = 0.0
    for label, oracle in (
        ("linsys", kz), ("ridge", ridge), ("lasso", lasso), ("penalty", penalty)
    ):
        checked = 0
        while checked < 20:
            y = rng.standard_normal(oracle.n)
            # keep clear of the points where a conjugate derivative kinks:
            # |y_i| = 1 for the penalty loss, |v_j| = lam for the soft
            # threshold inside the smoothed-Lasso regularizer
            if label == "penalty" and not _clear_of_kinks(y, (1.0,), 1e-3):
                continue
            if label == "lasso":
                v = lasso.aggregate(y)
                if not _clear_of_kinks(v, (lasso.lam,), 1e-3):
                    continue
            i = int(rng.integers(oracle.n))
            err = grad_check(oracle, y, i)
            worst = max(worst, err)
            if err > 1e-6:
                failures.append(f"{label} gradient error {err:.3e} at coord {i}")
            checked += 1

    labels = np.array([-1.3, 0.0, 2.1])
    for loss, name in ((SQUARED_LOSS, "squared"), (PENALTY_LOSS, "penalty")):
        err = _conjugate_grid_error(loss.phi, loss.conj, labels)
        if err > 1e-6:
            failures.append(
                f"{name} loss conjugate disagrees with grid supremum by {err:.3e}"
            )

    # regularizer conjugate of lam|w| + (lam2/2) w^2, coordinatewise
    lam, lam2 = 0.5, 1.0
    reg_err = _conjugate_grid_error(
        lambda w, _: lam * np.abs(w) + 0.5 * lam2 * w**2,
        lambda z, _: np.maximum(np.abs(z) - lam, 0.0) ** 2 / (2.0 * lam2),
    )
    if reg_err > 1e-6:
        failures.append(f"regularizer conjugate error {reg_err:.3e}")

    ok = not failures
    detail = (
        f"worst gradient error {worst:.3e}, regularizer conjugate error "
        f"{reg_err:.3e}" + ("; " + "; ".join(failures) if failures else "")
    )
    return _result("gradients-and-conjugates", started, ok, detail)


def check_ridge_duality() -> CheckResult:
    """Along a converged ridge run: P(w(y)) + D(y) >= -1e-10 at every
    record, <= 1e-8 at termination, and the recovered primal lands within
    1e-8 (relative) of P*."""
    started = time.perf_counter()
    ds = gen_skewed_dataset(60, 20, two_level_norms(60, 0.5), seed=21)
    oracle, profile = build_ridge_dual(ds.features, ds.labels, lam=0.1)
    ref = problems.reference_minimum(oracle)
    p_star, _w = problems.ridge_primal_reference(oracle)
    series = bench.PrimalGapRecorder(oracle, p_star)
    scale = max(1.0, abs(ref.value))
    cfg = SolverConfig(
        iters=3000 * oracle.n,
        seed=3,
        trace_stride=oracle.n,
        dist_fn=bench.GapTo(ref.value),
        stop_when_dist_below=1e-13 * scale,
        on_record=series,
    )
    _y, trace = nu_acdm(oracle, profile, np.zeros(oracle.n), cfg)
    gaps = np.asarray(series.duality_gaps)
    primal = np.asarray(series.gaps)
    p_scale = max(1.0, abs(p_star))
    ok = (
        float(gaps.min()) >= -1e-10
        and float(gaps[-1]) <= 1e-8
        and float(primal[-1]) <= 1e-8 * p_scale
    )
    detail = (
        f"{len(gaps)} records over {trace.epochs[-1]:.0f} epochs; min gap "
        f"{gaps.min():.2e}, final gap {gaps[-1]:.2e}, final primal gap "
        f"{primal[-1]:.2e} (P* {p_star:.4f})"
    )
    return _result("ridge-duality", started, ok, detail)


def check_beta_sweep(jobs=1, seeds=200) -> CheckResult:
    """The 1/(T+1)^2 guarantee holds at every exponent in
    {0, .2, .4, .6, .8, 1} on the penalty dual, `seeds` runs each."""
    started = time.perf_counter()
    ds = gen_skewed_dataset(30, 8, two_level_norms(30, 0.3), seed=31)
    entries = bench.beta_sweep(
        ds, lam=0.1, seeds=range(seeds), epochs=20, enforce=False, jobs=jobs
    )
    ok = all(e.ok for e in entries)
    parts = [
        f"beta={e.beta:g}: mean {e.mean_final_gap:.2e} vs bound {e.bound:.2e}"
        for e in entries
    ]
    return _result("beta-sweep", started, ok, "; ".join(parts))


def check_specialization_and_determinism() -> CheckResult:
    """The generalized solver run at the non-uniform distribution is
    trace-identical to the specialized one, and every solver is
    bit-reproducible from (parameters, seed)."""
    started = time.perf_counter()
    failures = []

    rng = np.random.default_rng(17)
    l = 10.0 ** rng.uniform(-1.5, 1.5, 12)
    oracle, profile = build_separable_quadratic(l, rng.standard_normal(12), beta=0.3)
    x0 = rng.standard_normal(12)
    cfg = SolverConfig(iters=600, seed=3, trace_stride=50)
    out_nu, tr_nu = nu_acdm(oracle, profile, x0, cfg)
    out_gen, tr_gen = generalized_accel(
        oracle, profile, x0, cfg, p=nu_probabilities(profile)
    )
    if not (
        np.array_equal(out_nu, out_gen)
        and np.array_equal(tr_nu.values, tr_gen.values)
        and np.array_equal(tr_nu.iters, tr_gen.iters)
    ):
        failures.append("generalized run differs from specialized run")

    a, b, _x = gen_linear_system(40, 12, 0.25, seed=19)
    kz_oracle, kz_profile = build_kaczmarz(a, b)
    y0 = np.zeros(40)
    cfg2 = SolverConfig(iters=300, seed=11, trace_stride=40)
    o1, t1 = nu_acdm(kz_oracle, kz_profile, y0, cfg2)
    o2, t2 = generalized_accel(
        kz_oracle, kz_profile, y0, cfg2, p=nu_probabilities(kz_profile)
    )
    if not (np.array_equal(o1, o2) and np.array_equal(t1.values, t2.values)):
        failures.append("generalized run differs on the linear-system dual")

    def rerun(fn, *args):
        r1, tr1 = fn(*args)
        r2, tr2 = fn(*args)
        return np.array_equal(r1, r2) and np.array_equal(tr1.values, tr2.values)

    for name, fn, args in (
        ("nu_acdm", nu_acdm, (oracle, profile, x0, cfg)),
        ("nu_acdm_ns", nu_acdm_ns, (oracle, profile, x0, cfg)),
        ("acdm_baseline", acdm_baseline, (oracle, profile, x0, cfg)),
        ("rcdm", rcdm, (oracle, profile, x0, cfg)),
        ("kaczmarz", kaczmarz, (a, b, np.zeros(12), cfg2)),
    ):
        if not rerun(fn, *args):
            failures.append(f"{name} is not reproducible under a fixed seed")

    detail = "; ".join(failures) if failures else (
        "specialized and generalized runs identical; all solvers reproducible"
    )
    return _result(
        "specialization-and-determinism", started, not failures, detail
    )


def check_kaczmarz_rate(seeds=10) -> CheckResult:
    """Fitted geometric decay of E||x_k - x*||^2 on a consistent 300x100
    system stays within a factor 2 of 1 - sigma_min(A)^2/||A||_F^2.

    The guarantee concerns the expected squared error, so the fit runs
    on the across-seed mean trace.  The instance stacks three scaled
    orthogonal 100x100 blocks, which makes A^T A a multiple of the
    identity; on such systems the expected one-step contraction equals
    the theoretical rate exactly, for every error direction, so the
    factor-2 band genuinely tests the sampler and the projection.  On
    generic dense instances the trajectory-averaged contraction runs
    about twice the worst-direction rate and the fit would sit on the
    band edge.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(41)
    blocks = [
        scale * np.linalg.qr(rng.standard_normal((100, 100)))[0]
        for scale in (10.0, 1.0, 1.0)
    ]
    dense = np.vstack(blocks)
    x_star = rng.standard_normal(100)
    b = dense @ x_star
    a = SparseRowMatrix.from_dense(dense)
    spectrum = np.linalg.eigvalsh(dense.T @ dense)
    sig_min_sq = float(spectrum[0])
    frob_sq = float(np.sum(a.row_norms_sq))
    rho = 1.0 - sig_min_sq / frob_sq
    theory_slope = math.log(rho)
    t = int(math.ceil(math.log(1e-8) / theory_slope))
    x0 = np.zeros(100)
    dist = bench.RelErrToSolution(x_star, float(np.dot(x_star, x_star)))

    rows = []
    for seed in range(seeds):
        cfg = SolverConfig(
            iters=t, seed=seed, trace_stride=max(1, t // 400), dist_fn=dist
        )
        _x, trace = kaczmarz(a, b, x0, cfg)
        rows.append(trace.dists)
    mean_dist = np.mean(np.stack(rows), axis=0)
    # drop the first tenth as burn-in, and any exactly-extinct tail records
    lo = len(mean_dist) // 10
    sel = mean_dist[lo:] > 0.0
    slope = np.polyfit(trace.iters[lo:][sel], np.log(mean_dist[lo:][sel]), 1)[0]
    ratio = float(slope / theory_slope)
    decayed = float(mean_dist[-1])
    ok = 0.5 <= ratio <= 2.0 and decayed <= 1e-6
    detail = (
        f"theory rate 1-{sig_min_sq / frob_sq:.3e}; mean-trace fitted/theory "
        f"ratio {ratio:.3f} over {seeds} seeds; final mean dist {decayed:.2e}"
    )
    return _result("kaczmarz-rate", started, ok, detail)


ALL_CHECKS = (
    check_ns_convergence_bound,
    check_sc_convergence_decay,
    check_per_step_descent,
    check_mirror_step_residuals,
    check_schedule_identities,
    check_speedup_table,
    check_kaczmarz_race,
    check_gradients_and_conjugates,
    check_ridge_duality,
    check_beta_sweep,
    check_specialization_and_determinism,
    check_kaczmarz_rate,
)


def run_all(jobs: int = 1, report=print) -> list[CheckResult]:
    """Execute every check, print one PASS/FAIL line each, return results."""
    results = []
    for fn in ALL_CHECKS:
        if fn in (check_kaczmarz_race, check_beta_sweep):
            res = fn(jobs=jobs)
        else:
            res = fn()
        results.append(res)
        if report is not None:
            report(res.line())
    return results
