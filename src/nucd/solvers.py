"""Randomized coordinate solvers.

All methods consume a CoordOracle plus a SmoothnessProfile and draw
coordinates from a seeded alias sampler, so a run is bit-reproducible from
(oracle, profile, x0, config).  The sampled coordinate methods share one
loop: each step draws a coordinate, takes one coordinate gradient and one
coordinate step.  The accelerated methods add a step-size schedule to it,
constant (tau, eta) in the strongly convex case or growing otherwise; the
schedule couples the step with a second sequence z through O(n) vector
recombinations.  Without a schedule the loop is plain randomized
coordinate descent on a single sequence.

Iteration cost is honest: no solver ever forms a full gradient except
full_gd, which exists as a reference baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import CoordOracle, SmoothnessProfile, TrackedPoint, s_alpha
from .matrix import SparseRowMatrix
from .sampling import WeightedSampler

# a per-step descent violation larger than this (relative) aborts the run
DESCENT_SLACK = 1e-12
# absolute tolerance on the first-order residual of the z-step subproblem
MIRROR_RESIDUAL_TOL = 1e-9

_CHECK_LEVELS = ("off", "cheap", "full")


class InvariantViolation(RuntimeError):
    """A per-iteration guarantee failed beyond numerical slack."""


@dataclass
class SolverConfig:
    """Run parameters shared by every solver.

    iters        : number of coordinate steps (full gradient steps for gd)
    seed         : sampler seed
    trace_stride : record every k-th iteration (endpoints always recorded)
    check_level  : "off", "cheap" (at trace records), "full" (every step)
    dist_fn      : optional metric recorded in the trace's dist column,
                   called as dist_fn(x, aggregate, value)
    stop_when_dist_below : early-stop threshold tested at trace records
    on_record    : optional hook (k, x, aggregate, value) at trace records
    """

    iters: int
    seed: int = 0
    trace_stride: int = 1
    check_level: str = "off"
    dist_fn: Callable | None = None
    stop_when_dist_below: float | None = None
    on_record: Callable | None = None

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError("iters must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")
        if self.check_level not in _CHECK_LEVELS:
            raise ValueError(f"check_level must be one of {_CHECK_LEVELS}")


@dataclass
class ConvergenceTrace:
    """Objective history of one run, recorded at strided iterations."""

    algo: str
    seed: int
    units_per_epoch: int
    iters: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dists: np.ndarray = field(default_factory=lambda: np.zeros(0))
    max_descent_violation: float = float("nan")
    max_mirror_residual: float = float("nan")

    @property
    def epochs(self) -> np.ndarray:
        return self.iters / self.units_per_epoch

    def final_value(self) -> float:
        return float(self.values[-1])

    def final_dist(self) -> float:
        return float(self.dists[-1])


class _Recorder:
    """Builds a ConvergenceTrace and applies the early-stop rule."""

    def __init__(self, algo, cfg, units_per_epoch):
        self.cfg = cfg
        self.algo = algo
        self.units = units_per_epoch
        self.iters = []
        self.values = []
        self.dists = []

    def record(self, k: int, value: float, x: np.ndarray, agg) -> bool:
        """Append a record; True means the early-stop threshold was met."""
        if not math.isfinite(value):
            raise InvariantViolation(
                f"{self.algo}: non-finite objective {value!r} at iteration {k}"
            )
        cfg = self.cfg
        dist = float("nan")
        if cfg.dist_fn is not None:
            dist = float(cfg.dist_fn(x, agg, value))
        if cfg.on_record is not None:
            cfg.on_record(k, x, agg, value)
        self.iters.append(k)
        self.values.append(value)
        self.dists.append(dist)
        return (
            cfg.stop_when_dist_below is not None
            and dist <= cfg.stop_when_dist_below
        )

    def finish(self, seed, descent_viol=float("nan"), mirror_res=float("nan")):
        return ConvergenceTrace(
            algo=self.algo,
            seed=seed,
            units_per_epoch=self.units,
            iters=np.asarray(self.iters, dtype=np.int64),
            values=np.asarray(self.values),
            dists=np.asarray(self.dists),
            max_descent_violation=descent_viol,
            max_mirror_residual=mirror_res,
        )


class _IndexStream:
    """Block-buffered view of a sampler's index stream (identical to
    repeated single draws, cheaper per element)."""

    def __init__(self, sampler: WeightedSampler, block: int = 4096):
        self.sampler = sampler
        self.block = block
        self.buf = None
        self.pos = 0

    def __call__(self) -> int:
        if self.buf is None or self.pos == len(self.buf):
            self.buf = self.sampler.sample_block(self.block)
            self.pos = 0
        i = self.buf[self.pos]
        self.pos += 1
        return i


# --- step-size schedules ---


def accel_schedule(rate_constant: float, sigma_beta: float):
    """Momentum and mirror step (tau, eta) for the strongly convex loop.

    rate_constant is S_alpha^2 under non-uniform sampling, or its
    generalization max_i L_i^(1-beta)/p_i^2 for arbitrary probabilities.
    Satisfies 1 + eta*sigma_beta = 1/(1 - tau) identically.
    """
    if sigma_beta <= 0.0:
        raise ValueError("strongly convex schedule needs sigma_beta > 0")
    if rate_constant <= 0.0:
        raise ValueError("rate constant must be positive")
    tau = 2.0 / (1.0 + math.sqrt(4.0 * rate_constant / sigma_beta + 1.0))
    eta = 1.0 / (tau * rate_constant)
    return tau, eta


def ns_schedule(k: int, s_alpha_sq: float):
    """(eta_{k+1}, tau_k) for the non-strongly-convex loop at iteration k.

    eta grows linearly, eta_{k+1} = (k+2)/(2 S_alpha^2), and the momentum
    weight is tau_k = 1/(eta_{k+1} S_alpha^2) = 2/(k+2).  Consecutive eta
    satisfy eta_k^2 S^2 = eta_{k+1}^2 S^2 - eta_{k+1} + 1/(4 S^2).
    """
    if s_alpha_sq <= 0.0:
        raise ValueError("s_alpha_sq must be positive")
    eta = (k + 2.0) / (2.0 * s_alpha_sq)
    tau = 2.0 / (k + 2.0)
    return eta, tau


# --- sampling distributions ---


def nu_probabilities(profile: SmoothnessProfile) -> np.ndarray:
    """p_i proportional to L_i^alpha with alpha = (1 - beta)/2."""
    w = profile.l ** profile.alpha
    return w / w.sum()


def rcdm_probabilities(profile: SmoothnessProfile) -> np.ndarray:
    """p_i proportional to L_i^(1-beta) (uniform when beta = 1)."""
    w = profile.l ** (1.0 - profile.beta)
    return w / w.sum()


def acdm_probabilities(profile: SmoothnessProfile) -> np.ndarray:
    """Uniform-rate baseline distribution: p_i proportional to
    max(L_i, mean(L))."""
    w = np.maximum(profile.l, profile.l.mean())
    return w / w.sum()


# --- per-iteration diagnostics ---


def mirror_step_residual(
    profile: SmoothnessProfile,
    z_prev: np.ndarray,
    z_next: np.ndarray,
    x_next: np.ndarray | None,
    i: int,
    grad_i: float,
    p_i: float,
    eta: float,
    sigma_beta: float = 0.0,
) -> float:
    """Weighted-norm residual of the z-step's first-order condition.

    The z update minimizes
        (eta/p_i) * grad_i * z_i + 0.5*||z - z_prev||^2_{L^beta}
        + (eta*sigma_beta/2) * ||z - x_next||^2_{L^beta}
    (the last term only in the strongly convex loop).  In exact arithmetic
    the produced z_next zeroes this subproblem's gradient; the returned
    L^beta-norm of that gradient measures floating-point error only.
    """
    lb = profile.l ** profile.beta
    grad = lb * (z_next - z_prev)
    if sigma_beta != 0.0:
        grad += eta * sigma_beta * lb * (z_next - x_next)
    grad[i] += (eta / p_i) * grad_i
    return float(np.sqrt(np.sum(lb * grad * grad)))


def _descent_violation(f_x: float, f_y: float, g: float, l_i: float) -> float:
    """Relative amount by which the single-coordinate descent guarantee
    f(y) <= f(x) - g^2/(2 L_i) is violated (negative when satisfied)."""
    return (f_y - (f_x - g * g / (2.0 * l_i))) / max(1.0, abs(f_x))


# --- the coordinate loop and its schedules ---


class _StronglyConvex:
    """Constant (tau, eta); each step shrinks z and pulls it toward x.

    rate_constant is the M whose square root controls the 1 - tau
    contraction (see accel_schedule)."""

    def __init__(self, profile: SmoothnessProfile, p: np.ndarray, rate_constant: float):
        self.sigma = profile.sigma_beta
        self.tau, self.eta = accel_schedule(rate_constant, self.sigma)
        self.shrink = 1.0 / (1.0 + self.eta * self.sigma)
        self.z_coef = self.eta / (p * profile.l ** profile.beta)

    def step(self, k: int):
        return self.tau, self.eta

    def move_z(self, z: TrackedPoint, x: TrackedPoint, i: int, g: float, eta: float):
        shrink = self.shrink
        z.combine(shrink, z, shrink * eta * self.sigma, x)
        z.apply_coord_step(i, -shrink * self.z_coef[i] * g)

    def check_start(self, algo: str):
        # a failure here means a corrupted profile
        lhs, rhs = 1.0 + self.eta * self.sigma, 1.0 / (1.0 - self.tau)
        if abs(lhs - rhs) > 1e-12 * abs(lhs):
            raise InvariantViolation(f"{algo}: schedule identity off: {lhs} vs {rhs}")

    def check_step(self, algo: str, k: int, eta: float):
        pass


class _Growing:
    """eta_{k+1} = (k+2)/(2 S^2) and tau_k = 2/(k+2) (see ns_schedule); each
    step moves z in the sampled coordinate only."""

    sigma = 0.0

    def __init__(self, profile: SmoothnessProfile, p: np.ndarray, s_alpha_sq: float):
        self.s_sq = s_alpha_sq
        self.inv_plb = 1.0 / (p * profile.l ** profile.beta)

    def step(self, k: int):
        eta, tau = ns_schedule(k, self.s_sq)
        return tau, eta

    def move_z(self, z: TrackedPoint, x: TrackedPoint, i: int, g: float, eta: float):
        z.apply_coord_step(i, -eta * self.inv_plb[i] * g)

    def check_start(self, algo: str):
        pass

    def check_step(self, algo: str, k: int, eta: float):
        # eta recurrence linking consecutive steps
        s_sq = self.s_sq
        e_prev = (k + 1.0) / (2.0 * s_sq)
        lhs = e_prev * e_prev * s_sq
        rhs = eta * eta * s_sq - eta + 1.0 / (4.0 * s_sq)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            raise InvariantViolation(
                f"{algo}: step recurrence off at iteration {k}: {lhs} vs {rhs}"
            )


def _coordinate_loop(oracle, profile, x0, cfg, p, algo, schedule=None):
    """The one coordinate-step loop behind every sampled solver.

    Each step draws i ~ p and moves y to x - (1/L_i) grad_i f(x) e_i.  With
    a schedule the run is accelerated: x_{k+1} = tau_k z_k + (1 - tau_k) y_k
    before the draw, and the schedule moves z after it.  Without one, x and
    y are the same point and the run is plain randomized coordinate
    descent.  Returns (y_final, trace); the trace records f(y_k).
    """
    checking = cfg.check_level != "off"
    check_all = cfg.check_level == "full"
    l = profile.l
    inv_l = 1.0 / l

    x = TrackedPoint(oracle, x0)
    y, z = (x, None) if schedule is None else (x.copy(), x.copy())
    next_index = _IndexStream(WeightedSampler(p, cfg.seed))
    rec = _Recorder(algo, cfg, units_per_epoch=oracle.n)
    worst_descent = -math.inf
    worst_mirror = 0.0 if schedule is not None else math.nan
    if checking and schedule is not None:
        schedule.check_start(algo)

    stopped = rec.record(0, y.value(), y.x, y.agg)
    k = 0
    while k < cfg.iters and not stopped:
        if schedule is not None:
            tau, eta = schedule.step(k)
            x.combine(tau, z, 1.0 - tau, y)
            y.copy_from(x)
        i = next_index()
        g = x.coord_grad(i)
        if not math.isfinite(g):
            raise InvariantViolation(f"{algo}: non-finite gradient at iteration {k}")

        at_record = (k + 1) % cfg.trace_stride == 0 or (k + 1) == cfg.iters
        check_now = check_all or (checking and at_record)
        f_x = x.value() if check_now else 0.0
        y.apply_coord_step(i, -g * inv_l[i])

        if check_now:
            viol = _descent_violation(f_x, y.value(), g, l[i])
            worst_descent = max(worst_descent, viol)
            if viol > DESCENT_SLACK:
                raise InvariantViolation(
                    f"{algo}: coordinate descent guarantee violated by {viol:.3e} "
                    f"at iteration {k}"
                )

        if schedule is not None:
            z_prev = z.x.copy() if check_now else None
            schedule.move_z(z, x, i, g, eta)
            if check_now:
                schedule.check_step(algo, k, eta)
                res = mirror_step_residual(
                    profile, z_prev, z.x, x.x, i, g, p[i], eta, schedule.sigma
                )
                worst_mirror = max(worst_mirror, res)
                if res > MIRROR_RESIDUAL_TOL:
                    raise InvariantViolation(
                        f"{algo}: z-step residual {res:.3e} at iteration {k}"
                    )

        k += 1
        if at_record:
            stopped = rec.record(k, y.value(), y.x, y.agg)

    return y.x.copy(), rec.finish(
        cfg.seed,
        worst_descent if checking else math.nan,
        worst_mirror if checking else math.nan,
    )


# --- accelerated solvers ---


def generalized_accel(
    oracle: CoordOracle,
    profile: SmoothnessProfile,
    x0: np.ndarray,
    cfg: SolverConfig,
    p,
    rate_constant: float | None = None,
):
    """Accelerated descent under an arbitrary sampling distribution p.

    The contraction constant defaults to M = max_i L_i^(1-beta) / p_i^2;
    with the non-uniform distribution L_i^alpha / S_alpha this reduces to
    S_alpha^2 and the run coincides with nu_acdm.  A caller may pass a
    larger rate_constant to model a method with a weaker guarantee.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (profile.n,):
        raise ValueError("p must have one entry per coordinate")
    if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("sampling probabilities must be positive and finite")
    p = p / p.sum()
    m_valid = float(np.max(profile.l ** (1.0 - profile.beta) / (p * p)))
    if rate_constant is None:
        rate_constant = m_valid
    elif rate_constant < m_valid * (1.0 - 1e-12):
        raise ValueError(
            f"rate_constant {rate_constant} below the valid minimum {m_valid}"
        )
    schedule = _StronglyConvex(profile, p, rate_constant)
    return _coordinate_loop(oracle, profile, x0, cfg, p, "accel", schedule)


def nu_acdm(
    oracle: CoordOracle,
    profile: SmoothnessProfile,
    x0: np.ndarray,
    cfg: SolverConfig,
):
    """Accelerated coordinate descent with non-uniform sampling, strongly
    convex case.

    Per iteration, with alpha = (1-beta)/2, S = sum_i L_i^alpha,
    tau = 2/(1 + sqrt(4 S^2/sigma + 1)), eta = 1/(tau S^2):

        x_{k+1} = tau * z_k + (1 - tau) * y_k
        draw i with probability p_i = L_i^alpha / S
        y_{k+1} = x_{k+1} - (1/L_i) * grad_i f(x_{k+1}) * e_i
        z_{k+1} = (z_k + eta*sigma*x_{k+1} - eta/(p_i L_i^beta)
                   * grad_i f(x_{k+1}) * e_i) / (1 + eta*sigma)

    Expected suboptimality contracts by (1 - tau) per iteration.
    Returns (y_final, trace); the trace records f(y_k).
    """
    out, trace = generalized_accel(oracle, profile, x0, cfg, nu_probabilities(profile))
    trace.algo = "nu-acdm"
    return out, trace


def acdm_baseline(
    oracle: CoordOracle,
    profile: SmoothnessProfile,
    x0: np.ndarray,
    cfg: SolverConfig,
):
    """Uniform-rate accelerated baseline.

    Samples i proportional to max(L_i, mean(L)) and runs the generalized
    loop at the rate constant n * sum_i L_i^(1-beta), the contraction this
    family of methods guarantees irrespective of the spread of the L_i.
    (The per-coordinate validity bound max_i L_i^(1-beta)/p_i^2 can be
    smaller on skewed profiles; the max keeps the step admissible either
    way.)  Against it, the non-uniform schedule's predicted advantage is
    exactly speedup_factor(profile).
    """
    p = acdm_probabilities(profile)
    m_valid = float(np.max(profile.l ** (1.0 - profile.beta) / (p * p)))
    m_rate = profile.n * s_alpha(profile, 1.0 - profile.beta)
    out, trace = generalized_accel(
        oracle, profile, x0, cfg, p, rate_constant=max(m_rate, m_valid)
    )
    trace.algo = "acdm"
    return out, trace


def nu_acdm_ns(
    oracle: CoordOracle,
    profile: SmoothnessProfile,
    x0: np.ndarray,
    cfg: SolverConfig,
):
    """Accelerated coordinate descent with non-uniform sampling for merely
    convex objectives (sigma_beta may be 0).

    Uses the growing step eta_{k+1} = (k+2)/(2 S^2) and momentum
    tau_k = 2/(k+2); the z update touches only the sampled coordinate:

        x_{k+1} = tau_k * z_k + (1 - tau_k) * y_k
        y_{k+1} = x_{k+1} - (1/L_i) * grad_i f(x_{k+1}) * e_i
        z_{k+1} = z_k - eta_{k+1}/(p_i L_i^beta) * grad_i f(x_{k+1}) * e_i

    Expected suboptimality after T steps is at most
    2 * ||x0 - x*||^2_{L^beta} * S^2 / (T+1)^2.
    """
    p = nu_probabilities(profile)
    schedule = _Growing(profile, p, s_alpha(profile, profile.alpha) ** 2)
    return _coordinate_loop(oracle, profile, x0, cfg, p, "nu-acdm-ns", schedule)


# --- unaccelerated baselines ---


def rcdm(
    oracle: CoordOracle,
    profile: SmoothnessProfile,
    x0: np.ndarray,
    cfg: SolverConfig,
):
    """Plain randomized coordinate descent: draw i proportional to
    L_i^(1-beta), step x <- x - (1/L_i) grad_i f(x) e_i.  Descends in
    every iteration."""
    return _coordinate_loop(oracle, profile, x0, cfg, rcdm_probabilities(profile), "rcdm")


def full_gd(
    oracle: CoordOracle,
    l_global: float,
    x0: np.ndarray,
    cfg: SolverConfig,
):
    """Deterministic full-gradient descent with step 1/l_global; l_global
    must dominate the global smoothness constant.  One iteration equals
    one epoch in the trace's accounting."""
    if l_global <= 0.0:
        raise ValueError("l_global must be positive")
    x0 = np.asarray(x0, dtype=float)
    x = TrackedPoint(oracle, x0)
    rec = _Recorder("gd", cfg, units_per_epoch=1)
    checking = cfg.check_level != "off"
    prev_value = x.value()

    stopped = rec.record(0, prev_value, x.x, x.agg)
    k = 0
    while k < cfg.iters and not stopped:
        step = oracle.full_grad(x.x, x.agg) / l_global
        x.x -= step
        x.rebuild()
        k += 1
        at_record = k % cfg.trace_stride == 0 or k == cfg.iters
        if checking and (cfg.check_level == "full" or at_record):
            value = x.value()
            if value - prev_value > 1e-12 * max(1.0, abs(prev_value)):
                raise InvariantViolation(
                    f"gd: objective increased at iteration {k}: "
                    f"{prev_value} -> {value}"
                )
            prev_value = value
        if at_record:
            stopped = rec.record(k, x.value(), x.x, x.agg)

    return x.x.copy(), rec.finish(cfg.seed)


def kaczmarz(
    a_matrix: SparseRowMatrix,
    b: np.ndarray,
    x0: np.ndarray,
    cfg: SolverConfig,
):
    """Randomized row projection for A x = b.

    Draws row i proportional to ||a_i||^2 and projects the iterate onto
    its hyperplane: x <- x + (b_i - <a_i, x>)/||a_i||^2 * a_i.  The trace
    value is the squared residual ||A x - b||^2; epochs count m rows.
    """
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    m = a_matrix.m
    if b.shape != (m,) or x.shape != (a_matrix.d,):
        raise ValueError("b must have one entry per row and x0 one per column")
    norms_sq = a_matrix.row_norms_sq
    if np.any(norms_sq <= 0.0):
        raise ValueError("kaczmarz requires every row to be nonzero")
    next_index = _IndexStream(WeightedSampler(norms_sq, cfg.seed))
    rec = _Recorder("kaczmarz", cfg, units_per_epoch=m)
    indptr, indices, data = a_matrix.indptr, a_matrix.indices, a_matrix.data

    def residual_sq():
        r = a_matrix.matvec(x) - b
        return float(np.dot(r, r))

    stopped = rec.record(0, residual_sq(), x, None)
    k = 0
    while k < cfg.iters and not stopped:
        i = next_index()
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        r = b[i] - np.dot(vals, x[cols])
        x[cols] += (r / norms_sq[i]) * vals
        k += 1
        if k % cfg.trace_stride == 0 or k == cfg.iters:
            stopped = rec.record(k, residual_sq(), x, None)

    return x.copy(), rec.finish(cfg.seed)
