"""Randomized coordinate solvers.

All methods consume a CoordOracle plus a SmoothnessProfile and draw
coordinates from a seeded inverse-CDF sampler, so a run is bit-reproducible
from (oracle, profile, x0, config) for a fixed BLAS library and thread
count.  The sampled coordinate methods share one loop: each step draws a
coordinate, takes one coordinate gradient and one coordinate step.  The
accelerated methods add a step-size schedule to it, constant (tau, eta) in
the strongly convex case or growing otherwise; the schedule couples the
step with a second sequence z.  The loop keeps both
sequences implicitly, as two stored vectors and one scalar, so the coupling
costs O(1).  On an oracle with a row matrix a step slices the sampled row
out of its CSR arrays once, gathers the aggregate on its columns once and
scatters into the two stored caches directly, so it costs O(nnz of one
row).  The caches are the two rows of one (2, d) array, so a row of all d
columns updates both with one broadcast add (and the single cache of plain
descent in place); whole iterates are formed only at trace records,
checked steps and return.  Without a schedule the loop is plain randomized
coordinate descent on a single sequence, which on the dual of a linear
system is Kaczmarz.  Single and block steps read one plan of a run's
steps: coordinates, implicit coefficients and their folds (_StepPlan).

On an oracle with a block_model (the Kaczmarz quadratic, kaczmarz's
residual form and the ridge, smoothed-Lasso and penalty duals), an
unchecked run with a trace stride of at least _BLOCK_MIN steps
(_CSR_SEGMENT_MIN on rows of scattered columns) takes block Gauss-Seidel
steps: B steps of the plan, the B x B weighted Gram matrix of their rows
and one triangular solve for all B gradients (see _Blocks).  On rows of
scattered columns the structure that depends only on the blocks' rows
(their entries and column pairs) is built once for a window of
consecutive blocks, and each block reads slices of it
(_ScatteredWindow).  Every kind of rows reads one triangle and one
keeps_x sum (_BlockRows) and supplies its Gram, repeat term and -K.  A
scattered block's Gram is mostly zero, so it forms these at its column
pairs and at its pairs of steps on one coordinate alone, not as B x B
arrays (_ScatteredRows).  The Lasso's model holds only while no entry
of the aggregate crosses +-lam, and the penalty's only while no step's
coordinate crosses +-1; a block that crosses applies the steps before
the crossing and restarts there.  On rows of all d columns a block runs
across trace records, which are taken from its first steps' moves, and
ends at a record near _DENSE_BLOCK steps; on other rows every record
ends a block.
A linear system (the Kaczmarz quadratic, kaczmarz's residual form) of
rows of all d columns, with m at most 4 d and an m x m Gram under 8 MiB,
where row blocks would be shorter than 80 steps, takes the Gram path
instead: its blocks read the matrix's cached A A^T and the products r of
the caches with every row, move r alone, and the caches are rebuilt from
the points at each trace record and at return (_GramRows).  Blocks are
exact in arithmetic, so records and stops are those of single steps, but
they round differently: such a run agrees with a checked run (always
single steps) to rounding, not bit for bit.  Either way a run is
bit-reproducible from its parameters and seed, for a fixed BLAS library
and thread count: the cached Gram is one BLAS syrk, whose rounding can
change with the thread count.

Iteration cost is honest: no solver ever forms a full gradient except
full_gd, which exists as a reference baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg.blas import dtrsv as _dtrsv

from .geometry import CoordOracle, SmoothnessProfile, TrackedPoint, s_alpha
from .matrix import SparseRowMatrix
from .sampling import WeightedSampler

# a per-step descent violation larger than this (relative) aborts the run;
# an accelerated step allows it times the spread of its stored terms
DESCENT_SLACK = 1e-12
# absolute tolerance on the first-order residual of the z-step subproblem
MIRROR_RESIDUAL_TOL = 1e-9
# the accelerated loop folds its implicit coefficient c into the stored
# vectors once c falls below this: an O(n + d) step, taken at step 0 by the
# growing schedule (tau_0 = 1) and about every 100/tau steps by the
# strongly convex one
FOLD_BELOW = 2.0 ** -300
# block steps (_Blocks): a block is at least _BLOCK_MIN steps, and
# sqrt(_BLOCK_WORK / nnz per row) steps on rows of few columns, so that its
# Gram product takes about _BLOCK_WORK multiply-adds.  A run takes
# them on rows of all d columns when its trace stride is at least
# _BLOCK_MIN, and on any other rows when it is at least _CSR_SEGMENT_MIN: a
# block of those pays a stable sort of its entries by column (numpy's radix
# sort when d <= 2^16, its timsort above; see _ScatteredWindow) and some
# dozen numpy calls whatever its length.  The thresholds are where blocks
# began to beat single steps on 300 x 100 dense rows and, on rows of few
# columns, on a 2000 x 5000 Lasso and ridge dual of 20 nnz per row and a
# 20000 x 1000 system of 10 (single/block wall time 0.8-1.8 at stride 16,
# 1.2-1.7 at 32).
_BLOCK_MIN = 16
_BLOCK_WORK = 2 ** 18
_CSR_SEGMENT_MIN = 32
# on rows of all d columns off the Gram path a block also pays some ten
# B x B passes (repeat mask, -K, triangle, solve) that the Gram product
# rule does not count, so it aims at no more than _DENSE_BLOCK steps
# (_Blocks._reach).  In one-segment 1200-step runs on a 30 x 8 dual, timed
# in one process against blocks of the rule's 181 steps (see CHANGES.md),
# a ridge dual took 0.92, 0.84, 0.80, 0.80 and 0.88 of their time at 48,
# 64, 80, 96 and 128 steps, and a penalty dual, which restarts less in
# shorter blocks, 0.50, 0.47, 0.48, 0.50 and 0.65
_DENSE_BLOCK = 80
# a window of blocks on rows of few columns (_ScatteredWindow) holds the
# blocks from its first on while those before hold fewer entries than
# this.  Larger windows share their fixed cost over more blocks, but their
# temporaries (some 20 arrays the window's length) outgrow the heap the
# allocator keeps and page-fault anew in every window: at 2^18 entries
# 2 500-4 000 faults a window, and a blocked run 1.3-2 times as long as
# one of blocks built alone; at 2^15 under 200, and none once the process
# had freed an 8 MB array, as parsing a large file does
_WINDOW_WORK = 2 ** 15
# the Gram path of the linear-system oracles (_GramRows) costs O(B m) per
# block, not O(B^2 d), and runs blocks of _GRAM_BLOCK steps.  It takes rows
# of all d columns whose m x m Gram fits _GRAM_BYTES, with m at most
# _GRAM_ROWS_PER_COLUMN d, where the row path's blocks are shorter than
# _GRAM_BLOCK.  Measured against the row path (see CHANGES.md), it won on
# 200-400 x 100 systems and tied or won on 1000 x 500; it lost on 600-2000
# x 100, 2000 x 500 and every system of 10 or 30 columns tried, whose row
# blocks are longer
_GRAM_BYTES = 8 * 2 ** 20
_GRAM_ROWS_PER_COLUMN = 4
_GRAM_BLOCK = 80

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
    stop_when_dist_below : early-stop threshold on dist_fn at trace records
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
        for name in ("iters", "seed", "trace_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if self.iters < 0:
            raise ValueError("iters must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")
        if self.check_level not in _CHECK_LEVELS:
            raise ValueError(f"check_level must be one of {_CHECK_LEVELS}")
        if self.stop_when_dist_below is not None and self.dist_fn is None:
            raise ValueError("stop_when_dist_below needs a dist_fn to test")


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


def _term_spread(u: np.ndarray, v: np.ndarray, c: float, x: np.ndarray) -> float:
    """max(|u| + c|v|) / max|x| for x = u + c v, at least 1: how many times
    larger than x the terms are that x is formed from.  f(x) rounds at
    their size, not at x's, so a step's descent slack is DESCENT_SLACK
    times this."""
    terms = float(np.max(np.abs(u) + c * np.abs(v)))
    return max(1.0, terms / max(float(np.max(np.abs(x))), np.finfo(float).tiny))


# --- the coordinate loop and its schedules ---


class _StronglyConvex:
    """Constant (tau, eta); each step shrinks z and pulls it toward x.

    rate_constant is the M whose square root controls the 1 - tau
    contraction (see accel_schedule).  In the loop's implicit form
    (y = u + c v, z = u + r c v) the recombination step maps (y, z) by a
    matrix whose rows sum to 1, because 1 + eta sigma = 1/(1 - tau); its
    other eigenvector is (1, r) with r = -(1 - tau) and eigenvalue
    rho = (1 - tau)^2.  So the step only scales c by rho."""

    def __init__(self, profile: SmoothnessProfile, p: np.ndarray, rate_constant: float):
        self.sigma = profile.sigma_beta
        self.tau, self.eta = accel_schedule(rate_constant, self.sigma)
        self.r = -(1.0 - self.tau)
        self.rho = (1.0 - self.tau) ** 2
        shrink = 1.0 / (1.0 + self.eta * self.sigma)
        self.z_coef = shrink * self.eta / (p * profile.l ** profile.beta)

    def steps(self, k: int, idx: np.ndarray):
        """(rho, eta, z coefficient) of steps k .. k + idx.size - 1 on
        coordinates idx, as arrays: step t moves z_{idx[t]} by -(its z
        coefficient) g."""
        return np.full(idx.size, self.rho), np.full(idx.size, self.eta), self.z_coef[idx]

    def check_start(self, algo: str):
        # a failure here means a corrupted profile
        lhs, rhs = 1.0 + self.eta * self.sigma, 1.0 / (1.0 - self.tau)
        if abs(lhs - rhs) > 1e-12 * abs(lhs):
            raise InvariantViolation(f"{algo}: schedule identity off: {lhs} vs {rhs}")

    def check_step(self, algo: str, k: int, eta: float):
        pass


class _Growing:
    """eta_{k+1} = (k+2)/(2 S^2) and tau_k = 2/(k+2) (see ns_schedule); each
    step moves z in the sampled coordinate only.  In the loop's implicit
    form z = u (r = 0) and the recombination scales c by rho_k = 1 - tau_k."""

    sigma = 0.0
    r = 0.0

    def __init__(self, profile: SmoothnessProfile, p: np.ndarray, s_alpha_sq: float):
        ns_schedule(0, s_alpha_sq)  # validates s_alpha_sq
        self.s_sq = s_alpha_sq
        self.z_coef = 1.0 / (p * profile.l ** profile.beta)

    def steps(self, k: int, idx: np.ndarray):
        """As _StronglyConvex.steps, from ns_schedule over the steps."""
        eta, tau = ns_schedule(np.arange(k, k + idx.size), self.s_sq)
        return 1.0 - tau, eta, eta * self.z_coef[idx]

    def check_start(self, algo: str):
        pass

    def check_step(self, algo: str, k: int, eta: float):
        # eta recurrence linking consecutive steps
        s_sq, e_prev = self.s_sq, ns_schedule(k - 1, self.s_sq)[0]
        lhs = e_prev * e_prev * s_sq
        rhs = eta * eta * s_sq - eta + 1.0 / (4.0 * s_sq)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            raise InvariantViolation(
                f"{algo}: step recurrence off at iteration {k}: {lhs} vs {rhs}"
            )


class _StepPlan:
    """The steps of one run: step t's coordinate i_t (the sampler's stream)
    and the coefficients its consumer reads.  c_t = c_{t-1} rho_t from
    c = 1; where it falls below FOLD_BELOW the run folds it into v
    (v *= c_t, then c_t = 1).  Under a schedule, single steps read
    (c_t, 1/L_{i_t}, z coefficient, eta_t), z_{i_t} moving by
    -(z coefficient) g; block steps (blocks=True) read (c_t, kappa_t, w_t),
    the moves of u_{i_t} and v_{i_t} per unit of g:
        kappa_t = (r/L_{i_t} - z coefficient) / (1 - r)
        w_t = (z coefficient - 1/L_{i_t}) / (c_t (1 - r)),
    which is du = (dz - r dy)/(1 - r) and dv = (dy - dz)/(c (1 - r))
    regrouped.  Without a schedule (c = 1, no z) the plan holds one float
    per step: 1/L_{i_t} for single steps, and L_{i_t} itself for block
    steps, which solve with it on their diagonal.  take(size) returns
    (idx, fold, coefs) for at most size next steps: a fold's factor to
    apply before the first (or None; a request ends before the next fold)
    and a view of their rows of the table.  ahead(size) shows the
    coordinates and folds of the next size steps without taking them, and
    give_back(count) returns the last count steps taken, never all of a
    request.  Planning 4096 steps at a time makes a short request
    a slice; draws continue one stream and c one product, so that changes
    no step."""

    def __init__(self, sampler: WeightedSampler, count: int, schedule, l,
                 blocks: bool):
        self.sampler, self.left = sampler, count  # steps not yet planned
        self.schedule, self.blocks = schedule, blocks
        self.per_coord = l if blocks and schedule is None else 1.0 / l
        width = () if schedule is None else (3 if blocks else 4,)
        self.idx, self.coefs = np.zeros(0, np.int64), np.zeros((0, *width))
        self.base, self.pos = 0, 0  # the step at idx[0], the next position
        self.c = 1.0  # c of the last step planned
        self.folds = []  # (step, factor) of each fold not yet taken, ascending

    def _plan(self, size: int):
        """Drops the steps taken and plans until size steps are ahead."""
        idx, coefs = [self.idx[self.pos:]], [self.coefs[self.pos:]]
        self.base, self.pos, schedule = self.base + self.pos, 0, self.schedule
        k = self.base + idx[0].size  # the next step to plan
        while k < self.base + size:
            count = min(4096, self.left)
            self.left -= count
            idx.append(self.sampler.sample_block(count))
            il = self.per_coord[idx[-1]]  # 1/L under a schedule
            if schedule is None:
                coefs.append(il)
            else:
                rho, eta, zc = schedule.steps(k, idx[-1])
                rho[0] *= self.c
                cs = np.cumprod(rho)
                # c only falls between folds: the steps below FOLD_BELOW are
                # those from the next fold on
                while cs[-1] < FOLD_BELOW:
                    t = int(np.count_nonzero(cs >= FOLD_BELOW))
                    self.folds.append((k + t, float(cs[t])))
                    rho[t] = 1.0
                    cs[t:] = np.cumprod(rho[t:])
                self.c = float(cs[-1])
                if self.blocks:
                    r = schedule.r
                    kappa = (r * il - zc) / (1.0 - r)
                    w = (zc - il) / (cs * (1.0 - r))
                    coefs.append(np.column_stack((cs, kappa, w)))
                else:
                    coefs.append(np.column_stack((cs, il, zc, eta)))
            k += count
        self.idx, self.coefs = np.concatenate(idx), np.concatenate(coefs)

    def take(self, size: int):
        if self.pos + size > self.idx.size:
            self._plan(size)
        pos, k, folds = self.pos, self.base + self.pos, self.folds
        fold = folds.pop(0)[1] if folds and folds[0][0] == k else None
        if folds:
            size = min(size, folds[0][0] - k)
        self.pos = pos + size
        return self.idx[pos:self.pos], fold, self.coefs[pos:self.pos]

    def ahead(self, size: int):
        """(idx, fold steps): the coordinates of the next size steps, not
        taken, and the steps of the folds not yet taken among them,
        ascending."""
        if self.pos + size > self.idx.size:
            self._plan(size)
        end = self.base + self.pos + size
        return self.idx[self.pos:self.pos + size], [t for t, _ in self.folds if t < end]

    def give_back(self, count: int):
        self.pos -= count


class _BlockRows:
    """The view of a block that _Blocks hands to oracle.block_model: its
    coordinates idx in step order and their rows, with the stored points
    (ux, vx) and their caches aggs read at the step coefficients cs (None
    without a schedule), so that step t sees x = ux + cs[t] vx and the
    aggregate aggs[0] + cs[t] aggs[1].  The triangle the solve reads and
    the keeps_x sums are written here once (triangle, x_moves); each kind
    of rows supplies its Gram (gram), its repeat term (add_delta), its -K
    (times_neg_k) and its steps on repeat pairs (repeat_grid)."""

    def __init__(self, idx: np.ndarray, ux, vx, aggs, cs):
        self.idx, self.ux, self.vx, self.aggs, self.cs = idx, ux, vx, aggs, cs

    def triangle(self, model, coefs: np.ndarray, below) -> np.ndarray:
        """The array whose lower triangle the solve reads: A o (-K), A =
        delta E + G, or, without a schedule, A with the plan's L (coefs)
        on its diagonal.  The rows give G (gram), add delta where E holds
        (add_delta) and multiply -K in (times_neg_k), -K_ts = -(kappa_s +
        c_t w_s); below(B) is the strict lower mask."""
        tri = self.gram(model.weights)
        delta, self.keeps_x = model.delta, model.keeps_x
        if self.keeps_x is not None or not isinstance(delta, float) or delta:
            if not self.add_delta(tri, delta, below):
                # no step moves its own coordinate before it
                self.keeps_x = None
        if self.cs is None:
            tri.flat[::self.idx.size + 1] = coefs
        else:
            _cs, kappa, w = coefs.T
            self.times_neg_k(tri, kappa, w)
        return tri

    def x_moves(self, steps: np.ndarray) -> np.ndarray:
        """(B,): each step's move of x_{i_t}, the sum of its steps on
        earlier steps on i_t: row t of a B x B grid of steps summed where
        the repeat mask holds (repeat_grid)."""
        grid, rep = self.repeat_grid(steps)
        return grid.sum(axis=1, where=rep)

    def x(self) -> np.ndarray:
        """(B,): x_{i_t} at each step t."""
        if self.cs is None:
            return self.ux[self.idx]
        return self.ux[self.idx] + self.cs * self.vx[self.idx]

    def first_failing(self, model, g: np.ndarray, div: float) -> int:
        """The first step whose model fails once the solve's g moves the
        block, or B when none does: each entry's move (moves) against
        model.keeps, and each step's move of x_{i_t} (x_moves) against
        keeps_x, which triangle left None when no coordinate repeats."""
        keeps, keeps_x = model.keeps, self.keeps_x
        first = g.size
        if keeps is None and keeps_x is None:
            return first
        steps = self.steps(g)
        with np.errstate(invalid="ignore", over="ignore"):
            if keeps is not None:
                left = ~keeps(self.moves(steps) / div)
                if left.any():
                    first = self.first_step(left)
            if keeps_x is not None:
                left = ~keeps_x(self.x_moves(steps))
                if left.any():
                    first = min(first, int(np.argmax(left)))
        return first


class _DenseRows(_BlockRows):
    """A block whose Gram is a dense B x B array (_FullRows, _GramRows):
    its repeat term, -K and steps are B x B arrays too."""

    def add_delta(self, tri: np.ndarray, delta, below) -> bool:
        """tri += delta E below the diagonal, the only part of tri the solve
        reads: E is the repeat mask rep[t, s] = [i_s = i_t] for s < t.
        False when E is 0.  Coordinates under 2^16 compare as uint16, in
        about half the time of int64 at B = 90."""
        ids = self.idx.astype(np.uint16) if self.ux.size <= 2 ** 16 else self.idx
        rep = ids[:, None] == ids
        rep &= below(self.idx.size)
        if not rep.any():
            return False
        np.add(tri, delta if isinstance(delta, float) else delta[:, None], out=tri, where=rep)
        self.rep = rep
        return True

    def times_neg_k(self, tri: np.ndarray, kappa: np.ndarray, w: np.ndarray):
        self.neg_k = np.multiply.outer(self.cs, -w)
        self.neg_k -= kappa
        tri *= self.neg_k

    def steps(self, g: np.ndarray) -> np.ndarray:
        """steps[t, s] = K_ts g_s, the move of x_{i_s} step t sees (-h_s
        without a schedule)."""
        if self.cs is None:
            return np.broadcast_to(-g, (g.size, g.size))
        return self.neg_k * -g

    def repeat_grid(self, steps: np.ndarray):
        return steps, self.rep


class _FullRows(_DenseRows):
    """The rows of a matrix whose rows all have d columns."""

    def __init__(self, dense: np.ndarray, idx: np.ndarray, *state):
        super().__init__(idx, *state)
        self.rows, self.added = dense[idx], 0

    def dots(self) -> np.ndarray:
        parts = self.rows @ self.aggs.T
        return parts[:, 0] if self.cs is None else parts[:, 0] + self.cs * parts[:, 1]

    def entries(self) -> np.ndarray:
        """(B, d): the aggregate of each step t on row t's entries."""
        if self.cs is None:
            return np.broadcast_to(self.aggs[0], self.rows.shape)
        return self.aggs[0] + self.cs[:, None] * self.aggs[1]

    def sums(self, w: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.rows, w)

    def gram(self, weights) -> np.ndarray:
        """A_I A_I^T, each product weighted by the weight of the left
        factor's entry (below the diagonal, the later step's); weights is a
        float or (B, d)."""
        if not isinstance(weights, float):
            return (self.rows * weights) @ self.rows.T
        gram = self.rows @ self.rows.T
        if weights != 1.0:
            gram *= weights
        return gram

    def moves(self, steps: np.ndarray) -> np.ndarray:
        """(B, d): the sum over s < t of steps[t, s] * a_s on row t's
        entries."""
        return np.tril(steps, -1) @ self.rows

    def first_step(self, entries: np.ndarray) -> int:
        """The first step with a True entry."""
        return int(np.argmax(entries.any(axis=1)))

    def add(self, upd: np.ndarray):
        """aggs += upd @ the block's next size rows, for a (k, size) upd:
        the block's moves in step order, in one piece or in pieces that
        end at the trace records inside it."""
        rows, start = self.rows, self.added
        self.added += upd.shape[1]
        if upd.shape[1] < len(rows):
            rows = rows[start:self.added]
        self.aggs += upd @ rows


def _run_pairs(same: np.ndarray):
    """(later, earlier): every pair of positions p > q of a sorted sequence
    that hold equal keys, ordered by p, then q, given same[j], whether
    position j + 1 repeats the key of position j.  A run's repeats are
    consecutive in same, and its start is just before them."""
    rep = np.flatnonzero(same) + 1
    run_first = np.empty(rep.size, bool)
    run_first[:1] = True
    np.not_equal(rep[1:], rep[:-1] + 1, out=run_first[1:])
    run_start = np.maximum.accumulate(np.where(run_first, rep - 1, 0))
    a = rep - run_start
    later = np.repeat(rep, a)
    earlier = np.repeat(run_start - np.cumsum(a) + a, a)
    earlier += np.arange(later.size)
    return later, earlier


def _repeat_pairs(idx: np.ndarray):
    """(t, s): every pair of steps s < t with idx[s] = idx[t], each t's
    pairs together and in ascending s."""
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    later, earlier = _run_pairs(sorted_idx[1:] == sorted_idx[:-1])
    return order[later], order[earlier]


class _ScatteredWindow:
    """The structure of consecutive blocks of rows of a SparseRowMatrix,
    built once for them all and read by each block as slices
    (_ScatteredRows): the blocks' coordinates idx in step order, block b
    being steps ends[b - 1] .. ends[b] - 1 (ends[-1] = idx.size).  Over
    the window's entries, in step order, it holds each entry's column,
    value and row within its block, and each row's first entry within its
    block; and its column pairs, block by block, as the pair's entries
    within its block (later, earlier).

    A block's pairs are every pair of entries of two of its rows on one
    column, the later row's entry first, in ascending column order.  Each
    block's entries are sorted stably by column (ids under 2^16 as
    uint16, which numpy radix-sorts in O(entries)), so that the window's
    entries fall into runs of equal columns, one block after another, and
    each entry after a run's first pairs with the entries before it in its
    run.  Past the sorts, the work is whole-window array passes; one sort
    of the whole window would cost as much as the blocks' sorts, and the
    pairs would then need a second sort to group them by block."""

    def __init__(self, mat: SparseRowMatrix, idx: np.ndarray, ends):
        # in-place arithmetic below keeps the window's temporaries few
        lo = mat.indptr[idx]
        lens = mat.indptr[idx + 1] - lo
        starts = np.cumsum(lens) - lens
        size = int(lens.sum())
        flat = np.repeat(lo - starts, lens)
        flat += np.arange(size)
        self.idx, self.lens = idx, lens
        self.cols, self.vals = mat.indices[flat], mat.data[flat]
        # numpy radix-sorts uint16 ids
        ids = self.cols.astype(np.uint16) if mat.d <= 2 ** 16 else self.cols
        sort = lambda lo, hi: np.argsort(ids[lo:hi], kind="stable")
        # block b is steps step_at[b] .. step_at[b + 1] - 1, entries
        # entry_at[b] .. and pairs pair_at[b] ..
        self.step_at = [0, *ends]
        blocks = len(ends)
        if blocks == 1:
            self.entry_at, self.starts = [0, size], starts
            self.row = np.repeat(np.arange(idx.size), lens)
            order = sort(0, size)
        else:
            counts = np.diff(self.step_at)
            at = starts[self.step_at[:-1]]  # each block's first entry
            self.entry_at = [*at.tolist(), size]
            self.starts = starts - np.repeat(at, counts)
            self.row = np.repeat(np.arange(idx.size) - np.repeat(self.step_at[:-1], counts),
                                 lens)
            order = np.concatenate([sort(lo, hi) + lo for lo, hi in
                                    zip(self.entry_at[:-1], self.entry_at[1:])])
        sorted_ids = ids[order]
        # the sorted positions that repeat the previous column of their
        # block: a run's repeats are consecutive, and its start is just
        # before them
        same = sorted_ids[1:] == sorted_ids[:-1]
        if blocks > 1:
            # a block's first entry starts a run
            cut = at[1:] - 1
            same[cut[(cut >= 0) & (cut < size - 1)]] = False
        later, earlier = _run_pairs(same)
        # later ascends, so each block's pairs are one run of it
        self.pair_at = ([0, later.size] if blocks == 1 else
                        [0, *np.searchsorted(later, at[1:]).tolist(), later.size])
        later, earlier = order[later], order[earlier]
        if blocks > 1:
            pairs = np.diff(self.pair_at)
            at = np.repeat(at, pairs)
            later -= at
            earlier -= at
        self.later, self.earlier = later, earlier

    def rows(self, b: int, *state) -> _ScatteredRows:
        """Block b, with the stored points and caches (ux, vx, aggs, cs)."""
        return _ScatteredRows(self, b, *state)


class _ScatteredRows(_BlockRows):
    """The rows of a block of a SparseRowMatrix as flat entries (block row,
    column, value), sliced from its _ScatteredWindow.  The Gram matrix, the
    products with the caches, the moves of the entries and the scatter
    into the caches cost O(entries and column pairs), whatever d is; the
    window finds the pairs.

    Its Gram is mostly zero, so what it supplies to _BlockRows.triangle
    is formed at its pairs alone: the column pairs, and the repeat pairs
    (t, s), s < t with i_s = i_t, when the model has a repeat term or a
    keeps_x test.  Those are found from idx, except that a block with no
    empty row and no keeps_x test finds them among its column pairs.
    delta is added at the repeat pairs, and -K and the steps K_ts g_s are
    formed at both, each entry by the operations the dense rows take, in
    their order.  The triangle is 0 off the pairs, and the keeps_x sum
    reads the steps at the repeat pairs in a zero B x B grid."""

    def __init__(self, window: _ScatteredWindow, b: int, *state):
        s0, s1 = window.step_at[b], window.step_at[b + 1]
        e0, e1 = window.entry_at[b], window.entry_at[b + 1]
        p0, p1 = window.pair_at[b], window.pair_at[b + 1]
        super().__init__(window.idx[s0:s1], *state)
        self.starts = window.starts[s0:s1]
        lens = window.lens[s0:s1]
        self.empty = None if np.count_nonzero(lens) == lens.size else lens == 0
        self.row, self.cols, self.vals = (window.row[e0:e1], window.cols[e0:e1],
                                          window.vals[e0:e1])
        self.later, self.earlier = window.later[p0:p1], window.earlier[p0:p1]
        # the steps (t, s) of the column pairs and their flat keys t B + s
        self.pair_t, self.pair_s = self.row[self.later], self.row[self.earlier]
        self.keys = self.pair_t * (s1 - s0) + self.pair_s
        # the pairs whose steps are formed: the column pairs, then the
        # repeat pairs that add_delta finds outside them
        self.step_keys, self.step_t, self.step_s = self.keys, self.pair_t, self.pair_s

    def _row_sums(self, x: np.ndarray) -> np.ndarray:
        """The sums of x over each row's entries, along x's last axis."""
        if self.empty is None:
            return np.add.reduceat(x, self.starts, axis=-1)
        # a trailing 0 gives empty rows at the end a valid start; reduceat
        # gives an empty row the entry at its start, not 0
        pad = np.zeros(x.shape[:-1] + (1,))
        out = np.add.reduceat(np.concatenate((x, pad), axis=-1), self.starts, axis=-1)
        out[..., self.empty] = 0.0
        return out

    def dots(self) -> np.ndarray:
        parts = self._row_sums(self.aggs[:, self.cols] * self.vals)
        return parts[0] if self.cs is None else parts[0] + self.cs * parts[1]

    def entries(self) -> np.ndarray:
        """The aggregate of each step t on row t's entries, flat."""
        if self.cs is None:
            return self.aggs[0, self.cols]
        return self.aggs[0, self.cols] + self.cs[self.row] * self.aggs[1, self.cols]

    def sums(self, w: np.ndarray) -> np.ndarray:
        return self._row_sums(self.vals * w)

    def gram(self, weights) -> np.ndarray:
        """The strict lower triangle of A_I A_I^T (the rest is 0), each
        product weighted by the weight of the later row's entry; weights
        is a float or one per entry."""
        later, earlier = self.later, self.earlier
        prod = self.vals[later] * self.vals[earlier]
        scalar = isinstance(weights, float)
        if not scalar:
            prod *= weights[later]
        n = len(self.starts)
        # with no pairs, bincount returns integer zeros
        gram = np.bincount(self.keys, weights=prod, minlength=n * n).astype(float, copy=False)
        if scalar and weights != 1.0:
            # a key's duplicates each write the same product
            gram[self.keys] *= weights
        return gram.reshape(n, n)

    def add_delta(self, tri: np.ndarray, delta, below) -> bool:
        """delta at the repeat pairs of tri, which from then on are formed
        after the column pairs; False when there are none."""
        flat = tri.reshape(-1)
        scalar = isinstance(delta, float)
        if scalar and self.keeps_x is None and self.empty is None:
            # a row of entries shares every column with itself, so without
            # empty rows the repeat pairs are among the column pairs
            # (repeated): delta goes there, and -K covers them already
            flat[self.keys[self.idx[self.pair_t] == self.idx[self.pair_s]]] += delta
            return True
        t, s = _repeat_pairs(self.idx)
        if not t.size:
            return False
        rep_keys = t * self.idx.size + s
        flat[rep_keys] += delta if scalar else delta[t]
        self.repeats = t, s
        self.step_keys = np.concatenate((self.keys, rep_keys))
        self.step_t = np.concatenate((self.pair_t, t))
        self.step_s = np.concatenate((self.pair_s, s))
        return True

    def times_neg_k(self, tri: np.ndarray, kappa: np.ndarray, w: np.ndarray):
        # a key's duplicates each write the same product
        self.neg_k = self.cs[self.step_t] * -w[self.step_s]
        self.neg_k -= kappa[self.step_s]
        tri.reshape(-1)[self.step_keys] *= self.neg_k

    def steps(self, g: np.ndarray) -> np.ndarray:
        """K_ts g_s at the column pairs, then the repeat pairs (-h_s
        without a schedule)."""
        neg_g = (-g)[self.step_s]
        return neg_g if self.cs is None else self.neg_k * neg_g

    def moves(self, steps: np.ndarray) -> np.ndarray:
        """The sum over s < t of K_ts g_s * a_s on each entry of row t,
        flat, from steps at the column pairs first (steps)."""
        later, earlier = self.later, self.earlier
        return np.bincount(later, minlength=self.cols.size, weights=self.vals[earlier]
                           * steps[:later.size]).astype(float, copy=False)

    def repeat_grid(self, steps: np.ndarray):
        """The steps at the repeat pairs in a zero B x B grid, and the mask
        of those pairs."""
        n, keys = self.idx.size, self.step_keys[self.keys.size:]
        grid, rep = np.zeros(n * n), np.zeros(n * n, bool)
        grid[keys], rep[keys] = steps[self.keys.size:], True
        return grid.reshape(n, n), rep.reshape(n, n)

    def first_step(self, entries: np.ndarray) -> int:
        """The first step with a True entry; entries are in step order."""
        return int(self.row[np.argmax(entries)])

    def add(self, upd: np.ndarray):
        """aggs += upd @ rows[:size], for a (k, size) upd, entry by entry
        in order."""
        size = upd.shape[1]
        end = self.cols.size if size == len(self.starts) else self.starts[size]
        cols, wrow, vals = self.cols[:end], self.row[:end], self.vals[:end]
        for agg, w in zip(self.aggs, upd):
            np.add.at(agg, cols, w[wrow] * vals)


class _GramRows(_DenseRows):
    """The rows of a linear system read through the matrix's m x m Gram
    G = A A^T (SparseRowMatrix.row_gram) and r = aggs A^T, the products of
    the caches with every row: a block gathers its B rows of G once, which
    give its triangle, and its start gradients come from r.  Its moves are
    added to r, one (k, B) by (B, m) product, not to the caches, which
    _Blocks rebuilds at the end of each segment."""

    def __init__(self, gram: np.ndarray, r: np.ndarray, idx: np.ndarray, *state):
        super().__init__(idx, *state)
        self.r, self.g_rows = r, gram.take(idx, 0)

    def dots(self) -> np.ndarray:
        parts = self.r.take(self.idx, 1)
        return parts[0] if self.cs is None else parts[0] + self.cs * parts[1]

    def gram(self, weights: float) -> np.ndarray:
        """A_I A_I^T: a linear system's Gram weight is 1."""
        return self.g_rows.take(self.idx, 1)

    def add(self, upd: np.ndarray):
        """r += upd @ G[idx], for a (k, B) upd: a linear system's model
        holds everywhere, so its blocks never restart."""
        self.r += upd @ self.g_rows


def _takes_gram(oracle, block_len: int) -> bool:
    """Whether _Blocks steps this oracle on the Gram path (_GramRows), given
    the row path's block length: from the matrix's shape alone."""
    from .problems import KaczmarzQuadratic  # problems imports this module

    mat = oracle.row_matrix
    m, d = mat.m, mat.d
    return (isinstance(oracle, KaczmarzQuadratic) and mat.dense is not None
            and 8 * m * m <= _GRAM_BYTES and m <= _GRAM_ROWS_PER_COLUMN * d
            and block_len < _GRAM_BLOCK)


def _takes_blocks(oracle, cfg: SolverConfig) -> bool:
    """Whether _coordinate_loop steps this run with _Blocks."""
    mat = oracle.row_matrix
    if oracle.block_model is None or mat is None or cfg.check_level != "off":
        return False
    if mat.dense is not None:
        return cfg.trace_stride >= _BLOCK_MIN
    return cfg.trace_stride >= _CSR_SEGMENT_MIN


class _Blocks:
    """The steps of _coordinate_loop on an oracle with a block_model, taken
    up to about block_len at a time with one triangular solve per block.

    Within a block the caches move only along the block's own rows, and
    the oracle's BlockModel gives step t's gradient as its value grad_t
    at the block's start plus A_ts times the move of x_{i_s} seen at step
    t, for every earlier step s, with A = delta_t E + G: E_ts = [i_t = i_s]
    (delta_t the curvature of step t, or one for all) and G the weighted
    Gram matrix of the block's rows.  In the (u, v) basis step s moves u
    by du_s = kappa_s g_s and v by dv_s = w_s g_s, with (c, kappa, w) the
    block table of the run's _StepPlan, and step t sees x = u + c_t v, so
    the move is K_ts g_s with K_ts = kappa_s + c_t w_s, and
        (I - strict_tril(A o K)) g = grad.
    Without a schedule (du_s = -g_s / L_s, no v) K_ts = -1/L_s, so the
    steps h = g / L solve
        (diag(L) + strict_tril(A)) h = grad,
    with the plan's L written on the triangle's diagonal, and du = -h.  One
    forward substitution gives every g (or h) of the block; the moves
    (du, dv) are one (2, B) product of the plan's (kappa, w) with g, added
    to u and v in step order (repeated rows included), and
    each cache moves by one product of them with the block's rows
    (_FullRows or _ScatteredRows), or one per piece when records fall
    inside the block (below).  This is the per-step loop's arithmetic
    regrouped, so it agrees with that loop to rounding, not bit for bit.

    On the Gram path (_takes_gram: a linear system whose shape passes the
    rule stated at _GRAM_BYTES) a block touches no row of A: G is B rows of the matrix's cached A A^T, grad comes
    from r = aggs A^T, and the moves go to r, one product with the same
    rows of A A^T.  The caches stay as they were at the segment's start
    until the segment ends, at a trace record or the return, where both
    are rebuilt from u and v with one product each, and r from them
    (_rebuild); a fold scales r's v row.  The blocks are _GRAM_BLOCK steps.

    A model with a keeps test holds only while each entry of the block's
    rows stays where it held at the block's start (the Lasso's side of
    +-lam); one with a keeps_x test, only while each step's own coordinate
    does (the penalty's side of +-1).  The solve's moves of every entry
    are checked with keeps, and each step's move of x_{i_t}, the sum of
    K_ts g_s over the earlier steps s on i_t, with keeps_x (skipped when
    no coordinate repeats); a block that has neither test forms no steps.
    The triangle and the keeps_x sums are written once
    (_BlockRows.triangle, x_moves); each kind of rows supplies its Gram,
    repeat term, -K, steps and moves: _FullRows and _GramRows as B x B
    arrays, _ScatteredRows at its column pairs and its repeat pairs (t, s),
    s < t with i_s = i_t, alone, entry by entry as the dense arithmetic
    rounds.  When either test fails, the steps before the first failing
    step are exact and are applied, and the block gives its later steps
    back to the plan.  Step 0 has not moved, so a block always advances.

    A block's steps come from the run's _StepPlan, so no block crosses a
    fold.  On rows of all d columns off the Gram path (crosses) no record
    ends a block either: the run is one segment, and a block is about
    block_len steps, at most _DENSE_BLOCK, ending at the record nearest
    that length when one lies within half of it (_reach), so blocks span
    whole segments where records are close.  Its moves are added to u, v
    and the caches in pieces that end at the records inside it, and a
    record after the block's first j steps sees them alone at c of step
    j - 1, the point single steps record there; a record that meets the
    early stop returns before the later pieces.  Elsewhere each record
    ends a segment, which runs as blocks of block_len until less than 1.5
    block_len steps are left, which run as one block, so no block is a
    short remainder.  In either case a non-finite g stops the run after
    the steps and records before it.

    On rows of few columns the blocks are planned a window at a time
    (_window): from the plan's coordinates and folds ahead, by the same
    rule, the blocks from the current step on, up to the segment's end and
    while those before hold fewer than _WINDOW_WORK entries.  One
    _ScatteredWindow holds their entries and column pairs, and each block
    takes its slices, which equal, bit for bit, a window of that block
    alone.  A restart moves every later block, so the window is built again
    from the restart step; after a restart the window holds one block, and
    each window that runs out holds twice as many as the last, so restarts
    that come every few blocks waste no more structure than the blocks
    take.  A segment's last block (less than 1.5 block_len) is taken from
    the plan first and built alone, as a window of one.
    """

    def __init__(self, oracle, plan, ux, vx, aggs, algo):
        mat = oracle.row_matrix
        self.plan, self.model, self.div = plan, oracle.block_model, oracle.agg_div
        self.r, self.dense = None, mat.dense
        if self.dense is None:
            # rows of few columns: blocks are read from windows (_window)
            self.mat, self.rows_of = mat, None
        else:
            self.mat, self.rows_of = None, partial(_FullRows, self.dense)
        # the Gram product grows with block_len^2 * nnz per row, while the
        # per-block overhead it amortizes does not; counting an empty row
        # as one entry keeps the block at most sqrt(_BLOCK_WORK) steps
        weight = max(mat.nnz, mat.m)
        self.block_len = max(_BLOCK_MIN, math.isqrt(_BLOCK_WORK * mat.m // weight))
        # a window's first look ahead: its budget at the mean row weight,
        # and room for its last block
        self.window_steps = _WINDOW_WORK * mat.m // weight + 2 * self.block_len
        # a window's most blocks: no limit until a block restarts
        self.window_blocks = math.inf
        if _takes_gram(oracle, self.block_len):
            # the caches are affine in the points: the aggregate at 0 plus
            # A^T x / agg_div
            self.at_zero = oracle.aggregate(np.zeros(oracle.n))
            self.r = aggs @ self.dense.T
            # the partial holds arrays, not self: no reference cycle
            self.rows_of = partial(_GramRows, mat.row_gram, self.r)
            self.block_len = _GRAM_BLOCK
        elif self.dense is not None:
            self.block_len = min(self.block_len, _DENSE_BLOCK)
        # blocks of rows of all d columns off the Gram path run across
        # records; the others end at each
        self.crosses = self.dense is not None and self.r is None
        self.algo, self.accel = algo, vx is not None
        self.ux, self.vx, self.aggs = ux, vx, aggs
        self.lower = np.zeros((0, 0), bool)

    def _rebuild(self):
        """On the Gram path: the caches from the points, one product each,
        and r from the caches, so that drift spans one segment."""
        for agg, x in zip(self.aggs, (self.ux, self.vx)):
            agg[:] = self.at_zero + (x @ self.dense) / self.div
        self.r[...] = self.aggs @ self.dense.T

    def _size(self, left: int) -> int:
        """The next block's length on rows whose records end segments, left
        steps before the segment's end and none before a fold: block_len,
        or all left when fewer than 1.5 block_len are."""
        return self.block_len if 2 * left >= 3 * self.block_len else left

    def _reach(self, k: int, stride: int, iters: int) -> int:
        """The length of a block from step k on rows that run across
        records: to the record (a multiple of stride, or iters) nearest k +
        block_len when one lies within block_len / 2 of it, else block_len
        steps, or all left before iters.  A block then spans whole
        segments where records are close, and one segment where they are
        about block_len apart, as blocks that end at records do."""
        target = k + self.block_len
        end = (target + stride // 2) // stride * stride
        if end > iters or abs(iters - target) < abs(end - target):
            end = iters
        if 2 * abs(end - target) > self.block_len:
            end = min(target, iters)
        return end - k

    def _window(self, k: int, end: int) -> _ScatteredWindow:
        """The window of the blocks that run takes from step k on, up to
        end: at most window_blocks of them, while the blocks before hold
        fewer than _WINDOW_WORK entries (an empty row counting as one), so
        at most that plus one block.  The plan is looked ahead of,
        doubling from window_steps steps, until it covers them."""
        ptr, plan, left = self.mat.indptr, self.plan, end - k
        ahead = min(left, self.window_steps)
        while True:
            idx, folds = plan.ahead(ahead)
            # the blocks inside the look-ahead, each cut at the next fold
            ends, j = [], k
            folds = iter([t for t in folds if t > k] + [end])
            fold = next(folds)
            while j < end and len(ends) < self.window_blocks:
                stop = min(j + self._size(end - j), fold)
                if stop > k + ahead:
                    break
                ends.append(stop - k)
                j = stop
                if j == fold < end:
                    fold = next(folds)
            whole = j == end or len(ends) == self.window_blocks
            if ends:
                # the blocks whose earlier blocks weigh under the budget
                count = len(ends)
                if count > 1 or not whole:
                    steps = idx[:ends[-1]]
                    weight = np.cumsum(np.maximum(ptr[steps + 1] - ptr[steps], 1))
                    count = int(np.searchsorted(weight[np.array(ends) - 1], _WINDOW_WORK)) + 1
                if count <= len(ends) or whole:
                    ends = ends[:count]
                    return _ScatteredWindow(self.mat, idx[:ends[-1]], ends)
            ahead = min(left, 2 * ahead)

    def _below(self, size: int) -> np.ndarray:
        """The (size, size) mask of the strict lower triangle, a view of
        the largest one made so far."""
        if len(self.lower) < size:
            self.lower = np.tri(size, k=-1, dtype=bool)
        return self.lower[:size, :size]

    def run(self, iters: int, stride: int, record) -> float:
        """The run's steps 0 .. iters - 1, calling record(k, c) at each trace
        record k after step 0 (every stride-th step and the last) until it
        returns True; returns c at the last record taken."""
        accel, aggs, r, c = self.accel, self.aggs, self.r, 1.0
        k = end = 0  # the next step and its segment's end
        window = None  # on scattered rows: the window and its next block b
        while k < iters:
            if k == end:
                end = iters if self.crosses else min(k + stride, iters)
                window = None
            if self.mat is not None and (window is None or b + 1 == len(window.step_at)):
                if window is not None:
                    # it ran out without a restart
                    self.window_blocks *= 2
                # the segment's last block is taken without one
                window, b = (self._window(k, end) if 2 * (end - k) >= 3 * self.block_len
                             else None), 0
            if window is None:
                size = self._reach(k, stride, iters) if self.crosses else self._size(end - k)
            else:
                size = window.step_at[b + 1] - window.step_at[b]
            idx, fold, coefs = self.plan.take(size)
            size = idx.size
            if fold is not None:
                self.vx *= fold
                # the caches, or on the Gram path their products with the rows
                (aggs if r is None else r)[1] *= fold
            cs = coefs[:, 0] if accel else None
            if window is not None:
                rows = window.rows(b, self.ux, self.vx, aggs, cs)
                b += 1
            elif self.mat is not None:
                # the segment's last block, or its steps before a fold
                rows = _ScatteredWindow(self.mat, idx, [size]).rows(
                    0, self.ux, self.vx, aggs, cs)
            else:
                rows = self.rows_of(idx, self.ux, self.vx, aggs, cs)
            model = self.model(rows)
            tri = rows.triangle(model, coefs, self._below)
            # solves with tri's lower triangle, its diagonal taken as unit
            # under a schedule; without one g is the steps h = g / L.
            # tri.T is Fortran-ordered, so BLAS reads it without a copy
            g = _dtrsv(tri.T, model.grad, overwrite_x=1, trans=1, diag=int(accel))
            first = rows.first_failing(model, g, self.div)
            if first < size:
                size = max(1, first)
                self.plan.give_back(idx.size - size)
                idx, g, coefs = idx[:size], g[:size], coefs[:size]
                # the later blocks start elsewhere, so the window is
                # built again from here: as one block, and then as
                # twice as many blocks each time one runs out
                window, self.window_blocks = None, 1
            # a finite sum needs finite terms.  The steps before a
            # non-finite g are taken with their records, as single steps
            # take them, and then the run stops there
            taken = size
            if not math.isfinite(np.add.reduce(g)):
                finite = np.isfinite(g)
                if not finite.all():
                    taken = int(finite.argmin())
            if accel:
                # (du, dv) = (kappa, w) g
                upd = coefs[:, 1:].T * g
            else:
                upd = -g[None, :]
            moves = upd / self.div if self.div != 1.0 else upd
            # the moves in pieces, each ending at a record inside the block
            # or at its end: a record sees the block's first hi steps
            lo = 0
            while lo < taken:
                hi = min(taken, lo + stride - (k + lo) % stride)
                if hi - lo == size:
                    part_idx, part_upd, part_moves = idx, upd, moves
                else:
                    part_idx, part_upd, part_moves = idx[lo:hi], upd[:, lo:hi], moves[:, lo:hi]
                np.add.at(self.ux, part_idx, part_upd[0])
                if accel:
                    np.add.at(self.vx, part_idx, part_upd[1])
                if r is None or k + hi < end:
                    # _rebuild replaces r at a segment's end: its move is dead
                    rows.add(part_moves)
                lo = hi
                if hi == taken:
                    # the block's arrays go before its last record, whose
                    # temporaries then take their memory, as when each
                    # segment's blocks returned first (sparse-lasso ran
                    # 2-4% slower with them kept)
                    del rows, model, tri, g
                if (k + hi) % stride == 0 or k + hi == iters:
                    if r is not None:
                        self._rebuild()
                    c = float(coefs[hi - 1, 0]) if accel else 1.0
                    if record(k + hi, c):
                        return c
            if taken < size:
                raise InvariantViolation(
                    f"{self.algo}: non-finite gradient at iteration {k + taken}")
            k += size
        return c


def _coordinate_loop(oracle, profile, x0, cfg, p, algo, schedule=None):
    """The one coordinate-step loop behind every sampled solver.

    Each step draws i ~ p and moves y to x - (1/L_i) grad_i f(x) e_i.  With
    a schedule the run is accelerated: x_{k+1} = tau_k z_k + (1 - tau_k) y_k
    before the draw, and the schedule moves z after it.  Without one, x and
    y are the same point and the run is plain randomized coordinate
    descent.  Returns (y_final, its aggregate, trace); the trace records
    oracle.value at y_k.

    The accelerated iterates are implicit (Lee & Sidford 2013, section 5):
    two stored vectors u, v with their caches and a scalar c give
    y = u + c v and z = u + r c v, r fixed by the schedule.  The
    recombination x = tau z + (1 - tau) y maps (y, z) onto the same form
    with c scaled by the schedule's rho_k, after which x = u + c v.
    Every step, its c and c's folds come from one _StepPlan, asked for a
    segment's steps by the per-step loop (a checked step alone, its z_prev
    formed before a fold) or, when _takes_blocks(oracle, cfg), by _Blocks;
    the plan holds the coefficients that its one consumer reads.

    A step slices row i's (cols, vals) out of oracle.row_matrix once,
    gathers part = u.agg[cols] + c v.agg[cols] once and takes the gradient
    from x_i, part and vals.  It then writes u_i and v_i and scatters
    (du / agg_div) vals and (dv / agg_div) vals into the two caches on cols,
    so it costs O(nnz of one row).  The two caches are the rows of one
    (2, d) array: a row of all d columns needs no gather and updates both
    with one broadcast add, and without a schedule it is added to u's cache
    in place.  An oracle without a row matrix is asked for the gradient
    from x_i alone.  Whole points are formed at trace records, at checked
    steps and at return.
    """
    checking = cfg.check_level != "off"
    check_all = cfg.check_level == "full"
    stride, iters = cfg.trace_stride, cfg.iters
    l = profile.l

    u = TrackedPoint(oracle, x0)
    accel = schedule is not None
    v = TrackedPoint(oracle, np.zeros(oracle.n)) if accel else None
    ux, uagg = u.x, u.agg
    vx, vagg = (v.x, v.agg) if accel else (None, None)
    if accel and uagg is not None:
        # both caches in one C-contiguous array; a full row adds
        # w * vals to it, w = (du, dv) / agg_div set through a memoryview
        aggs = np.stack((uagg, vagg))
        uagg, vagg = aggs
        w = np.empty(2)
        w_at, w_col = memoryview(w), w[:, None]
    # memoryviews get and set one entry as a Python scalar faster than numpy
    u_at = memoryview(ux)
    v_at = memoryview(vx) if accel else None
    c = 1.0
    r = schedule.r if accel else 0.0
    one_minus_r = 1.0 - r
    mat = oracle.row_matrix
    if mat is None and uagg is not None:
        raise TypeError(f"{type(oracle).__name__} keeps an aggregate but no row matrix")
    if mat is not None:
        ptr, indices, data, d = memoryview(mat.indptr), mat.indices, mat.data, mat.d
    div = oracle.agg_div
    grad_local = oracle.coord_grad_local

    def point(coef):
        """(u + coef v, its cache); u itself when there is no v."""
        if not accel:
            return ux, uagg
        return ux + coef * vx, (None if uagg is None else uagg + coef * vagg)

    def value_at(coef):
        x, agg = point(coef)
        return oracle.value(x, agg), x, agg

    takes_blocks = _takes_blocks(oracle, cfg)
    plan = _StepPlan(WeightedSampler(p, cfg.seed), iters, schedule, l, takes_blocks)
    # u's cache alone, or both caches, as the rows of one array
    blocks = (_Blocks(oracle, plan, ux, vx, aggs if accel else uagg[None, :], algo)
              if takes_blocks else None)

    rec = _Recorder(algo, cfg, units_per_epoch=oracle.n)
    worst_descent = -math.inf
    worst_mirror = 0.0 if accel else math.nan
    if checking and accel:
        schedule.check_start(algo)

    stopped = rec.record(0, *value_at(c))
    if blocks is not None and not stopped:
        # _Blocks takes every step and calls the recorder at each record
        c = blocks.run(iters, stride, lambda k, c: rec.record(k, *value_at(c)))
    k = 0
    while blocks is None and k < iters and not stopped:
        # one segment of steps up to the next trace record
        end = min(k + stride, iters)
        while k < end:
            # a checked step comes alone, so that its z_prev predates a fold
            check_now = check_all or (checking and k + 1 == end)
            idx, fold, coefs = plan.take(1 if check_now else end - k - checking)
            if check_now and accel:
                z_prev = point(r * c)[0]
            if fold is not None:
                # y and z are unchanged: u + c v = u + 1 (c v)
                vx *= fold
                if vagg is not None:
                    vagg *= fold
            for k, i, step in zip(range(k, k + idx.size), idx.tolist(), coefs.tolist()):
                u_i = u_at[i]
                if accel:
                    c, inv_l, z_coef, eta = step
                    v_i = v_at[i]
                    x_i = u_i + c * v_i
                else:
                    inv_l = step
                    x_i = u_i
                if mat is None:
                    whole = False
                    g = grad_local(i, x_i, None, None)
                else:
                    lo, hi = ptr[i], ptr[i + 1]
                    vals = data[lo:hi]
                    # column ids ascend strictly in [0, d), so a row of d entries
                    # is columns 0..d-1: its parts are the whole caches
                    whole = hi - lo == d
                    if whole:
                        u_part, v_part = uagg, vagg
                    else:
                        # gathered once: the scatters below add to these parts
                        cols = indices[lo:hi]
                        u_part = uagg[cols]
                        v_part = vagg[cols] if accel else None
                    part = u_part + c * v_part if accel else u_part
                    g = grad_local(i, x_i, part, vals)
                if not math.isfinite(g):
                    raise InvariantViolation(f"{algo}: non-finite gradient at iteration {k}")

                if check_now:
                    f_x, x_pt, _ = value_at(c)
                    # x = u + c v: with a tiny tau the terms dwarf x
                    spread = _term_spread(ux, vx, c, x_pt) if accel else 1.0
                dy = -g * inv_l
                if accel:
                    # y_i += dy and z_i += dz, in the (u, v) basis
                    dz = -z_coef * g
                    du = (dz - r * dy) / one_minus_r
                    dv = (dy - dz) / (c * one_minus_r)
                    u_at[i] = u_i + du
                    v_at[i] = v_i + dv
                    if whole:
                        w_at[0] = du / div
                        w_at[1] = dv / div
                        aggs += w_col * vals
                    elif mat is not None:
                        uagg[cols] = u_part + (du / div) * vals
                        vagg[cols] = v_part + (dv / div) * vals
                else:
                    u_at[i] = u_i + dy
                    if whole:
                        uagg += (dy / div) * vals
                    elif mat is not None:
                        uagg[cols] = u_part + (dy / div) * vals

                if check_now:
                    viol = _descent_violation(f_x, value_at(c)[0], g, l[i])
                    worst_descent = max(worst_descent, viol)
                    if viol > DESCENT_SLACK * spread:
                        raise InvariantViolation(
                            f"{algo}: coordinate descent guarantee violated by "
                            f"{viol:.3e} at iteration {k}"
                        )
                    if accel:
                        schedule.check_step(algo, k, eta)
                        res = mirror_step_residual(
                            profile, z_prev, point(r * c)[0], x_pt, i, g, p[i], eta,
                            schedule.sigma,
                        )
                        worst_mirror = max(worst_mirror, res)
                        if res > MIRROR_RESIDUAL_TOL:
                            raise InvariantViolation(
                                f"{algo}: z-step residual {res:.3e} at iteration {k}"
                            )
            k += 1
        k = end
        stopped = rec.record(k, *value_at(c))

    return *point(c), rec.finish(
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
    return _accel(oracle, profile, x0, cfg, p, rate_constant, "accel")


def _accel(oracle, profile, x0, cfg, p, rate_constant, algo):
    """generalized_accel's run, its trace and errors labelled algo."""
    if profile.sigma_beta <= 0.0:
        raise ValueError(f"{algo} needs a strongly convex profile (sigma_beta > 0); "
                         "nu-acdm-ns, rcdm and gd run at sigma_beta = 0")
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
    y, _, trace = _coordinate_loop(oracle, profile, x0, cfg, p, algo, schedule)
    return y, trace


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
    return _accel(oracle, profile, x0, cfg, nu_probabilities(profile), None, "nu-acdm")


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
    return _accel(oracle, profile, x0, cfg, p, max(m_rate, m_valid), "acdm")


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
    y, _, trace = _coordinate_loop(oracle, profile, x0, cfg, p, "nu-acdm-ns", schedule)
    return y, trace


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
    y, _, trace = _coordinate_loop(
        oracle, profile, x0, cfg, rcdm_probabilities(profile), "rcdm")
    return y, trace


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
    its hyperplane: x <- x + (b_i - <a_i, x>)/||a_i||^2 * a_i.  That step is
    rcdm's on the dual f(y) = 0.5 ||x0 + A^T y||^2 - <b, y> with
    x = x0 + A^T y (Strohmer & Vershynin 2009), so the run is the shared
    loop with no schedule, in block steps when its trace stride allows.
    The trace value is the squared residual ||A x - b||^2, not the f being
    descended, so cfg.check_level is not read; epochs count m rows.
    dist_fn and on_record see (x, None, value).
    """
    from .problems import KaczmarzResidual  # problems imports this module

    x0 = np.array(x0, dtype=float)
    if x0.shape != (a_matrix.d,):
        raise ValueError("x0 must have one entry per column")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    oracle = KaczmarzResidual(a_matrix, b, x0)  # checks b and the rows
    dist_fn = on_record = None
    if cfg.dist_fn is not None:
        dist_fn = lambda y, x, value: cfg.dist_fn(x, None, value)
    if cfg.on_record is not None:
        on_record = lambda k, y, x, value: cfg.on_record(k, x, None, value)
    dual_cfg = replace(cfg, check_level="off", dist_fn=dist_fn, on_record=on_record)
    # p is the raw norms: normalising them could move a draw by rounding
    norms_sq = a_matrix.row_norms_sq
    _, x, trace = _coordinate_loop(
        oracle, SmoothnessProfile(norms_sq), np.zeros(a_matrix.m), dual_cfg,
        norms_sq, "kaczmarz",
    )
    return x, trace
