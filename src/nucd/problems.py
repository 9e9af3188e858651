"""Concrete objectives for the solvers.

Four applications: a least-squares reformulation of a linear system solved
over row space (the Kaczmarz quadratic), and three regularized ERM duals
(ridge, smoothed Lasso, and a piecewise-quadratic l2-l1 penalty).  Each
builder returns a CoordOracle plus the SmoothnessProfile the solvers need.
A separable quadratic is included as the standard synthetic test family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import BlockModel, CoordOracle, SmoothnessProfile
from .matrix import SparseRowMatrix
from . import solvers


class ConvergenceError(RuntimeError):
    """An iterative reference computation missed its stationarity target."""


def smallest_positive_eigenvalue(gram: np.ndarray) -> float:
    """Smallest eigenvalue of a PSD matrix above the zero threshold
    1e-10 * lambda_max."""
    vals = np.linalg.eigvalsh(gram)
    lam_max = float(vals[-1])
    if lam_max <= 0.0:
        raise ValueError("matrix has no positive eigenvalue")
    positive = vals[vals > 1e-10 * lam_max]
    return float(positive[0])


# --- synthetic separable quadratic ---


class SeparableQuadratic(CoordOracle):
    """f(x) = 0.5 * sum_i l_i * (x_i - target_i)^2; O(1) coordinate access."""

    def __init__(self, l, target=None):
        self.l = np.asarray(l, dtype=float)
        self.n = self.l.size
        self.target = (
            np.zeros(self.n) if target is None else np.asarray(target, dtype=float)
        )
        if self.target.shape != (self.n,):
            raise ValueError("target must have one entry per coordinate")

    def value(self, x, aggregate=None):
        d = x - self.target
        return 0.5 * float(np.sum(self.l * d * d))

    def coord_grad_local(self, i, x_i, agg_part=None, vals=None):
        return float(self.l[i] * (x_i - self.target[i]))

    def full_grad(self, x, aggregate=None):
        return self.l * (x - self.target)


def build_separable_quadratic(l, target=None, beta: float = 0.0):
    """Oracle and profile for the separable quadratic.  The strong convexity
    modulus in the weighted geometry is exactly min_i L_i^(1-beta)."""
    oracle = SeparableQuadratic(l, target)
    sigma = float(np.min(oracle.l ** (1.0 - beta)))
    profile = SmoothnessProfile(oracle.l.copy(), beta=beta, sigma_beta=sigma)
    return oracle, profile


def _check_row_norms(a: SparseRowMatrix):
    """Raises ValueError naming the first row whose squared norm is not
    finite: the norms are smoothness constants and sampling weights."""
    finite = np.isfinite(a.row_norms_sq)
    if not finite.all():
        raise ValueError(f"row {int(finite.argmin())}: squared norm overflows a double")


# --- linear systems over row space ---


class KaczmarzQuadratic(CoordOracle):
    """f(y) = 0.5*||A^T y||^2 - <b, y> over y in R^m.

    Minimizing over the row-space parametrization x = A^T y solves A x = b
    for consistent systems.  The cached aggregate is w = A^T y, so one
    coordinate gradient costs O(nnz(a_i)): grad_i f(y) = <a_i, w> - b_i.
    """

    def __init__(self, a_matrix: SparseRowMatrix, b):
        b = np.asarray(b, dtype=float)
        if b.shape != (a_matrix.m,):
            raise ValueError("b must have one entry per row of A")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        _check_row_norms(a_matrix)
        if np.any(a_matrix.row_norms_sq <= 0.0):
            raise ValueError("zero rows are not allowed")
        self.a = self.row_matrix = a_matrix
        self.b = b
        self.n = a_matrix.m  # coordinates are rows of A

    @cached_property
    def _b(self):
        # read one entry per step, as Python floats
        return self.b.tolist()

    def value(self, y, aggregate=None):
        w = self.aggregate(y) if aggregate is None else aggregate
        return 0.5 * float(np.dot(w, w)) - float(np.dot(self.b, y))

    def coord_grad_local(self, i, y_i, agg_part, vals):
        return float(vals.dot(agg_part)) - self._b[i]

    def block_model(self, rows):
        """<a_i, w> - b_i: affine in w with unit Gram weight; y_i enters
        only through w."""
        return BlockModel(rows.dots() - self.b[rows.idx], 0.0, 1.0)

    # bound in the class itself: perfbench/spans.py wraps each oracle
    # class's own coord_grad and update_aggregate
    coord_grad = CoordOracle.coord_grad
    update_aggregate = CoordOracle.update_aggregate

    def full_grad(self, y, aggregate=None):
        w = self.aggregate(y) if aggregate is None else aggregate
        return self.a.matvec(w) - self.b


class KaczmarzResidual(KaczmarzQuadratic):
    """The quadratic as solvers.kaczmarz steps it, from a primal start x0.

    The aggregate is x = x0 + A^T y, the primal iterate itself, so the
    gradient <a_i, x> - b_i reads b unchanged: this is f for the right-hand
    side b - A x0, shifted by a constant.  The value is the squared residual
    ||A x - b||^2, the quantity a Kaczmarz trace records, not f.  The
    aggregate is affine in y, not linear, so only the loop without a
    schedule (one stored point) may step this oracle.  On rows of all d
    columns the residual is one BLAS product with the dense matrix; on
    scattered rows it is the CSR product.
    """

    def __init__(self, a_matrix: SparseRowMatrix, b, x0: np.ndarray):
        super().__init__(a_matrix, b)
        self.x0 = x0

    def aggregate(self, y):
        # a run starts at y = 0, where A^T y need not be formed
        return self.x0 + self.a.rmatvec(y) if y.any() else self.x0.copy()

    def value(self, y, aggregate=None):
        x = self.aggregate(y) if aggregate is None else aggregate
        dense = self.a.dense
        r = (self.a.matvec(x) if dense is None else dense @ x) - self.b
        return float(np.dot(r, r))


def build_kaczmarz(a_matrix: SparseRowMatrix, b, beta: float = 0.0):
    """Oracle over y in R^m with L_i = ||a_i||^2.  The convexity modulus is
    the smallest nonzero eigenvalue of A^T A (the objective is strongly
    convex on the row space, which is where the iterates live), rescaled
    for beta > 0."""
    oracle = KaczmarzQuadratic(a_matrix, b)
    l = a_matrix.row_norms_sq.copy()
    if a_matrix.m < a_matrix.d:
        # A A^T has the nonzero eigenvalues of A^T A in m x m, whatever d is
        csr = a_matrix._csr
        gram = (csr @ csr.T).toarray()
    else:
        # the copy keeps numpy on its general product: for x.T @ x on one
        # buffer it calls BLAS syrk, whose rounding moves sigma0
        dense = a_matrix.to_dense()
        gram = dense.T @ dense.copy()
    sigma0 = smallest_positive_eigenvalue(gram)
    # on short-and-wide or tiny systems the row-space modulus can exceed the
    # curvature of a single coordinate; the profile's validity cap wins then
    # (a smaller modulus only slows the schedule, never breaks it)
    sigma_beta = min(
        sigma0 / float(np.max(l ** beta)),
        float(np.min(l ** (1.0 - beta))),
    )
    profile = SmoothnessProfile(l, beta=beta, sigma_beta=sigma_beta)
    return oracle, profile


# --- regularized ERM duals ---


@dataclass(frozen=True)
class ScalarConjugate:
    """Conjugate pair for one example's loss term phi(t; label).

    phi        : primal loss value
    conj       : phi*(s; label)
    conj_deriv : derivative of phi* in s (subgradient choice 0 at kinks)
    conj_deriv_scalar : conj_deriv for one Python float s and label,
                 bitwise equal to it; defaults to conj_deriv itself
    """

    phi: Callable
    conj: Callable
    conj_deriv: Callable
    conj_deriv_scalar: Callable | None = None

    def __post_init__(self):
        if self.conj_deriv_scalar is None:
            object.__setattr__(self, "conj_deriv_scalar", self.conj_deriv)


def _sq_phi(t, l):
    return 0.5 * (t - l) ** 2


def _sq_conj(s, l):
    return 0.5 * s * s + s * l


def _sq_conj_deriv(s, l):
    return s + l


def _pen_phi(t, l):
    return 0.5 * (t - l) ** 2 + np.abs(t - l)


def _pen_conj(s, l):
    return l * s + 0.5 * np.maximum(np.abs(s) - 1.0, 0.0) ** 2


def _pen_conj_deriv(s, l):
    return l + np.sign(s) * np.maximum(np.abs(s) - 1.0, 0.0)


def _pen_conj_deriv_scalar(s: float, l: float) -> float:
    """_pen_conj_deriv for one float, equal to the array form bit for bit:
    np.sign is +0 at s = -0 and passes a nan through with its sign."""
    excess = abs(s) - 1.0
    if excess > 0.0:
        return l + math.copysign(excess, s)
    if s != s:
        return l + s
    return l + (-0.0 if s < 0.0 else 0.0)


SQUARED_LOSS = ScalarConjugate(_sq_phi, _sq_conj, _sq_conj_deriv)
PENALTY_LOSS = ScalarConjugate(_pen_phi, _pen_conj, _pen_conj_deriv,
                               _pen_conj_deriv_scalar)

_VARIANTS = ("ridge", "smoothed_lasso", "l1l2_penalty")


def _conjugate_grid_error(phi, conj, labels=(0.0,)) -> float:
    """Worst |conj(s, l) - sup_t (s*t - phi(t, l))| over s in [-3, 3], the
    supremum brute-forced on a dense grid, at label 0 and at the smallest
    and largest of labels.  Reference check for hand-derived conjugates, run
    on both losses and the Lasso regularizer by
    checks.check_gradients_and_conjugates."""
    probe = sorted({0.0, float(np.min(labels)), float(np.max(labels))})
    s_grid = np.linspace(-3.0, 3.0, 121)
    offsets = np.arange(-3.0, 3.0 + 1e-3, 1e-3)
    worst = 0.0
    for l in probe:
        # centered on the label so any kink of phi sits on a grid node;
        # every maximizer for |s| <= 3 lies within label +- 3
        t_grid = l + offsets
        phi_t = phi(t_grid, l)
        sup = np.max(s_grid[:, None] * t_grid[None, :] - phi_t[None, :], axis=1)
        worst = max(worst, float(np.max(np.abs(conj(s_grid, l) - sup))))
    return worst


def _kink_sides(w, kink):
    """(over, side, keeps) for the kinks at +-kink of a piecewise-affine
    function of w: over = w - clip(w, -kink, kink) entry by entry, side its
    sign (-1 below -kink, 0 on [-kink, kink], 1 above kink) and keeps(move)
    whether w + move lies on the same side, entry by entry."""

    def excess(t):
        return t - np.minimum(np.maximum(t, -kink), kink)

    over = excess(w)
    side = np.sign(over)

    def keeps(move):
        return np.sign(excess(w + move)) == side

    return over, side, keeps


class ErmDual(CoordOracle):
    """Dual objective of (1/n) sum_i phi_i(<a_i, w>) + r(w) over y in R^n:

        D(y) = (1/n) sum_i phi_i*(y_i) + r*(-(1/n) sum_i y_i a_i)

    The cached aggregate is v = (1/n) sum_i y_i a_i in R^d.  Variants:

      ridge           phi = squared loss, r = (lam/2)||w||^2
      smoothed_lasso  phi = squared loss, r = lam||w||_1 + (lam2/2)||w||^2
      l1l2_penalty    phi = squared loss + l1 around the label,
                      r = (lam/2)||w||^2; not strongly convex
    """

    def __init__(self, data: SparseRowMatrix, labels, lam, lam2=None,
                 variant="ridge"):
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        labels = np.asarray(labels, dtype=float)
        if labels.shape != (data.m,):
            raise ValueError("labels must have one entry per example")
        if not np.all(np.isfinite(labels)):
            raise ValueError("labels must be finite")
        _check_row_norms(data)
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        if variant == "smoothed_lasso":
            if lam2 is None or not 0.0 < lam2 < math.inf:
                raise ValueError(
                    f"lam2 must be finite and positive for smoothed_lasso, got {lam2}")
        else:
            lam2 = None
        self.data = self.row_matrix = data
        self.labels = labels
        self._labels = labels.tolist()  # read one entry per step
        self.lam = float(lam)
        self._neg_lam = -self.lam
        self.lam2 = None if lam2 is None else float(lam2)
        # the strong convexity of r, which bounds the curvature of r*
        self.lam_smooth = self.lam if lam2 is None else self.lam2
        self.variant = variant
        self.n = data.m
        self.d = data.d
        self.agg_div = float(data.m)
        self.loss = PENALTY_LOSS if variant == "l1l2_penalty" else SQUARED_LOSS

    def _reg_conj_value(self, v):
        """r*(-v); |.| makes the sign flip immaterial for these r."""
        if self.variant == "smoothed_lasso":
            exc = np.maximum(np.abs(v) - self.lam, 0.0)
            return float(np.dot(exc, exc)) / (2.0 * self.lam2)
        return float(np.dot(v, v)) / (2.0 * self.lam)

    def _reg_conj_grad(self, v):
        """gradient of r* evaluated at -v, elementwise (a d-vector or any
        part of one): -v / lam, and for the Lasso the soft threshold of -v
        at lam, sign(-v) max(|v| - lam, 0), over lam2, formed as
        (clip(v, -lam, lam) - v) / lam2, whose zero entries are +0.0."""
        if self.lam2 is None:
            return v / self._neg_lam
        lam = self.lam
        return (np.minimum(np.maximum(v, -lam), lam) - v) / self.lam2

    def value(self, y, aggregate=None):
        v = self.aggregate(y) if aggregate is None else aggregate
        sep = float(np.sum(self.loss.conj(y, self.labels))) / self.n
        return sep + self._reg_conj_value(v)

    def coord_grad_local(self, i, y_i, agg_part, vals):
        # r* acts elementwise, so the row's own entries of v suffice
        sep = self.loss.conj_deriv_scalar(y_i, self._labels[i]) / self.n
        return sep - float(vals.dot(self._reg_conj_grad(agg_part))) / self.n

    def block_model(self, rows):
        """The squared loss's conjugate derivative (y_i + l_i)/n has slope
        1/n in y_i; the penalty's, (l_i + sign(y_i) max(|y_i| - 1, 0))/n,
        has slope 1/n outside [-1, 1] and 0 inside, so its model holds while
        every step's x_{i_t} stays on the side of +-1 it had at the block's
        start.  For ridge and the penalty the gradient is affine in v with
        Gram weight 1/(lam n^2).  For the Lasso, r*'s gradient at -v is
        affine on each of v_j < -lam, |v_j| <= lam and v_j > lam, with slope
        1/lam2 outside [-lam, lam] and 0 inside, so the model holds while
        every entry stays on the side of +-lam it had at the block's start."""
        n = self.n
        x = rows.x()
        labels = self.labels[rows.idx]
        if self.variant == "l1l2_penalty":
            x_over, x_side, keeps_x = _kink_sides(x, 1.0)
            # its conjugate derivative l + sign(x) max(|x| - 1, 0), signed
            # zeros included: |x_over| is that max
            sep = (labels + np.sign(x) * np.abs(x_over)) / n
        else:
            sep = self.loss.conj_deriv(x, labels) / n
        if self.lam2 is None:
            grad = sep - self._reg_conj_grad(rows.dots()) / n
            weight = 1.0 / (self.lam * n * n)
            if self.variant == "ridge":
                return BlockModel(grad, 1.0 / n, weight)
            return BlockModel(grad, (x_side != 0.0) / n, weight, keeps_x=keeps_x)
        over, side, keeps = _kink_sides(rows.entries(), self.lam)
        # -lam2 times r*'s gradient at -v is over
        return BlockModel(sep + rows.sums(over) / (self.lam2 * n), 1.0 / n,
                          (side != 0.0) / (self.lam2 * n * n), keeps)

    # bound in the class itself: perfbench/spans.py wraps each oracle
    # class's own coord_grad and update_aggregate
    coord_grad = CoordOracle.coord_grad
    update_aggregate = CoordOracle.update_aggregate

    def full_grad(self, y, aggregate=None):
        v = self.aggregate(y) if aggregate is None else aggregate
        sep = self.loss.conj_deriv(y, self.labels) / self.n
        return sep - self.data.matvec(self._reg_conj_grad(v)) / self.n


def _erm_profile(oracle: ErmDual, beta: float, strongly_convex: bool):
    n = oracle.n
    l = 1.0 / n + oracle.data.row_norms_sq / (oracle.lam_smooth * n * n)
    if strongly_convex:
        sigma = (1.0 / n) / float(np.max(l ** beta))
    else:
        sigma = 0.0
    return SmoothnessProfile(l, beta=beta, sigma_beta=sigma)


def build_ridge_dual(data: SparseRowMatrix, labels, lam, beta: float = 0.0):
    """Dual of least squares with (lam/2)||w||^2; 1/n-strongly convex."""
    oracle = ErmDual(data, labels, lam, variant="ridge")
    return oracle, _erm_profile(oracle, beta, strongly_convex=True)


def build_lasso_dual(data: SparseRowMatrix, labels, lam, lam2,
                     beta: float = 0.0):
    """Dual of the l1 problem smoothed by an extra (lam2/2)||w||^2 term,
    which restores 1/n strong convexity; the primal answer differs from the
    unsmoothed one by O(lam2)."""
    oracle = ErmDual(data, labels, lam, lam2, variant="smoothed_lasso")
    return oracle, _erm_profile(oracle, beta, strongly_convex=True)


def build_penalty_dual(data: SparseRowMatrix, labels, lam, beta: float = 0.0):
    """Dual of the l2-l1 penalty problem.  The conjugate loss has flat
    pieces, so sigma = 0 and the non-strongly-convex solver applies."""
    oracle = ErmDual(data, labels, lam, variant="l1l2_penalty")
    return oracle, _erm_profile(oracle, beta, strongly_convex=False)


def primal_from_dual(problem: ErmDual, y, aggregate=None) -> np.ndarray:
    """Candidate primal point w = grad r*(-v) for the current dual iterate."""
    v = problem.aggregate(np.asarray(y, dtype=float)) if aggregate is None else aggregate
    return problem._reg_conj_grad(v)


def primal_objective(problem: ErmDual, w) -> float:
    """P(w) = (1/n) sum_i phi_i(<a_i, w>) + r(w) with the variant's original
    regularizer; the Lasso smoothing term is reported separately by
    smoothing_term()."""
    w = np.asarray(w, dtype=float)
    margins = problem.data.matvec(w)
    loss = float(np.sum(problem.loss.phi(margins, problem.labels))) / problem.n
    if problem.variant == "smoothed_lasso":
        reg = problem.lam * float(np.sum(np.abs(w)))
    else:
        reg = 0.5 * problem.lam * float(np.dot(w, w))
    return loss + reg


def smoothing_term(problem: ErmDual, w) -> float:
    """The (lam2/2)||w||^2 added to the Lasso primal by smoothing; zero for
    the other variants.  P + this is the exact conjugate partner of D."""
    if problem.variant == "smoothed_lasso":
        w = np.asarray(w, dtype=float)
        return 0.5 * problem.lam2 * float(np.dot(w, w))
    return 0.0


def duality_gap(problem: ErmDual, y) -> float:
    """P(w(y)) + D(y), nonnegative and zero exactly at the optimum (for the
    Lasso variant the smoothed primal is used, which is the pair D dualizes)."""
    y = np.asarray(y, dtype=float)
    v = problem.aggregate(y)
    w = primal_from_dual(problem, y, aggregate=v)
    return (primal_objective(problem, w) + smoothing_term(problem, w)
            + problem.value(y, aggregate=v))


# --- reference minima ---


@dataclass
class ReferenceMinimum:
    value: float
    minimizer: np.ndarray
    uncertainty: float
    method: str


def _kaczmarz_reference(problem: KaczmarzQuadratic) -> ReferenceMinimum:
    dense = problem.a.to_dense()
    x_hat, *_ = np.linalg.lstsq(dense, problem.b, rcond=None)
    # f* = -0.5 ||x*||^2 at any y with A^T y = x*
    y_star, *_ = np.linalg.lstsq(dense.T, x_hat, rcond=None)
    value = -0.5 * float(np.dot(x_hat, x_hat))
    return ReferenceMinimum(
        value=value,
        minimizer=y_star,
        uncertainty=1e-12 * max(1.0, abs(value)),
        method="closed_form",
    )


def _ridge_reference(problem: ErmDual) -> ReferenceMinimum:
    # stationarity: y/n + l/n + G y/(lam n^2) = 0 with G = X X^T
    dense = problem.data.to_dense()
    n = problem.n
    gram = dense @ dense.T
    y_star = np.linalg.solve(np.eye(n) + gram / (problem.lam * n), -problem.labels)
    value = problem.value(y_star)
    return ReferenceMinimum(
        value=value,
        minimizer=y_star,
        uncertainty=1e-12 * max(1.0, abs(value)),
        method="closed_form",
    )


class _RelativeChange:
    """dist = |value - value at the previous record| / max(1, |value|),
    infinite at the first record."""

    def __init__(self):
        self.prev = math.inf

    def __call__(self, x, agg, value):
        change = abs(self.prev - value) / max(1.0, abs(value))
        self.prev = value
        return change


def _strongly_convex_reference(problem: ErmDual, max_epochs=20000) -> ReferenceMinimum:
    """One nu_acdm run from y = 0 on the beta = 0 profile, recorded every
    50 n steps and stopped by the first record whose value moved by at most
    1e-14 relative to max(1, |value|) since the previous one; valid
    whenever sigma_beta > 0.  Raises ConvergenceError when max_epochs pass
    without such a record."""
    n = problem.n
    cfg = solvers.SolverConfig(
        iters=max_epochs * n,
        trace_stride=50 * n,
        dist_fn=_RelativeChange(),
        stop_when_dist_below=1e-14,
    )
    profile = _erm_profile(problem, 0.0, strongly_convex=True)
    y, trace = solvers.nu_acdm(problem, profile, np.zeros(n), cfg)
    value = problem.value(y)
    if trace.final_dist() > cfg.stop_when_dist_below:
        raise ConvergenceError(
            f"reference minimum not stationary after {max_epochs} epochs "
            f"(last value {value})"
        )
    g = problem.full_grad(y)
    # gap bound from 1/n strong convexity: f - f* <= n ||grad||^2 / 2
    return ReferenceMinimum(value, y, 0.5 * n * float(np.dot(g, g)), "iterative")


# the Newton start of _penalty_reference: the damping mu = _NEWTON_DAMPING / n
# is a small fraction of the curvature 1/n that a coordinate outside [-1, 1]
# adds, and keeps the Newton matrix invertible where Q is singular (n > d,
# or coordinates inside [-1, 1], where D is linear along Q's null space)
_NEWTON_DAMPING = 1e-4
_NEWTON_ITERS = 100
# Armijo's sufficient-decrease fraction, and the step below which no trial
# point decreases D beyond its rounding
_ARMIJO = 1e-4
_ARMIJO_MIN_STEP = 1e-20
# the first-order residual max |grad D| at which the Newton start stops, and
# the one that certifies the penalty reference, relative to the gradient's
# terms once they exceed 1
_PENALTY_RESIDUAL = 1e-9


def _newton_start(problem: ErmDual, q: np.ndarray) -> np.ndarray:
    """A damped generalized Newton run from y = 0 on the penalty dual

        D(y) = (1/n) sum_i phi*(y_i) + y^T Q y / 2,   Q = X X^T / (lam n^2).

    Each step solves (J + mu I) p = -grad D(y), J = diag(|y| > 1)/n + Q the
    generalized Hessian of D, and halves t from 1 until D(y + t p) falls by
    at least _ARMIJO t |grad D . p|.  It stops once max |grad D| is at most
    _PENALTY_RESIDUAL, after _NEWTON_ITERS steps, or when no step decreases
    D.  Its point supplies the region pattern that the polish starts from."""
    n = problem.n
    damped = q + (_NEWTON_DAMPING / n) * np.eye(n)
    y = np.zeros(n)
    value = problem.value(y)
    for _ in range(_NEWTON_ITERS):
        grad = problem.full_grad(y)
        if np.max(np.abs(grad)) <= _PENALTY_RESIDUAL:
            break
        step = np.linalg.solve(damped + np.diag((np.abs(y) > 1.0) / n), -grad)
        slope = _ARMIJO * float(grad @ step)
        t = 1.0
        while not (trial := problem.value(y + t * step)) <= value + t * slope:
            t *= 0.5
            if t < _ARMIJO_MIN_STEP:
                return y
        y, value = y + t * step, trial
    return y


def _penalty_reference(problem: ErmDual) -> ReferenceMinimum:
    """Exact minimization of the piecewise-quadratic penalty dual.

    The conjugate loss is quadratic on each of the regions y_i < -1,
    |y_i| <= 1, y_i > 1, so once the region pattern of the minimizer is
    known the stationarity condition is linear.  A damped Newton run
    (_newton_start) supplies the starting pattern; up to 60 pattern updates
    then alternate with least-squares solves of the linearized condition.
    The answer must have a first-order residual max |grad D| of at most
    1e-9 max(1, max_i(|l_i|/n + (|Q| |y|)_i)), relative to the size of the
    gradient's terms, which round at their own size, or ConvergenceError
    is raised.  (A pure long run of the non-strongly-convex solver cannot
    certify stationarity here: with a 1/T^2 rate the tail improvements stay
    far above resolvable levels at any desk-scale budget.)
    """
    dense = problem.data.to_dense()
    n = problem.n
    lam = problem.lam
    labels = problem.labels
    q = dense @ dense.T / (lam * n * n)  # quadratic coupling, (n, n)

    def grad_norm(y):
        return float(np.max(np.abs(problem.full_grad(y))))

    y = _newton_start(problem, q)
    best_y, best_val = y.copy(), problem.value(y)

    pattern = None
    for _ in range(60):
        upper = y > 1.0
        lower = y < -1.0
        new_pattern = (upper, lower)
        shift = np.where(upper, -1.0, 0.0) + np.where(lower, 1.0, 0.0)
        active = (upper | lower).astype(float)
        lhs = np.diag(active) / n + q
        rhs = -(labels + shift) / n
        y_lin, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        val_lin = problem.value(y_lin)
        if val_lin <= best_val:
            best_y, best_val = y_lin, val_lin
        y = y_lin
        if pattern is not None and all(
            np.array_equal(a, b) for a, b in zip(pattern, new_pattern)
        ):
            break
        pattern = new_pattern

    # near the flat bottom the value separates candidates by less than its
    # own rounding noise; the stationarity residual is the real certificate
    if grad_norm(y) < grad_norm(best_y):
        best_y, best_val = y, problem.value(y)
    residual = grad_norm(best_y)
    terms = float(np.max(np.abs(labels) / n + np.abs(q) @ np.abs(best_y)))
    if residual > _PENALTY_RESIDUAL * max(1.0, terms):
        raise ConvergenceError(
            f"penalty reference: first-order residual {residual:.3e} "
            f"after pattern polish"
        )
    return ReferenceMinimum(
        value=best_val,
        minimizer=best_y,
        uncertainty=max(1e-14 * max(1.0, abs(best_val)), residual),
        method="pattern_polish",
    )


def reference_minimum(problem) -> ReferenceMinimum:
    """High-accuracy minimum (value and minimizer) of a built problem.

    Quadratics (Kaczmarz, ridge) use closed-form dense solves; the smoothed
    Lasso is one nu_acdm run from y = 0, stopped once the value recorded
    every 50 n steps stops moving (_strongly_convex_reference); the penalty
    dual is polished through its piecewise-quadratic structure from a damped
    Newton start (_penalty_reference).  All of them use numpy alone.
    """
    if isinstance(problem, KaczmarzQuadratic):
        return _kaczmarz_reference(problem)
    if isinstance(problem, ErmDual):
        if problem.variant == "ridge":
            return _ridge_reference(problem)
        if problem.variant == "smoothed_lasso":
            return _strongly_convex_reference(problem)
        return _penalty_reference(problem)
    if isinstance(problem, SeparableQuadratic):
        value = problem.value(problem.target)
        return ReferenceMinimum(value, problem.target.copy(), 0.0, "closed_form")
    raise TypeError(f"no reference-minimum rule for {type(problem).__name__}")


def ridge_primal_reference(problem: ErmDual):
    """(P*, w*) for the ridge variant: (X^T X / n + lam I) w = X^T l / n."""
    if problem.variant != "ridge":
        raise ValueError("closed-form primal reference exists only for ridge")
    dense = problem.data.to_dense()
    n = problem.n
    gram = dense.T @ dense
    w_star = np.linalg.solve(
        gram / n + problem.lam * np.eye(gram.shape[0]),
        dense.T @ problem.labels / n,
    )
    return primal_objective(problem, w_star), w_star


def global_smoothness(problem) -> float:
    """Lipschitz constant of the full gradient (largest Hessian eigenvalue,
    or an upper bound where the Hessian is only piecewise constant)."""
    if isinstance(problem, SeparableQuadratic):
        return float(np.max(problem.l))
    if isinstance(problem, KaczmarzQuadratic):
        return _gram_top(problem.a)
    if isinstance(problem, ErmDual):
        n = problem.n
        # conjugate-loss curvature is at most 1 for every variant here
        return 1.0 / n + _gram_top(problem.data) / (problem.lam_smooth * n * n)
    raise TypeError(f"no smoothness rule for {type(problem).__name__}")


def _gram_top(a_matrix: SparseRowMatrix) -> float:
    """The largest eigenvalue of A^T A, from the m x m A A^T when m < d
    (as build_kaczmarz's sigma0): no d x d array on wide rows."""
    if a_matrix.m < a_matrix.d:
        csr = a_matrix._csr
        gram = (csr @ csr.T).toarray()
    else:
        dense = a_matrix.to_dense()
        gram = dense.T @ dense
    return float(np.linalg.eigvalsh(gram)[-1])
