"""Concrete objectives for the solvers.

Four applications: a least-squares reformulation of a linear system solved
over row space (the Kaczmarz quadratic), and three regularized ERM duals
(ridge, smoothed Lasso, and a piecewise-quadratic l2-l1 penalty).  Each
builder returns a CoordOracle plus the SmoothnessProfile the solvers need.
A separable quadratic is included as the standard synthetic test family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize

from .geometry import CoordOracle, SmoothnessProfile
from .matrix import SparseRowMatrix
from . import solvers


class ConvergenceError(RuntimeError):
    """An iterative reference computation missed its stationarity target."""


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def smallest_positive_eigenvalue(gram: np.ndarray, rel_tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a PSD matrix above the zero threshold
    rel_tol * lambda_max."""
    vals = np.linalg.eigvalsh(gram)
    lam_max = float(vals[-1])
    if lam_max <= 0.0:
        raise ValueError("matrix has no positive eigenvalue")
    positive = vals[vals > rel_tol * lam_max]
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

    def coord_grad(self, x, i, aggregate=None):
        return float(self.l[i] * (x[i] - self.target[i]))

    def full_grad(self, x, aggregate=None):
        return self.l * (x - self.target)


def build_separable_quadratic(l, target=None, beta: float = 0.0):
    """Oracle and profile for the separable quadratic.  The strong convexity
    modulus in the weighted geometry is exactly min_i L_i^(1-beta)."""
    oracle = SeparableQuadratic(l, target)
    sigma = float(np.min(oracle.l ** (1.0 - beta)))
    profile = SmoothnessProfile(oracle.l.copy(), beta=beta, sigma_beta=sigma)
    return oracle, profile


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
        if np.any(a_matrix.row_norms_sq <= 0.0):
            raise ValueError("zero rows are not allowed")
        self.a = a_matrix
        self.b = b
        self.n = a_matrix.m  # coordinates are rows of A

    def aggregate(self, y):
        return self.a.rmatvec(y)

    def update_aggregate(self, agg, i, delta):
        lo, hi = self.a.indptr[i], self.a.indptr[i + 1]
        agg[self.a.indices[lo:hi]] += delta * self.a.data[lo:hi]

    def value(self, y, aggregate=None):
        w = self.aggregate(y) if aggregate is None else aggregate
        return 0.5 * float(np.dot(w, w)) - float(np.dot(self.b, y))

    def coord_grad(self, y, i, aggregate=None):
        w = self.aggregate(y) if aggregate is None else aggregate
        return self.a.row_dot(i, w) - float(self.b[i])

    def full_grad(self, y, aggregate=None):
        w = self.aggregate(y) if aggregate is None else aggregate
        return self.a.matvec(w) - self.b

    def recover_primal(self, y=None, aggregate=None):
        """The row-space solution x = A^T y the run is actually building."""
        return self.aggregate(y) if aggregate is None else np.asarray(aggregate)


def build_kaczmarz(a_matrix: SparseRowMatrix, b, beta: float = 0.0):
    """Oracle over y in R^m with L_i = ||a_i||^2.  The convexity modulus is
    the smallest nonzero eigenvalue of A^T A (the objective is strongly
    convex on the row space, which is where the iterates live), rescaled
    for beta > 0."""
    oracle = KaczmarzQuadratic(a_matrix, b)
    l = a_matrix.row_norms_sq.copy()
    gram = a_matrix.to_dense().T @ a_matrix.to_dense()
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
    """

    phi: Callable
    conj: Callable
    conj_deriv: Callable


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


SQUARED_LOSS = ScalarConjugate(_sq_phi, _sq_conj, _sq_conj_deriv)
PENALTY_LOSS = ScalarConjugate(_pen_phi, _pen_conj, _pen_conj_deriv)

_VARIANTS = ("ridge", "smoothed_lasso", "l1l2_penalty")


def _verify_conjugate_on_grid(pair: ScalarConjugate, labels, tol=1e-6):
    """Check pair.conj against the brute-force supremum sup_t (s*t - phi(t))
    on a dense grid.  Reference check for hand-derived conjugates, run on
    both losses by checks.check_gradients_and_conjugates."""
    probe = sorted({0.0, float(np.min(labels)), float(np.max(labels))})
    s_grid = np.linspace(-3.0, 3.0, 121)
    offsets = np.arange(-3.0, 3.0 + 1e-3, 1e-3)
    for l in probe:
        # centered on the label so any kink of phi sits on a grid node;
        # every maximizer for |s| <= 3 lies within label +- 3
        t_grid = l + offsets
        phi_t = pair.phi(t_grid, l)
        sup = np.max(s_grid[:, None] * t_grid[None, :] - phi_t[None, :], axis=1)
        err = np.max(np.abs(pair.conj(s_grid, l) - sup))
        if err > tol:
            raise AssertionError(
                f"conjugate formula disagrees with grid supremum by {err:.3e} "
                f"at label {l}"
            )


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
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        if variant == "smoothed_lasso":
            if lam2 is None or lam2 <= 0.0:
                raise ValueError("smoothed_lasso needs lam2 > 0")
        else:
            lam2 = None
        self.data = data
        self.labels = labels
        self.lam = float(lam)
        self.lam2 = None if lam2 is None else float(lam2)
        self.variant = variant
        self.n = data.m
        self.d = data.d
        self.loss = PENALTY_LOSS if variant == "l1l2_penalty" else SQUARED_LOSS

    # aggregate v = (1/n) sum_i y_i a_i

    def aggregate(self, y):
        return self.data.rmatvec(y) / self.n

    def update_aggregate(self, agg, i, delta):
        lo, hi = self.data.indptr[i], self.data.indptr[i + 1]
        agg[self.data.indices[lo:hi]] += (delta / self.n) * self.data.data[lo:hi]

    def _reg_conj_value(self, v):
        """r*(-v); |.| makes the sign flip immaterial for these r."""
        if self.variant == "smoothed_lasso":
            exc = np.maximum(np.abs(v) - self.lam, 0.0)
            return float(np.dot(exc, exc)) / (2.0 * self.lam2)
        return float(np.dot(v, v)) / (2.0 * self.lam)

    def _reg_conj_grad(self, v):
        """gradient of r* evaluated at -v (a d-vector)."""
        if self.variant == "smoothed_lasso":
            return soft_threshold(-v, self.lam) / self.lam2
        return -v / self.lam

    def value(self, y, aggregate=None):
        v = self.aggregate(y) if aggregate is None else aggregate
        sep = float(np.sum(self.loss.conj(y, self.labels))) / self.n
        return sep + self._reg_conj_value(v)

    def coord_grad(self, y, i, aggregate=None):
        v = self.aggregate(y) if aggregate is None else aggregate
        sep = float(self.loss.conj_deriv(y[i], self.labels[i])) / self.n
        lo, hi = self.data.indptr[i], self.data.indptr[i + 1]
        row_dot = float(
            np.dot(self.data.data[lo:hi], self._reg_conj_grad(v)[self.data.indices[lo:hi]])
        )
        return sep - row_dot / self.n

    def full_grad(self, y, aggregate=None):
        v = self.aggregate(y) if aggregate is None else aggregate
        sep = self.loss.conj_deriv(y, self.labels) / self.n
        return sep - self.data.matvec(self._reg_conj_grad(v)) / self.n


def _erm_profile(oracle: ErmDual, beta: float, strongly_convex: bool):
    n = oracle.n
    lam_smooth = oracle.lam2 if oracle.variant == "smoothed_lasso" else oracle.lam
    l = 1.0 / n + oracle.data.row_norms_sq / (lam_smooth * n * n)
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
    w = primal_from_dual(problem, y)
    return primal_objective(problem, w) + smoothing_term(problem, w) + problem.value(y)


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


def _strongly_convex_reference(problem, profile, seed, max_epochs):
    """Long accelerated run in chunks until relative improvement dies out;
    valid whenever sigma_beta > 0."""
    n = problem.n
    y = np.zeros(n)
    best_y, best = y.copy(), problem.value(y)
    chunk = 50 * n
    used = 0
    while used < max_epochs * n:
        cfg = solvers.SolverConfig(iters=chunk, seed=seed + used)
        y, _ = solvers.nu_acdm(problem, profile, y, cfg)
        used += chunk
        cur = problem.value(y)
        improvement = best - cur
        if cur < best:
            best_y, best = y.copy(), cur
        if abs(improvement) <= 1e-14 * max(1.0, abs(cur)):
            g = problem.full_grad(best_y)
            # gap bound from 1/n strong convexity: f - f* <= n ||grad||^2 / 2
            uncert = 0.5 * n * float(np.dot(g, g))
            return ReferenceMinimum(best, best_y, uncert, "iterative")
    raise ConvergenceError(
        f"reference minimum not stationary after {max_epochs} epochs "
        f"(last value {best})"
    )


def _penalty_reference(problem: ErmDual, max_rounds=60) -> ReferenceMinimum:
    """Exact minimization of the piecewise-quadratic penalty dual.

    The conjugate loss is quadratic on each of the regions y_i < -1,
    |y_i| <= 1, y_i > 1, so once the region pattern of the minimizer is
    known the stationarity condition is linear.  A smooth solver supplies
    the starting pattern; pattern updates then alternate with least-squares
    solves of the linearized condition.  (A pure long run of the
    non-strongly-convex solver cannot certify stationarity here: with a
    1/T^2 rate the tail improvements stay far above resolvable levels at
    any desk-scale budget.)
    """
    dense = problem.data.to_dense()
    n = problem.n
    lam = problem.lam
    labels = problem.labels
    q = dense @ dense.T / (lam * n * n)  # quadratic coupling, (n, n)

    def grad_norm(y):
        return float(np.max(np.abs(problem.full_grad(y))))

    res = scipy.optimize.minimize(
        problem.value,
        np.zeros(n),
        jac=lambda y: problem.full_grad(y),
        method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
    )
    y = res.x
    best_y, best_val = y.copy(), problem.value(y)

    pattern = None
    for _ in range(max_rounds):
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
    if residual > 1e-9:
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


def reference_minimum(problem, profile=None, seed=0, max_epochs=20000):
    """High-accuracy minimum (value and minimizer) of a built problem.

    Quadratics (Kaczmarz, ridge) use closed-form dense solves; the smoothed
    Lasso runs the strongly convex solver until improvements vanish; the
    penalty dual is polished through its piecewise-quadratic structure.
    """
    if isinstance(problem, KaczmarzQuadratic):
        return _kaczmarz_reference(problem)
    if isinstance(problem, ErmDual):
        if problem.variant == "ridge":
            return _ridge_reference(problem)
        if problem.variant == "smoothed_lasso":
            if profile is None:
                _, profile = build_lasso_dual(
                    problem.data, problem.labels, problem.lam, problem.lam2
                )
            return _strongly_convex_reference(problem, profile, seed, max_epochs)
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
        dense = problem.a.to_dense()
        return float(np.linalg.eigvalsh(dense.T @ dense)[-1])
    if isinstance(problem, ErmDual):
        dense = problem.data.to_dense()
        lam_smooth = problem.lam2 if problem.variant == "smoothed_lasso" else problem.lam
        n = problem.n
        gram_top = float(np.linalg.eigvalsh(dense.T @ dense)[-1])
        # conjugate-loss curvature is at most 1 for every variant here
        return 1.0 / n + gram_top / (lam_smooth * n * n)
    raise TypeError(f"no smoothness rule for {type(problem).__name__}")
