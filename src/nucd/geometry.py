"""Coordinate-wise smoothness geometry shared by all solvers.

A problem is described to the solvers by a smoothness profile: the vector of
coordinate Lipschitz constants L_i, an interpolation exponent beta in [0, 1],
and the strong convexity modulus sigma_beta measured in the norm weighted by
L_i^beta.  Everything the step-size schedules need (power sums, sampling
weights, weighted inner products) is derived from the profile here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SmoothnessProfile:
    """Per-coordinate smoothness data for a convex objective.

    l          : positive array of coordinate Lipschitz constants, shape (n,)
    beta       : exponent in [0, 1] selecting the weighted geometry
    sigma_beta : strong convexity modulus w.r.t. the L_i^beta-weighted norm;
                 0 means "not strongly convex"
    """

    l: np.ndarray
    beta: float = 0.0
    sigma_beta: float = 0.0

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        object.__setattr__(self, "l", l)
        if l.ndim != 1 or l.size == 0:
            raise ValueError("smoothness constants must be a nonempty 1-d array")
        if not np.all(np.isfinite(l)) or np.any(l <= 0.0):
            raise ValueError("smoothness constants must be finite and positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.sigma_beta < 0.0 or not np.isfinite(self.sigma_beta):
            raise ValueError("sigma_beta must be finite and nonnegative")
        # sigma_beta cannot exceed the curvature available in any single
        # coordinate: L_i >= sigma_beta * L_i^beta must hold for all i.
        limit = float(np.min(l ** (1.0 - self.beta)))
        if self.sigma_beta > limit * (1.0 + 1e-12):
            raise ValueError(
                f"sigma_beta={self.sigma_beta} exceeds min L_i^(1-beta)={limit}"
            )

    @property
    def n(self) -> int:
        return self.l.size

    @property
    def alpha(self) -> float:
        """Sampling exponent used by the accelerated schedule."""
        return (1.0 - self.beta) / 2.0


def s_alpha(profile: SmoothnessProfile, alpha: float) -> float:
    """Power sum sum_i L_i^alpha of the smoothness constants."""
    return float(np.sum(profile.l ** alpha))


def lbeta_norm_sq(x: np.ndarray, profile: SmoothnessProfile) -> float:
    """Squared norm sum_i L_i^beta * x_i^2 in the profile's geometry."""
    x = np.asarray(x, dtype=float)
    if x.shape != profile.l.shape:
        raise ValueError("x must have one entry per coordinate")
    return float(np.sum(profile.l ** profile.beta * x * x))


def lbeta_inner(x: np.ndarray, y: np.ndarray, profile: SmoothnessProfile) -> float:
    """Inner product sum_i L_i^beta * x_i * y_i in the profile's geometry."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not x.shape == y.shape == profile.l.shape:
        raise ValueError("x and y must have one entry per coordinate")
    return float(np.sum(profile.l ** profile.beta * x * y))


def speedup_factor(profile: SmoothnessProfile) -> float:
    """Predicted iteration-count ratio of uniform-rate acceleration over the
    non-uniform schedule: sqrt(n * sum L_i) / sum sqrt(L_i).

    Always >= 1 by Cauchy-Schwarz, with equality iff all L_i are equal.
    """
    l = profile.l
    return float(np.sqrt(l.size * np.sum(l)) / np.sum(np.sqrt(l)))


class CoordOracle:
    """First-order access to a convex function through single coordinates.

    Subclasses must set ``n`` and implement ``value`` and ``coord_grad``.
    Oracles whose gradients depend on the iterate only through a vector
    aggregate that is *linear* in the point (a matrix product, a weighted
    feature sum) additionally implement the aggregate protocol below; the
    solvers then pay O(nnz of one row) per coordinate step instead of a
    full recomputation.
    """

    n: int = 0

    def value(self, x: np.ndarray, aggregate: np.ndarray | None = None) -> float:
        raise NotImplementedError

    def coord_grad(
        self, x: np.ndarray, i: int, aggregate: np.ndarray | None = None
    ) -> float:
        raise NotImplementedError

    def full_grad(self, x: np.ndarray, aggregate: np.ndarray | None = None) -> np.ndarray:
        # generic fallback; oracles with cheap matrix forms override this
        return np.array([self.coord_grad(x, i, aggregate) for i in range(self.n)])

    # --- incremental aggregate protocol (optional) ---

    def aggregate(self, x: np.ndarray) -> np.ndarray | None:
        """Cache vector for query point x, or None if the oracle needs none."""
        return None

    def update_aggregate(self, agg: np.ndarray, i: int, delta: float) -> None:
        """Apply the effect of x_i += delta to a cache built by aggregate()."""
        raise NotImplementedError


class TrackedPoint:
    """A query point bundled with the oracle's cache for it.

    The solvers keep one of these per iterate sequence.  Because every cache
    in this package is linear in the point, an affine recombination of two
    tracked points recombines the caches with the same scalars; a single
    coordinate step delegates to the oracle's sparse update.
    """

    __slots__ = ("oracle", "x", "agg")

    def __init__(self, oracle: CoordOracle, x: np.ndarray):
        self.oracle = oracle
        self.x = np.array(x, dtype=float)
        if self.x.shape != (oracle.n,):
            raise ValueError(f"point must have shape ({oracle.n},), got {self.x.shape}")
        self.agg = oracle.aggregate(self.x)

    def copy(self) -> "TrackedPoint":
        other = TrackedPoint.__new__(TrackedPoint)
        other.oracle = self.oracle
        other.x = self.x.copy()
        other.agg = None if self.agg is None else self.agg.copy()
        return other

    def copy_from(self, src: "TrackedPoint") -> None:
        self.x[:] = src.x
        if self.agg is not None:
            self.agg[:] = src.agg

    def combine(self, a: float, p: "TrackedPoint", b: float, q: "TrackedPoint") -> None:
        """Overwrite with a*p + b*q (points and caches alike)."""
        np.multiply(p.x, a, out=self.x)
        self.x += b * q.x
        if self.agg is not None:
            np.multiply(p.agg, a, out=self.agg)
            self.agg += b * q.agg

    def apply_coord_step(self, i: int, delta: float) -> None:
        self.x[i] += delta
        if self.agg is not None:
            self.oracle.update_aggregate(self.agg, i, delta)

    def rebuild(self) -> None:
        """Recompute the cache from the point, discarding accumulated drift."""
        self.agg = self.oracle.aggregate(self.x)

    def value(self) -> float:
        return self.oracle.value(self.x, self.agg)

    def coord_grad(self, i: int) -> float:
        return self.oracle.coord_grad(self.x, i, self.agg)


def grad_check(
    oracle: CoordOracle,
    x: np.ndarray,
    i: int,
    h: float = 1e-5,
) -> float:
    """Relative error of coord_grad against a central finite difference.

    Returns |analytic - numeric| / max(1, |analytic|).  Callers probing
    piecewise-smooth objectives should keep x_i away from kinks by more
    than h.
    """
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[i] = h
    numeric = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    analytic = oracle.coord_grad(x, i)
    return abs(analytic - numeric) / max(1.0, abs(analytic))
