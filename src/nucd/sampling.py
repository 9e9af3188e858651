"""Seeded sampling from fixed non-uniform distributions.

The solvers draw millions of coordinate indices from a distribution that
never changes during a run, so the cumulative distribution is built once
(one O(n) numpy pass) and indices are drawn in vectorized blocks by
inverse-CDF lookup, O(log n) per draw.  Randomness comes from numpy's
PCG64 generator; a given (weights, seed) pair yields one reproducible
index stream however the blocks are sized.  Scaling the weights by a
positive factor (normalising them, say) moves each table entry by rounding
only, so a draw can change only if its uniform falls within an ulp or so of
a boundary.
"""

from __future__ import annotations

import numpy as np


class WeightedSampler:
    """Inverse-CDF sampler over indices 0..n-1 with fixed weights.

    Weights must be finite, nonnegative, and not all zero.  Indices with
    zero weight stay legal inputs but are never returned: each owns an
    empty interval of the cumulative table.
    """

    def __init__(self, weights, seed: int):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        cdf = np.cumsum(w)
        if cdf[-1] <= 0.0:
            raise ValueError("weights must not all be zero")
        self._rng = np.random.default_rng(seed)
        # the last entry is exactly 1.0, so every uniform in [0, 1) lands
        self._cdf = cdf / cdf[-1]

    def sample_block(self, size: int) -> np.ndarray:
        """Draw `size` indices; consecutive blocks continue one stream."""
        return np.searchsorted(self._cdf, self._rng.random(size), side="right")
