"""Textbook forms that the package's fast paths are tested against."""

import numpy as np


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
