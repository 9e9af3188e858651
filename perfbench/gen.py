"""Seeded LibSVM generators for the sparse workloads.

Rows have k distinct ascending columns and two-level norms: a fraction r of
the rows (chosen at random) has norm hi, the rest norm lo.  Files are
written once per (parameters, seed) into a cache directory and reused, so
generation stays outside every timed region; the workloads read them back
through nucd.data_io.parse_libsvm.
"""

from __future__ import annotations

import math
import os

import numpy as np


def sparse_rows(rng, m: int, d: int, k: int, r: float, hi: float = 10.0,
                lo: float = 1.0):
    """(cols, vals) as (m, k) arrays: distinct ascending columns per row,
    standard normal values rescaled so that ceil(r*m) random rows have norm
    hi and the others norm lo."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    cols = np.sort(rng.integers(0, d, size=(m, k)), axis=1)
    while True:
        dup = np.flatnonzero(np.any(np.diff(cols, axis=1) == 0, axis=1))
        if dup.size == 0:
            break
        cols[dup] = np.sort(rng.integers(0, d, size=(dup.size, k)), axis=1)
    vals = rng.standard_normal((m, k))
    norms = np.full(m, lo)
    norms[rng.permutation(m)[: math.ceil(r * m)]] = hi
    vals *= (norms / np.linalg.norm(vals, axis=1))[:, None]
    return cols, vals


def write_rows(path, labels, cols, vals, chunk: int = 4096) -> None:
    """LibSVM text, 1-based indices, 17 significant digits (bitwise round
    trip through parse_libsvm).  Rows are formatted a chunk at a time so the
    generator's memory stays far below what parsing the file takes."""
    k = cols.shape[1]
    row_fmt = "%.17g " + " ".join(["%d:%.17g"] * k) + "\n"
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        for lo in range(0, cols.shape[0], chunk):
            pairs = np.empty((min(chunk, cols.shape[0] - lo), 2 * k), dtype=object)
            pairs[:, 0::2] = cols[lo:lo + chunk] + 1
            pairs[:, 1::2] = vals[lo:lo + chunk]
            for label, row in zip(labels[lo:lo + chunk].tolist(), pairs.tolist()):
                fh.write(row_fmt % (label, *row))
    os.replace(tmp, path)


def prune(cache_dir, prefix: str, keep: int) -> None:
    """Delete all but the `keep` newest cached files starting with prefix."""
    paths = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)
             if f.startswith(prefix)]
    paths.sort(key=os.path.getmtime, reverse=True)
    for path in paths[keep:]:
        os.remove(path)


def lasso_file(cache_dir, seed: int, m: int, d: int, k: int, r: float = 0.1):
    """Regression data for the smoothed Lasso: labels = A w + 0.1 noise with
    a 1%-dense standard normal w.  Returns the file path."""
    path = os.path.join(cache_dir, f"lasso-{m}x{d}-k{k}-r{r:g}-s{seed}.svm")
    if not os.path.exists(path):
        rng = np.random.default_rng([seed, 1])
        cols, vals = sparse_rows(rng, m, d, k, r)
        w = np.zeros(d)
        support = rng.choice(d, size=max(1, d // 100), replace=False)
        w[support] = rng.standard_normal(support.size)
        labels = np.sum(vals * w[cols], axis=1) + 0.1 * rng.standard_normal(m)
        write_rows(path, labels, cols, vals)
        prune(cache_dir, "lasso-", keep=64)
    return path


def ingest_file(cache_dir, seed: int, m: int, d: int, k: int, r: float = 0.1):
    """Consistent system b = A x* with standard normal x*; the label column
    holds b.  Returns (file path, x*).  x* is regenerated from the seed, not
    read back, so the workload checks against an independent copy."""
    x_star = np.random.default_rng([seed, 3]).standard_normal(d)
    path = os.path.join(cache_dir, f"ingest-{m}x{d}-k{k}-r{r:g}-s{seed}.svm")
    if not os.path.exists(path):
        cols, vals = sparse_rows(np.random.default_rng([seed, 2]), m, d, k, r)
        write_rows(path, np.sum(vals * x_star[cols], axis=1), cols, vals)
        prune(cache_dir, "ingest-", keep=2)
    return path, x_star
