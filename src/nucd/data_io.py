"""Dataset ingestion, synthetic instance generation, serialization.

Everything here is a pure function of (parameters, seed).  Text formats:
LibSVM sparse rows for datasets and linear systems, a fixed-schema CSV for
convergence traces.  Floats are written with 17 significant digits so that
parse(write(x)) is bitwise faithful.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .matrix import SparseRowMatrix
from .solvers import ConvergenceTrace

TRACE_HEADER = "algo,seed,iter,epoch,value,dist_to_min"

_TOKEN = re.compile(r"\S+")
_TEXT = np.dtypes.StringDType()
_COLON = np.array(":", dtype=_TEXT)
# parse_libsvm converts about this many characters of whole lines at a
# time: blocks of 64 KiB parse as fast as 1 MiB ones and hold less memory
_BLOCK_BYTES = 1 << 16
# indices (and so the feature count) must fit in int64
_INDEX_MAX = np.iinfo(np.int64).max


class ParseError(ValueError):
    """Malformed input file; message carries line (and column) positions."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class Dataset:
    """Feature rows plus one label per row."""

    features: SparseRowMatrix
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)
        if self.labels.shape != (self.features.m,):
            raise ValueError("row count must equal label count")
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")

    @property
    def n(self) -> int:
        return self.features.m

    @property
    def d(self) -> int:
        return self.features.d


# --- LibSVM text format ---


def parse_libsvm(path, n_features: int | None = None) -> Dataset:
    """Read `<label> <idx>:<val> ...` lines; 1-based strictly ascending
    indices, `#` starts a comment.  Stored indices are 0-based; the feature
    count is the largest index seen unless n_features overrides it; an
    index above n_features, or beyond int64, is an error.

    Lines are read _BLOCK_BYTES at a time and each block is converted in
    bulk; a block that fails a check is re-read by _scan_line, which names
    the first bad token's line and column."""
    limit = _INDEX_MAX if n_features is None else n_features
    blocks = [_convert_block([], limit)]  # typed empty arrays
    first_line = 1
    with open(path) as fh:
        while block := fh.readlines(_BLOCK_BYTES):
            parts = _convert_block(block, limit)
            if parts is None:
                parts = _scan_block(path, first_line, block, n_features)
            blocks.append(parts)
            first_line += len(block)
    labels, counts, indices, data = map(np.concatenate, zip(*blocks))
    del blocks  # free the per-block copies before the matrix build
    if n_features is None:
        n_features = int(indices.max()) + 1 if indices.size else 0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    features = SparseRowMatrix(indptr, indices, data, (counts.size, n_features))
    return Dataset(features, labels)


def _convert_block(lines, limit):
    """(labels, per-row entry counts, 0-based indices, values) of a block of
    lines, or None if any token fails a check."""
    rows = []
    for raw in lines:
        hash_pos = raw.find("#")
        tokens = (raw[:hash_pos] if hash_pos >= 0 else raw).split()
        if tokens:
            rows.append(tokens)
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    tokens = np.array(list(itertools.chain.from_iterable(rows)), dtype=_TEXT)
    is_label = np.zeros(tokens.size, dtype=bool)
    is_label[np.cumsum(counts) - counts] = True
    # a token with no colon leaves an empty value, one with two a value
    # containing ":"; neither converts to float
    idx_text, _, val_text = np.strings.partition(tokens[~is_label], _COLON)
    try:
        labels = tokens[is_label].astype(np.float64)
        idx = idx_text.astype(np.int64)
        vals = val_text.astype(np.float64)
    except (ValueError, OverflowError):
        return None
    if not (np.all(np.isfinite(labels)) and np.all(np.isfinite(vals))):
        return None
    if idx.size and (idx.min() < 1 or idx.max() > limit):
        return None
    # entry j + 1 must exceed entry j wherever both lie in one row
    counts -= 1
    starts = np.cumsum(counts) - counts
    ascending = np.diff(idx) > 0
    ascending[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not np.all(ascending):
        return None
    return labels, counts, idx - 1, vals


def _scan_block(path, first_line, lines, n_features):
    """_convert_block's output built one line at a time by _scan_line."""
    rows = [row for line_no, raw in enumerate(lines, first_line)
            if (row := _scan_line(path, line_no, raw, n_features)) is not None]
    return (
        np.array([label for label, _, _ in rows], dtype=float),
        np.array([len(cols) for _, cols, _ in rows], dtype=np.int64),
        np.array([c for _, cols, _ in rows for c in cols], dtype=np.int64),
        np.array([v for _, _, vals in rows for v in vals], dtype=float),
    )


def _scan_line(path, line_no, raw, n_features):
    """Parse one line token by token: None for a blank or comment-only line,
    else (label, 0-based column ids, values).  Raises ParseError naming
    `path:line:column` of the first bad token."""
    limit = _INDEX_MAX if n_features is None else n_features
    hash_pos = raw.find("#")
    if hash_pos >= 0:
        raw = raw[:hash_pos]
    tokens = list(_TOKEN.finditer(raw))
    if not tokens:
        return None
    label_tok = tokens[0]
    try:
        label = float(label_tok.group())
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}:{label_tok.start() + 1}: "
            f"bad label {label_tok.group()!r}"
        ) from None
    if not math.isfinite(label):
        raise ParseError(
            f"{path}:{line_no}:{label_tok.start() + 1}: non-finite label"
        )
    cols = []
    vals = []
    prev_idx = 0
    for tok in tokens[1:]:
        col_no = tok.start() + 1
        parts = tok.group().split(":")
        if len(parts) != 2:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: expected idx:value, "
                f"got {tok.group()!r}"
            )
        try:
            idx = int(parts[0])
        except ValueError:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: bad index {parts[0]!r}"
            ) from None
        if idx < 1:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: index {idx} is not 1-based"
            )
        if idx > limit:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: index {idx} out of range "
                f"(at most {limit})"
            )
        if idx <= prev_idx:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: index {idx} not ascending "
                f"(previous {prev_idx})"
            )
        try:
            val = float(parts[1])
        except ValueError:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: bad value {parts[1]!r}"
            ) from None
        if not math.isfinite(val):
            raise ParseError(
                f"{path}:{line_no}:{col_no}: non-finite value"
            )
        prev_idx = idx
        cols.append(idx - 1)
        vals.append(val)
    return label, cols, vals


def write_libsvm(dataset: Dataset, path) -> None:
    feats = dataset.features
    with open(path, "w") as fh:
        for i in range(feats.m):
            cols, vals = feats.row(i)
            parts = [_fmt(dataset.labels[i])]
            parts += [f"{c + 1}:{_fmt(v)}" for c, v in zip(cols, vals)]
            fh.write(" ".join(parts) + "\n")


# --- synthetic generators ---


def _ceil_fraction(r: float, m: int) -> int:
    """ceil(r*m) with a guard against float noise on exact products
    (0.1 * 300 is slightly above 30 in doubles)."""
    t = r * m
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(t))


def gen_linear_system(m: int, n: int, r: float, hi: float = 10.0,
                      lo: float = 1.0, seed: int = 0):
    """Random consistent system: entries uniform in [0,1), then ceil(r*m)
    rows rescaled to norm hi and the rest to norm lo, rows shuffled, and
    b = A x* for a standard normal x*.  Returns (A, b, x*)."""
    if not (m >= n >= 1):
        raise ValueError("need m >= n >= 1")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if hi <= 0.0 or lo <= 0.0:
        raise ValueError("target norms must be positive")
    rng = np.random.default_rng(seed)
    dense = rng.uniform(size=(m, n))
    norms = np.linalg.norm(dense, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate all-zero row drawn")
    k = _ceil_fraction(r, m)
    targets = np.full(m, lo)
    targets[:k] = hi
    dense *= (targets / norms)[:, None]
    dense = dense[rng.permutation(m)]
    x_star = rng.standard_normal(n)
    a = SparseRowMatrix.from_dense(dense)
    b = a.matvec(x_star)
    return a, b, x_star


def two_level_norms(n: int, r: float, hi: float = 10.0, lo: float = 1.0):
    """Norm profile with ceil(r*n) rows at hi and the rest at lo."""
    k = _ceil_fraction(r, n)
    out = np.full(n, lo)
    out[:k] = hi
    return out


def gen_skewed_dataset(n: int, d: int, norm_profile, seed: int = 0) -> Dataset:
    """Gaussian rows rescaled to the requested norms exactly, with noisy
    linear regression labels.  norm_profile is one positive target norm per
    example."""
    targets = np.asarray(norm_profile, dtype=float)
    if targets.shape != (n,):
        raise ValueError("norm_profile must give one norm per example")
    if np.any(targets <= 0.0) or not np.all(np.isfinite(targets)):
        raise ValueError("requested norms must be positive and finite")
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, d))
    norms = np.linalg.norm(dense, axis=1)
    dense *= (targets / norms)[:, None]
    w = rng.standard_normal(d) / math.sqrt(d)
    labels = dense @ w + 0.1 * rng.standard_normal(n)
    return Dataset(SparseRowMatrix.from_dense(dense), labels)


# --- trace files ---


def write_trace(traces, path) -> None:
    """Serialize traces to the fixed CSV schema, one row per record."""
    lines = [TRACE_HEADER]
    for t in traces:
        epochs = t.epochs
        for j in range(len(t.iters)):
            lines.append(
                f"{t.algo},{t.seed},{int(t.iters[j])},"
                f"{_fmt(epochs[j])},{_fmt(t.values[j])},{_fmt(t.dists[j])}"
            )
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_trace(path) -> list[ConvergenceTrace]:
    """Parse a trace CSV back into ConvergenceTrace objects, one per
    (algo, seed) group, validating the schema."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ParseError(f"{path}:1: expected header {TRACE_HEADER!r}")
    groups: dict[tuple, dict] = {}
    for line_no, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"{path}:{line_no}: expected 6 fields, got {len(fields)}")
        algo = fields[0]
        try:
            seed = int(fields[1])
            it = int(fields[2])
            epoch = float(fields[3])
            value = float(fields[4])
            dist = float(fields[5])
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None
        key = (algo, seed)
        grp = groups.setdefault(key, {"iters": [], "epochs": [], "values": [], "dists": []})
        if grp["iters"] and it <= grp["iters"][-1]:
            raise ParseError(
                f"{path}:{line_no}: iterations not strictly increasing for {key}"
            )
        grp["iters"].append(it)
        grp["epochs"].append(epoch)
        grp["values"].append(value)
        grp["dists"].append(dist)

    out = []
    for (algo, seed), grp in groups.items():
        units = 1
        for it, ep in zip(grp["iters"], grp["epochs"]):
            if it > 0 and ep > 0.0:
                units = max(1, round(it / ep))
                break
        for it, ep in zip(grp["iters"], grp["epochs"]):
            expect = it / units
            if abs(ep - expect) > 1e-12 * max(1.0, abs(expect)):
                raise ParseError(
                    f"{path}: epoch column inconsistent for {(algo, seed)}: "
                    f"iter {it} gives epoch {ep}, expected {expect}"
                )
        out.append(
            ConvergenceTrace(
                algo=algo,
                seed=seed,
                units_per_epoch=units,
                iters=np.asarray(grp["iters"], dtype=np.int64),
                values=np.asarray(grp["values"]),
                dists=np.asarray(grp["dists"]),
            )
        )
    return out


def write_solution(x, path) -> None:
    """Plain-text vector, one 17-significant-digit value per line."""
    with open(path, "w") as fh:
        for v in np.asarray(x, dtype=float):
            fh.write(_fmt(v) + "\n")


def read_solution(path) -> np.ndarray:
    with open(path) as fh:
        vals = [float(line) for line in fh.read().split()]
    return np.asarray(vals)
