"""Dataset ingestion, synthetic instance generation, serialization.

Everything here is a pure function of (parameters, seed).  Text formats:
LibSVM sparse rows for datasets and linear systems, a fixed-schema CSV for
convergence traces.  Floats are written with 17 significant digits so that
parse(write(x)) is bitwise faithful.

LibSVM files are read in binary blocks of whole lines.  A block that keeps
to plain ASCII spellings, one space between tokens and "\n" line ends is
checked with numpy and its numbers read by one single-threaded call of
scipy's C++ Matrix Market reader: a number is
`[-+]?digits(.digits)?([eE][+-]?digits)?` and an index is 1 to 15 digits.
A block with comments, blank lines, runs of blanks, "\r" or non-ASCII
bytes is decoded as text mode reads it (universal newlines), tidied and
tried again.  Any other spelling that Python's int() and float() accept
(`.5`, `1.`, a signed index, underscores, Unicode digits) is read line by
line instead, which is several times slower; so is every block holding an
error, which is how its `path:line:column` message is found.
"""

from __future__ import annotations

import io
import math
import re
import threading
from dataclasses import dataclass

import numpy as np

from .matrix import SparseRowMatrix
from .solvers import ConvergenceTrace

TRACE_HEADER = "algo,seed,iter,epoch,value,dist_to_min"

_TOKEN = re.compile(r"\S+")
# parse_libsvm reads the file this many bytes at a time, finished at a
# newline, and each block is one call of scipy's Matrix Market reader on
# one thread.  On a 2-vCPU host, the only one measured, a 13.5 MB file
# parsed in a median of 150 ms in 128 KiB blocks, 132 ms in 256 KiB ones,
# 129 ms in 512 KiB and 123 ms in 1 MiB ones (16 alternating rounds; the
# quartiles from 256 KiB up overlap), and larger blocks hold more memory
_BLOCK_BYTES = 1 << 18
# indices (and so the feature count) must fit in int64
_INDEX_MAX = np.iinfo(np.int64).max
# without n_features, the feature count may reach this or the file's entry
# count, whichever is larger: a mistyped index cannot ask for d-long
# vectors of up to 9.2e18 entries
_FEATURE_BOUND = 1 << 20

# A tidy block is rows of tokens split by single spaces and colons, each
# row ending in "\n".  Its bytes that are not digits are the symbols below
# (0: any other byte); the digits between two symbols form a run.
_NL, _SP, _COLON, _DOT, _MINUS, _PLUS, _EXP, _EXP_SIGN = range(1, 9)
_SYMBOL = np.zeros(256, dtype=np.uint8)
for _chars, _sym in ((b"\n", _NL), (b" ", _SP), (b":", _COLON), (b".", _DOT),
                     (b"-", _MINUS), (b"+", _PLUS), (b"eE", _EXP)):
    _SYMBOL[list(_chars)] = _sym
# _FOLLOWS[state, symbol, run > 0]: whether symbol may come next, after a
# run of digits or none.  The state after a symbol is that symbol, except
# that a sign after an exponent mark is _EXP_SIGN.  Rows and values start
# after _NL and _COLON, so labels and values are [-+]?D(.D)?([eE][+-]?D)?
# and indices D, where D is a run.
_FOLLOWS = np.zeros((_EXP_SIGN + 1, _EXP_SIGN + 1, 2), dtype=bool)
for _states, _sym, _run in (
    ((_NL, _COLON), _MINUS, 0),
    ((_NL, _COLON), _PLUS, 0),
    ((_NL, _COLON, _MINUS, _PLUS), _DOT, 1),
    ((_NL, _COLON, _MINUS, _PLUS, _DOT), _EXP, 1),
    ((_EXP,), _MINUS, 0),
    ((_EXP,), _PLUS, 0),
    ((_NL, _COLON, _MINUS, _PLUS, _DOT, _EXP, _EXP_SIGN), _SP, 1),
    ((_NL, _COLON, _MINUS, _PLUS, _DOT, _EXP, _EXP_SIGN), _NL, 1),
    ((_SP,), _COLON, 1),
):
    _FOLLOWS[list(_states), _sym, _run] = True
# more digits than this might not be exact as a double
_INDEX_DIGITS = 15
# the reader refuses a "+" sign, and every "+" the grammar lets through is
# followed by digits, so it is read as a leading zero instead
_ONE_PER_LINE = bytes.maketrans(b" :+", b"\n\n0")
_MM_HEADER = b"%%%%MatrixMarket matrix array real general\n%d 1\n"
# held while _read_numbers has changed the reader's thread count
_READER_LOCK = threading.Lock()


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
    index above n_features, or beyond int64, is an error.  Without
    n_features, so is an index above max(_FEATURE_BOUND, entries in the
    file), since the matrix's d-long vectors would take that much memory.

    The file is read in binary blocks of whole lines (_read_block), each
    converted in bulk.  A block that holds "\r" or non-ASCII bytes, fails a
    check, or spells a number outside the bulk grammar is decoded into
    lines as text mode reads them, tidied and converted again; failing
    that, it is read by _scan_line, which names the first bad token's line
    and column.  A file whose lines end in a lone "\r" is one block."""
    limit = _INDEX_MAX if n_features is None else n_features
    blocks = [_convert_tidy(b"", limit)]  # typed empty arrays
    starts = []  # (byte offset, first line) of each block
    offset, first_line = 0, 1
    with open(path, "rb") as fh:
        while block := _read_block(fh):
            starts.append((offset, first_line))
            offset = fh.tell()
            # "\r" and non-ASCII bytes are outside the bulk grammar
            parts = _convert_tidy(block, limit)
            if parts is None:
                lines = _lines(block)
                parts = (_convert_lines(lines, block, limit)
                         or _scan_block(path, first_line, lines, n_features))
                first_line += len(lines)
            else:
                first_line += parts[1].size  # a tidy block holds a row a line
            blocks.append(parts)
        labels, counts, indices, data = map(np.concatenate, zip(*blocks))
        if n_features is None:
            n_features = int(indices.max()) + 1 if indices.size else 0
            bound = max(_FEATURE_BOUND, indices.size)
            if n_features > bound:
                # the block holding the first entry above the bound
                entry_ends = np.cumsum([p[2].size for p in blocks[1:]])
                first = int(np.argmax(indices >= bound))
                offset, line_no = starts[int(np.searchsorted(entry_ends, first, "right"))]
                fh.seek(offset)
                _scan_block(path, line_no, _lines(_read_block(fh)), None, bound)
    del blocks  # free the per-block copies before the matrix build
    indptr = np.concatenate([[0], np.cumsum(counts)])
    features = SparseRowMatrix(indptr, indices, data, (counts.size, n_features))
    return Dataset(features, labels)


def _read_block(fh):
    """The next _BLOCK_BYTES of a binary file, finished at a newline, or
    b"" at its end.  The file's last line gets a newline if it has none;
    neither a token nor its column changes."""
    block = fh.read(_BLOCK_BYTES)
    if block and not block.endswith(b"\n"):
        block += fh.readline()
        if not block.endswith(b"\n"):
            block += b"\n"
    return block


def _lines(block):
    """The lines of a block as open(path) reads them in text mode: decoded
    with the locale's encoding, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(block)).readlines()


def _convert_lines(lines, block, limit):
    """_convert_tidy of a block's decoded lines with comments, blank lines
    and runs of blanks tidied away, or None if that is not ASCII, is the
    block's own bytes (which _convert_tidy refused), or fails."""
    tidy = "".join(t + "\n" for raw in lines
                   if (t := " ".join(raw.partition("#")[0].split())))
    if not tidy.isascii():
        return None
    data = tidy.encode("ascii")
    return None if data == block else _convert_tidy(data, limit)


def _convert_tidy(data, limit):
    """(labels, per-row entry counts, 0-based indices, values) of a block of
    ASCII bytes, each line ending in "\n", or None unless the block is tidy
    and in the bulk grammar and passes every check."""
    chars = np.frombuffer(data, dtype=np.uint8)
    pos = np.flatnonzero((chars < ord("0")) | (chars > ord("9")))
    sym = _SYMBOL.take(chars.take(pos))
    run = np.diff(pos, prepend=-1) - 1  # digits before each symbol
    state = sym.copy()
    state[1:][(sym[:-1] == _EXP) & ((sym[1:] == _MINUS) | (sym[1:] == _PLUS))] = _EXP_SIGN
    prev = np.concatenate([[_NL], state[:-1]])
    # flat index into _FOLLOWS[prev, sym, run > 0]
    if not _FOLLOWS.take((prev * (_EXP_SIGN + 1) + sym) * 2 + (run > 0)).all():
        return None
    if np.any((sym == _COLON) & (run > _INDEX_DIGITS)):
        return None
    # every token ends at a separator: labels and values at a space or "\n",
    # indices at a colon
    is_end = sym <= _COLON
    ends = np.compress(is_end, pos)
    seps = np.compress(is_end, sym)
    try:
        nums = _read_numbers(data.translate(_ONE_PER_LINE), ends.size)
    except ValueError:
        return None
    # the reader reads -0, -0.0 and negative underflows as +0.0 (other
    # negatives keep their sign): a zero whose token starts with "-" is -0.0
    zeros = np.flatnonzero(nums == 0.0)
    token_starts = np.where(zeros > 0, ends.take(zeros - 1) + 1, 0)
    nums[zeros[chars.take(token_starts) == ord("-")]] = -0.0
    if not np.all(np.isfinite(nums)):
        return None
    row_ends = np.flatnonzero(seps == _NL)
    counts = np.diff(row_ends, prepend=-1) // 2
    is_label = np.zeros(nums.size, dtype=bool)
    is_label[row_ends - 2 * counts] = True
    labels = nums[is_label]
    entries = nums[~is_label]
    idx = entries[0::2].astype(np.int64)
    vals = entries[1::2]
    if idx.size and (idx.min() < 1 or idx.max() > limit):
        return None
    # entry j + 1 must exceed entry j wherever both lie in one row
    starts = np.cumsum(counts) - counts
    ascending = idx[1:] > idx[:-1]
    ascending[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not np.all(ascending):
        return None
    return labels, counts, idx - 1, vals


def _read_numbers(body, count):
    """The `count` numbers of body, one per line, as float64.  The reader
    takes the longest number that starts a line and ignores what follows,
    so body must have been checked first.  It runs on one thread: on a
    256 KiB block its threads cost more to start than they save.  scipy.io
    is imported on first use, so runs that never parse do not load it."""
    if not count:
        return np.empty(0)
    from scipy import io as sio

    stream = io.BytesIO(_MM_HEADER % count + body)
    # the reader's thread count, which threadpoolctl sets; 0 is one a CPU
    reader = getattr(sio, "_fast_matrix_market", None)
    if not hasattr(reader, "PARALLELISM"):
        return sio.mmread(stream).ravel()
    with _READER_LOCK:
        threads, reader.PARALLELISM = reader.PARALLELISM, 1
        try:
            return sio.mmread(stream).ravel()
        finally:
            reader.PARALLELISM = threads


def _scan_block(path, first_line, lines, n_features, bound=_INDEX_MAX):
    """_convert_tidy's output built one line at a time by _scan_line."""
    rows = [row for line_no, raw in enumerate(lines, first_line)
            if (row := _scan_line(path, line_no, raw, n_features, bound)) is not None]
    return (
        np.array([label for label, _, _ in rows], dtype=float),
        np.array([len(cols) for _, cols, _ in rows], dtype=np.int64),
        np.array([c for _, cols, _ in rows for c in cols], dtype=np.int64),
        np.array([v for _, _, vals in rows for v in vals], dtype=float),
    )


def _scan_line(path, line_no, raw, n_features, bound=_INDEX_MAX):
    """Parse one line token by token: None for a blank or comment-only line,
    else (label, 0-based column ids, values).  Raises ParseError naming
    `path:line:column` of the first bad token; an index above bound is one
    (parse_libsvm's feature-count bound without n_features)."""
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
        if idx > bound:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: index {idx} is above {bound}, the "
                f"largest feature count read without n_features; pass "
                f"n_features to read it"
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
