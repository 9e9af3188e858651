import io
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd.data_io import (
    Dataset,
    ParseError,
    gen_linear_system,
    gen_skewed_dataset,
    parse_libsvm,
    read_solution,
    read_trace,
    two_level_norms,
    write_libsvm,
    write_solution,
    write_trace,
)
from nucd import data_io
from nucd.data_io import _ceil_fraction, _scan_line
from nucd.matrix import SparseRowMatrix
from nucd.solvers import ConvergenceTrace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# --- libsvm parsing ---


def _write(tmp_path, text):
    p = tmp_path / "data.libsvm"
    p.write_text(text)
    return p


def test_parse_well_formed(tmp_path):
    p = _write(
        tmp_path,
        "1.5 1:2.0 3:-0.25\n"
        "# full-line comment\n"
        "\n"
        "-1 2:1e-3   # trailing comment\n",
    )
    ds = parse_libsvm(p)
    assert ds.n == 2 and ds.d == 3
    dense = ds.features.to_dense()
    assert np.array_equal(dense, [[2.0, 0.0, -0.25], [0.0, 1e-3, 0.0]])
    assert np.array_equal(ds.labels, [1.5, -1.0])


def test_parse_feature_count_override(tmp_path):
    p = _write(tmp_path, "0 1:1\n")
    assert parse_libsvm(p, n_features=7).d == 7


def test_parse_errors_carry_position(tmp_path):
    cases = [
        ("abc 1:1\n", "1:1", "bad label"),
        ("inf 1:1\n", "1:1", "non-finite label"),
        ("1 0:2\n", "1:3", "not 1-based"),
        ("1 x:2\n", "1:3", "bad index"),
        ("1 2:1 2:3\n", "1:7", "not ascending"),
        ("1 3:1 2:3\n", "1:7", "not ascending"),
        ("1 2:zz\n", "1:3", "bad value"),
        ("1 2:nan\n", "1:3", "non-finite value"),
        ("1 2\n", "1:3", "expected idx:value"),
        ("1 5:1\n", "1:3", "out of range", 3),
        ("1 99999999999999999999:1\n", "1:3", "out of range"),
    ]
    for text, loc, msg, *n_features in cases:
        p = _write(tmp_path, text)
        with pytest.raises(ParseError) as err:
            parse_libsvm(p, *n_features)
        assert f"{p}:{loc}" in str(err.value), text
        assert msg in str(err.value), text


# corrupted label -> message; corrupted feature (given its index and the
# previous one) -> (token, message)
_BAD_LABELS = [("abc", "bad label"), ("1e", "bad label"), ("inf", "non-finite label"),
               ("nan", "non-finite label")]
_BAD_FEATURES = [
    lambda idx, prev: ("x:1", "bad index"),
    lambda idx, prev: ("1.5:1", "bad index"),
    lambda idx, prev: ("0:1", "not 1-based"),
    lambda idx, prev: (f"{idx}", "expected idx:value"),
    lambda idx, prev: (f"{idx}:1:2", "expected idx:value"),
    lambda idx, prev: (f"{idx}:zz", "bad value"),
    lambda idx, prev: (f"{idx}:-inf", "non-finite value"),
    lambda idx, prev: (f"{prev}:1", "not ascending" if prev else "not 1-based"),
]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_corrupted_token_error_names_its_position(tmp_path_factory, data):
    """Corrupt one token of a valid file: the ParseError names that token's
    line and column and the reason."""
    gap = st.text(" \t", min_size=1, max_size=3)
    lines = []  # (text, [(column, token, feature index or None)])
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            lines.append((data.draw(st.sampled_from(["", "# note", "   "])), []))
        text = data.draw(st.text(" \t", max_size=2))
        tokens = []
        label = repr(data.draw(st.floats(-5, 5)))
        tokens.append((len(text), label, None))
        text += label
        idx = 0
        for _ in range(data.draw(st.integers(0, 4))):
            idx += data.draw(st.integers(1, 3))
            tok = f"{idx}:{data.draw(st.floats(-5, 5))!r}"
            text += data.draw(gap)
            tokens.append((len(text), tok, idx))
            text += tok
        lines.append((text, tokens))
    parse_libsvm(_write(tmp_path_factory.mktemp("ok"), "\n".join(t for t, _ in lines)))

    line_no = data.draw(st.sampled_from([j for j, (_, toks) in enumerate(lines) if toks]))
    text, tokens = lines[line_no]
    k = data.draw(st.integers(0, len(tokens) - 1))
    col, tok, idx = tokens[k]
    if idx is None:
        bad, msg = data.draw(st.sampled_from(_BAD_LABELS))
    else:
        prev = tokens[k - 1][2] or 0
        bad, msg = data.draw(st.sampled_from(_BAD_FEATURES))(idx, prev)
    lines[line_no] = (text[:col] + bad + text[col + len(tok):], tokens)
    p = _write(tmp_path_factory.mktemp("bad"), "\n".join(t for t, _ in lines) + "\n")
    with pytest.raises(ParseError) as err:
        parse_libsvm(p)
    assert f"{p}:{line_no + 1}:{col + 1}:" in str(err.value)
    assert msg in str(err.value)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_libsvm_round_trip_bitwise(tmp_path_factory, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 8))
    d = data.draw(st.integers(1, 6))
    dense = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8)
    dense[rng.random((n, d)) < 0.4] = 0.0
    labels = rng.standard_normal(n)
    ds = Dataset(SparseRowMatrix.from_dense(dense), labels)
    p = tmp_path_factory.mktemp("rt") / "ds.libsvm"
    write_libsvm(ds, p)
    back = parse_libsvm(p, n_features=d)
    assert np.array_equal(back.features.to_dense(), dense)
    assert np.array_equal(back.labels, labels)


def _scan_file(path, n_features=None):
    """Reference parse: _scan_line on every line, rows stacked into CSR.
    Without n_features, an index above max(2**20, entries in the file)
    raises the ParseError _scan_line gives the first one at that bound."""
    with open(path) as fh:
        lines = list(enumerate(fh, 1))
    rows = [row for line_no, raw in lines
            if (row := _scan_line(path, line_no, raw, n_features)) is not None]
    cols = [c for _, row_cols, _ in rows for c in row_cols]
    bound = max(2**20, len(cols))
    if n_features is None and max(cols, default=-1) >= bound:
        for line_no, raw in lines:
            _scan_line(path, line_no, raw, None, bound)
    indptr = np.cumsum([0] + [len(row_cols) for _, row_cols, _ in rows])
    d = n_features if n_features is not None else max(cols, default=-1) + 1
    return (indptr, np.array(cols, dtype=np.int64),
            np.array([v for _, _, vals in rows for v in vals]),
            np.array([label for label, _, _ in rows]), d)


def _assert_same_parse(ds, ref):
    indptr, indices, data, labels, d = ref
    f = ds.features
    assert np.array_equal(f.indptr, indptr)
    assert np.array_equal(f.indices, indices)
    for got, want in ((f.data, data), (ds.labels, labels)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert f.d == d


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                              "\u0665\u0666\u0667\u0668\u0669")


def _spellings(digits):
    """Ways to write the unsigned integer `digits` that int() and float()
    read as the same number."""
    out = [digits, "00" + digits, digits.translate(_ARABIC_INDIC)]
    if len(digits) > 1:
        out.append(digits[0] + "_" + digits[1:])
    return out


@st.composite
def _number(draw):
    body = draw(st.sampled_from([
        *_spellings(str(draw(st.integers(0, 120)))),
        repr(abs(draw(st.floats(-1e6, 1e6)))),
        "0", "0.0", "1_0.5", "\u0661.\u0665", "2.5e-3",
    ]))
    return draw(st.sampled_from(["", "+", "-"])) + body


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_parse_matches_line_scanner(tmp_path_factory, data):
    """Valid files with blank lines, comments, tabs, form feeds, CRLF line
    ends, signed and zero-padded indices, underscores and Unicode digits:
    the block parser equals a row-by-row build from _scan_line."""
    gap = st.text(" \t\x0c", min_size=1, max_size=3)
    lines = []
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(["data", "data", "blank", "comment"]))
        if kind == "blank":
            text = data.draw(st.text(" \t\x0c", max_size=3))
        elif kind == "comment":
            text = data.draw(st.text(" \t", max_size=2)) + "# note 1:2"
        else:
            text = data.draw(st.text(" \t\x0c", max_size=2))
            text += data.draw(_number())
            idx = 0
            for _ in range(data.draw(st.integers(0, 5))):
                idx += data.draw(st.integers(1, 40))
                spelled = data.draw(st.sampled_from(_spellings(str(idx))))
                sign = data.draw(st.sampled_from(["", "+"]))
                text += data.draw(gap) + f"{sign}{spelled}:{data.draw(_number())}"
            if data.draw(st.booleans()):
                text += data.draw(gap) + "#tail"
        lines.append(text + data.draw(st.sampled_from(["\n", "\r\n"])))
    p = tmp_path_factory.mktemp("diff") / "data.libsvm"
    p.write_text("".join(lines), newline="")
    _assert_same_parse(parse_libsvm(p), _scan_file(p))
    d = max(data.draw(st.integers(0, 210)), parse_libsvm(p).d)
    _assert_same_parse(parse_libsvm(p, n_features=d), _scan_file(p, d))


# spellings the bulk path takes, among them the two whose sign the reader
# drops (-0, negative underflow) and "+"-signed ones, which it refuses
_FAST_NUMBERS = ["0", "-0", "-0.0", "1", "+1", "+0", "+2.5e-3", "+1E+5",
                 "-2.5e-3", "1E+5", "1e5", "7e-06",
                 "5e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308",
                 "1.7976931348623157e308", "-1e-400", "0000012.5", "1" + "0" * 30]
# the reader's quirks: tokens it reads as a prefix ("1e" as 1.0, "0x10" as
# 0.0), reads as non-finite, or refuses; what only Python's float() reads;
# then, for each state of the bulk grammar (a number's start, after its
# sign, its point, its exponent mark and the exponent's sign), the
# characters that may not follow it
_QUIRK_NUMBERS = [
    "1e", "1.2.3", "12abc", "0x10", "1_000", "1..2", "1e5e5", "inf", "-inf", "nan",
    "1e400", "-1e+400", "+1e400", ".5", "1.", "\u0661.\u0665",
    "", "e5", "1-2", "1+2", "1:2",
    "-", "--1", "-+1", "-.5", "-e5", "-1-1", "-1+1",
    "+", "++1", "+-1", "+.5", "+e5", "+1-1", "+1+1",
    "1.e5", "1.-5", "1.5-5", "1.+5", "1.5+5", "1.5.5",
    "1ee5", "1e.5", "1e5.5", "1e5-5", "1e5+5",
    "1e-", "1e+", "1e--5", "1e-+5", "1e-.5", "1e-5.5", "1e-e5", "1e-5e5", "1e-5-5",
    "1e+5+5",
]


def _index_spellings(idx):
    """Spellings of index idx that only int() takes, ones it refuses, and
    an index past 2**53, which a double cannot hold."""
    digits = str(idx)
    return [digits.zfill(16), "+" + digits, "-" + digits, "0_" + digits,
            digits.translate(_ARABIC_INDIC), digits + "e0", digits + ".0",
            "0x" + digits, "", str(2**53 + 2 * idx + 1)]


def _assert_parses_like_scanner(path):
    """parse_libsvm(path) equals the _scan_line build, sign bits included,
    or raises the same ParseError."""
    try:
        want = _scan_file(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_libsvm(path)
        assert str(err.value) == str(exc), path.read_text()
    else:
        _assert_same_parse(parse_libsvm(path), want)


def test_each_reader_quirk_parses_like_line_scanner(tmp_path):
    """Every quirk as a label and as a value, and every index spelling, on
    a row between rows of fast spellings in one block."""
    fast = ["-0 3:-0.0 7:5e-324 8:1e5", "+1 1:+2.5 4:-1 6:+0",
            "1E+5 2:0000012.5 9:-4.9406564584124654e-324"]
    rows = [row for q in _QUIRK_NUMBERS for row in (f"{q} 1:1", f"2 4:{q}")]
    rows += [f"0 1:1 {idx}:2" for idx in _index_spellings(3)]
    for i, row in enumerate(rows):
        p = tmp_path / f"quirk{i}.libsvm"
        p.write_text("\n".join(fast + [row] + fast) + "\n")
        _assert_parses_like_scanner(p)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_reader_quirks_parse_like_line_scanner(tmp_path_factory, data):
    """Rows of spellings the bulk reader takes, with some tokens (labels,
    indices or values) swapped for a quirk of the reader or any string of
    number characters, read in blocks of one line, a few lines or all:
    parse_libsvm equals the _scan_line build, sign bits included, or raises
    the same ParseError."""
    fast = st.one_of(st.sampled_from(_FAST_NUMBERS),
                     st.floats(allow_nan=False, allow_infinity=False).map(
                         lambda x: f"{x:.17g}"))
    rows = []  # each row: [label, index, value, index, value, ...]
    for _ in range(data.draw(st.integers(1, 8))):
        row = [data.draw(fast)]
        idx = 0
        for _ in range(data.draw(st.integers(0, 4))):
            idx += data.draw(st.integers(1, 30))
            row += [data.draw(st.sampled_from([str(idx), "00" + str(idx)])), data.draw(fast)]
        rows.append(row)
    spots = [(r, k) for r, row in enumerate(rows) for k in range(len(row))]
    for r, k in data.draw(st.lists(st.sampled_from(spots), max_size=3, unique=True)):
        quirks = (st.sampled_from(_index_spellings(int(rows[r][k]))) if k % 2 else
                  st.one_of(st.sampled_from(_QUIRK_NUMBERS), st.text("01.-+eE", max_size=7)))
        rows[r][k] = data.draw(quirks)
    lines = [row[0] + "".join(f" {i}:{v}" for i, v in zip(row[1::2], row[2::2]))
             for row in rows]
    p = tmp_path_factory.mktemp("quirks") / "data.libsvm"
    p.write_text("\n".join(lines) + data.draw(st.sampled_from(["\n", ""])))
    block_bytes = data.draw(st.sampled_from([1, 64, data_io._BLOCK_BYTES]))
    with mock.patch.object(data_io, "_BLOCK_BYTES", block_bytes):
        _assert_parses_like_scanner(p)


def test_only_blocks_outside_the_grammar_reach_the_scanner(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    rows = []
    for i in range(60):
        cols = np.sort(rng.choice(50, size=4, replace=False)) + 1
        vals = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 8, size=4)
        # labels alternate between the benchmark's reprs and the +1/-1 of
        # binary classification files
        label = "%.17g" % rng.standard_normal() if i % 2 else "%+d" % rng.choice([-1, 1])
        rows.append(label + " " + " ".join("%d:%.17g" % cv for cv in zip(cols, vals)))
    monkeypatch.setattr(data_io, "_BLOCK_BYTES", 200)
    scanned = []
    monkeypatch.setattr(data_io, "_scan_line", lambda *a: scanned.append(a[1]) or _scan_line(*a))
    # one space between tokens, "\n" ends each row
    plain = tmp_path / "plain.libsvm"
    plain.write_text("\n".join(rows) + "\n")
    blocks = _blocks(plain)
    assert len(blocks) > 10
    _assert_same_parse(parse_libsvm(plain), _scan_file(plain))
    # comments, tabs, form feeds, runs of blanks and blank lines
    messy = tmp_path / "messy.libsvm"
    messy.write_text("".join(
        " \t".join(row.split(" ")) + ("  # tail" if i % 3 else "\x0c")
        + ("\n\n# note\n" if i % 5 == 0 else "\n") for i, row in enumerate(rows)))
    _assert_same_parse(parse_libsvm(messy), _scan_file(messy))
    assert not scanned
    # one underscore spelling (its row's first index becomes 0_idx) sends its
    # block, and only that block, to the scanner
    k = len(blocks) // 2
    first = sum(map(len, blocks[:k])) + 1
    rows[first - 1] = rows[first - 1].replace(" ", " 0_", 1)
    underscored = tmp_path / "underscored.libsvm"
    underscored.write_text("\n".join(rows) + "\n")
    assert list(map(len, _blocks(underscored))) == list(map(len, blocks))
    _assert_same_parse(parse_libsvm(underscored), _scan_file(underscored))
    assert scanned == list(range(first, first + len(blocks[k])))


def test_import_loads_neither_optimizer_nor_reader():
    """scipy.optimize (about 19 MB resident) and scipy.io load only when a
    penalty reference or a parse first needs them."""
    code = ("import sys, nucd, nucd.cli; "
            "print(sorted({'scipy.optimize', 'scipy.io'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.split() == ["[]"]


def _many_block_file(tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    for i in range(40):
        cols = np.sort(rng.choice(9, size=3, replace=False)) + 1
        vals = rng.standard_normal(3).tolist()
        lines.append(f"{i % 3 - 1} " + " ".join(f"{c}:{v!r}" for c, v in zip(cols, vals)))
        if i % 7 == 0:
            lines.append("# comment")
    return _write(tmp_path, "\n".join(lines) + "\n")


def _blocks(path):
    with open(path) as fh:
        return list(iter(lambda: fh.readlines(data_io._BLOCK_BYTES), []))


def test_small_blocks_parse_like_one_block(tmp_path, monkeypatch):
    p = _many_block_file(tmp_path)
    whole = parse_libsvm(p, n_features=9)
    scanned = []
    monkeypatch.setattr(data_io, "_BLOCK_BYTES", 40)
    monkeypatch.setattr(data_io, "_scan_line", lambda *a: scanned.append(a) or _scan_line(*a))
    assert len(_blocks(p)) > 10
    small = parse_libsvm(p, n_features=9)
    assert not scanned  # valid blocks never reach the per-token scanner
    _assert_same_parse(small, _scan_file(p, 9))
    _assert_same_parse(whole, _scan_file(p, 9))


def test_error_in_third_block_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(data_io, "_BLOCK_BYTES", 40)
    lines = [f"{i % 10} 1:0.5 2:-1.25 3:2" for i in range(12)]
    blocks = _blocks(_write(tmp_path, "\n".join(lines) + "\n"))
    first = len(blocks[0]) + len(blocks[1]) + 1  # the third block's first line
    assert len(blocks[2]) >= 2
    lines[first] = lines[first].replace("-1.25", "zzzzz")  # same length
    p = _write(tmp_path, "\n".join(lines) + "\n")
    scanned = []
    monkeypatch.setattr(data_io, "_scan_line", lambda *a: scanned.append(a[1]) or _scan_line(*a))
    with pytest.raises(ParseError) as err:
        parse_libsvm(p)
    assert str(err.value) == f"{p}:{first + 1}:9: bad value 'zzzzz'"
    # only the failing block is rescanned, up to the bad line
    assert scanned == [first, first + 1]


# rows of bulk spellings, among them signed zeros and a negative underflow
_SIGNED_ROWS = ["-0 3:-0.0 7:5e-324 8:1e5", "+1 1:+2.5 4:-1 6:+0",
                "1E+5 2:0000012.5 9:-4.9406564584124654e-324", "2.5 1:-1e-400 2:3"]


def _binary_reader_cases():
    """(name, file text) pairs: line ends and bytes the binary blocks must
    decode as text mode does, and a line longer than a block."""
    rows = _SIGNED_ROWS * 3
    long_row = "1 " + " ".join(f"{i}:{i / 7!r}" for i in range(1, 30_001))
    assert len(long_row) > data_io._BLOCK_BYTES
    return [
        ("crlf", "\r\n".join(rows) + "\r\n"),
        ("lone-cr", "".join(row + ("\r" if i % 3 else "\n") for i, row in enumerate(rows))),
        ("utf8-comment", "# données: é\n" + "\n".join(rows) + "  # naïve\n"),
        ("no-final-newline", "\n".join(rows)),
        ("long-line", "\n".join(_SIGNED_ROWS + [long_row] + _SIGNED_ROWS) + "\n"),
    ]


@pytest.mark.parametrize("block_bytes", [1, 64, data_io._BLOCK_BYTES])
@pytest.mark.parametrize("name, text", _binary_reader_cases(),
                         ids=[name for name, _ in _binary_reader_cases()])
def test_binary_blocks_parse_like_line_scanner(tmp_path, monkeypatch, name, text, block_bytes):
    """Each file equals the _scan_line build of text mode's lines, sign
    bits included; with a bad value on its last row it raises _scan_line's
    error, so every block before it counted its lines as text mode does."""
    monkeypatch.setattr(data_io, "_BLOCK_BYTES", block_bytes)
    p = tmp_path / "data.libsvm"
    p.write_bytes(text.encode("utf-8"))
    _assert_same_parse(parse_libsvm(p), _scan_file(p))
    last = text.rstrip("\r\n").rfind("1:")
    bad = tmp_path / "bad.libsvm"
    bad.write_bytes((text[:last] + "1:zz" + text[last + 3:]).encode("utf-8"))
    with pytest.raises(ParseError, match="bad value 'zz") as err:
        _scan_file(bad)
    with pytest.raises(ParseError) as got:
        parse_libsvm(bad)
    assert str(got.value) == str(err.value)


def test_reader_runs_on_one_thread_and_restores_its_setting(monkeypatch):
    """_read_numbers sets the reader's thread count to 1 for its call and
    puts the old value back, also when the reader raises; without the
    setting, or without the module holding it, it makes the plain call."""
    from scipy import io as sio

    fmm = sio._fast_matrix_market
    mmread = sio.mmread
    monkeypatch.setattr(fmm, "PARALLELISM", 3)
    seen = []
    monkeypatch.setattr(sio, "mmread", lambda src: seen.append(fmm.PARALLELISM) or mmread(src))
    assert data_io._read_numbers(b"1.5\n-2\n", 2).tolist() == [1.5, -2.0]
    assert seen == [1] and fmm.PARALLELISM == 3

    def fails(src):
        raise ValueError("reader failed")

    monkeypatch.setattr(sio, "mmread", fails)
    with pytest.raises(ValueError, match="reader failed"):
        data_io._read_numbers(b"1\n", 1)
    assert fmm.PARALLELISM == 3
    # the real reader reads its module's PARALLELISM, so stand in for it
    monkeypatch.setattr(sio, "mmread", lambda src: np.loadtxt(src, skiprows=2)[:, None])
    monkeypatch.delattr(fmm, "PARALLELISM")
    assert data_io._read_numbers(b"4\n5e-1\n", 2).tolist() == [4.0, 0.5]
    assert not hasattr(fmm, "PARALLELISM")
    monkeypatch.undo()
    monkeypatch.delattr(sio, "_fast_matrix_market")
    assert data_io._read_numbers(b"4\n5e-1\n", 2).tolist() == [4.0, 0.5]


def test_feature_count_is_bounded_without_n_features(tmp_path):
    """A mistyped index above 2**20 (and above the file's entry count) is an
    error naming its line and column and suggesting n_features, which
    accepts it."""
    p = _write(tmp_path, "1 1:1\n# note\n0 1:1 9007199254740999:2\n2 3:4 99999999:1\n")
    with pytest.raises(ParseError) as err:
        parse_libsvm(p)
    assert str(err.value) == (
        f"{p}:3:7: index 9007199254740999 is above 1048576, the largest feature "
        "count read without n_features; pass n_features to read it")
    assert parse_libsvm(p, n_features=2**53 + 7).d == 2**53 + 7
    assert parse_libsvm(_write(tmp_path, "1 1048576:1\n")).d == 2**20


def test_feature_bound_grows_with_the_entry_count(tmp_path, monkeypatch):
    """The bound is max(_FEATURE_BOUND, entries in the file); the first
    index above it is named, in whichever block holds it."""
    monkeypatch.setattr(data_io, "_FEATURE_BOUND", 4)
    monkeypatch.setattr(data_io, "_BLOCK_BYTES", 8)
    lines = [f"{i % 2} 1:0.5 2:-1.25 3:2" for i in range(12)]  # 36 entries
    p = _write(tmp_path, "\n".join(lines + ["1 36:1"]) + "\n")
    assert parse_libsvm(p).d == 36
    # 36 entries, so the bound is 36; a block is a line, and the first
    # index above the bound is its block's first entry
    lines[7] = "1 40:1 41:2"
    lines[9] += " 42:1"
    p = _write(tmp_path, "\n".join(lines) + "\n")
    assert len(_blocks(p)) == len(lines)
    with pytest.raises(ParseError) as err:
        parse_libsvm(p)
    assert str(err.value).startswith(f"{p}:8:3: index 40 is above 36, ")


# --- generators ---


def test_ceil_fraction_float_guard():
    assert _ceil_fraction(0.1, 300) == 30  # 0.1*300 is 30+2e-15 in doubles
    assert _ceil_fraction(0.3, 10) == 3
    assert _ceil_fraction(0.31, 10) == 4
    assert _ceil_fraction(1.0, 7) == 7
    assert _ceil_fraction(0.0, 7) == 0


def test_two_level_norms_counts():
    out = two_level_norms(10, 0.25, hi=5.0, lo=0.5)
    assert np.sum(out == 5.0) == 3 and np.sum(out == 0.5) == 7


def test_gen_linear_system_contract():
    m, n, r = 40, 12, 0.3
    a, b, x_star = gen_linear_system(m, n, r, seed=11)
    dense = a.to_dense()
    assert dense.shape == (m, n) and b.shape == (m,) and x_star.shape == (n,)
    norms = np.linalg.norm(dense, axis=1)
    assert np.sum(np.abs(norms - 10.0) < 1e-12) == 12  # ceil(0.3*40)
    assert np.sum(np.abs(norms - 1.0) < 1e-12) == 28
    assert np.max(np.abs(dense @ x_star - b)) < 1e-12
    assert np.linalg.matrix_rank(dense) == n
    # determinism in the seed, variation across seeds
    a2, b2, x2 = gen_linear_system(m, n, r, seed=11)
    assert np.array_equal(a.to_dense(), a2.to_dense())
    assert np.array_equal(b, b2) and np.array_equal(x_star, x2)
    a3, _, _ = gen_linear_system(m, n, r, seed=12)
    assert not np.array_equal(a.to_dense(), a3.to_dense())


def test_gen_linear_system_validation():
    with pytest.raises(ValueError):
        gen_linear_system(5, 6, 0.5)
    with pytest.raises(ValueError):
        gen_linear_system(6, 5, 1.5)
    with pytest.raises(ValueError):
        gen_linear_system(6, 5, 0.5, hi=-1.0)


def test_gen_skewed_dataset_norms_exact():
    profile = two_level_norms(30, 0.2, hi=7.0, lo=2.0)
    ds = gen_skewed_dataset(30, 6, profile, seed=4)
    norms = np.linalg.norm(ds.features.to_dense(), axis=1)
    assert np.max(np.abs(norms - profile)) < 1e-12
    assert ds.labels.shape == (30,)
    with pytest.raises(ValueError):
        gen_skewed_dataset(5, 3, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        gen_skewed_dataset(2, 3, np.array([1.0, -2.0]))


# --- trace and solution files ---


def _trace(algo, seed, units, iters, values, dists):
    return ConvergenceTrace(
        algo=algo,
        seed=seed,
        units_per_epoch=units,
        iters=np.asarray(iters, dtype=np.int64),
        values=np.asarray(values, dtype=float),
        dists=np.asarray(dists, dtype=float),
    )


def test_trace_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    t1 = _trace("nu-acdm", 3, 5, [0, 5, 10], rng.standard_normal(3) * 1e-7, rng.random(3))
    t2 = _trace("kaczmarz", 0, 7, [0, 7], [1.0, 1e-300], [math.nan, math.nan])
    p = tmp_path / "trace.csv"
    write_trace([t1, t2], p)
    back = read_trace(p)
    assert [t.algo for t in back] == ["nu-acdm", "kaczmarz"]
    for orig, rt in zip([t1, t2], back):
        assert rt.seed == orig.seed
        assert rt.units_per_epoch == orig.units_per_epoch
        assert np.array_equal(rt.iters, orig.iters)
        assert np.array_equal(rt.values, orig.values)
        assert np.array_equal(rt.dists, orig.dists, equal_nan=True)


def test_trace_write_accepts_file_object():
    t = _trace("rcdm", 1, 2, [0, 2], [3.0, 1.0], [0.5, 0.25])
    buf = io.StringIO()
    write_trace([t], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "algo,seed,iter,epoch,value,dist_to_min"
    assert lines[1] == "rcdm,1,0,0,3,0.5"
    assert lines[2] == "rcdm,1,2,1,1,0.25"


def test_trace_read_rejects_bad_files(tmp_path):
    header = "algo,seed,iter,epoch,value,dist_to_min"
    cases = [
        ("wrong,header\n", "expected header"),
        (header + "\nrcdm,1,0,0,1\n", "expected 6 fields"),
        (header + "\nrcdm,x,0,0,1,1\n", ":2"),
        (header + "\nrcdm,1,5,1,1,1\nrcdm,1,5,1,1,1\n", "not strictly increasing"),
        (header + "\nrcdm,1,0,0,1,1\nrcdm,1,4,1,1,1\nrcdm,1,8,3,1,1\n", "inconsistent"),
    ]
    for text, msg in cases:
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_trace(p)
        assert msg in str(err.value), text


def test_solution_round_trip(tmp_path):
    x = np.array([1.0, -2.5e-17, 3e200, 0.1])
    p = tmp_path / "x.soln"
    write_solution(x, p)
    assert np.array_equal(read_solution(p), x)
