"""Fuzzing of the CLI's input parsers: ``ingest``, ``parse_scheme``,
``parse_scheme_file`` and ``parse_query``.

Malformed input must raise ``ValueError`` with a location (the file and
row, the flag, or the file and line), never another exception type.
``ingest`` is also compared with the row-by-row loop it replaced, copied
below as the oracle: the same ids and the same matrix bits on well-formed
files, the same message on malformed ones.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordest import model
from coordest.cli import ingest, parse_query, parse_scheme, parse_scheme_file
from coordest.estimators import QUERY_KINDS
from coordest.model import PiecewiseLinearMap, TauScheme


def _row_loop_ingest(path):
    """The row-by-row ingest: ``(ids, matrix)``, or the ``ValueError``
    naming the first bad row or cell."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "item" or len(header) < 2:
            raise ValueError(f"{path}: header must be item,v1,...,vr")
        r = len(header) - 1
        ids, seen, rows = [], set(), []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != r + 1:
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {r + 1}")
            item = row[0].strip()
            if item in seen:
                raise ValueError(f"{path}: row {lineno}: duplicate item id {item!r}")
            values = []
            for col, cell in enumerate(row[1:], start=1):
                try:
                    x = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {header[col]}: bad number {cell!r}"
                    ) from None
                if not math.isfinite(x):
                    raise ValueError(
                        f"{path}: row {lineno}, column {header[col]}: non-finite value {cell!r}"
                    )
                if x < 0:
                    raise ValueError(
                        f"{path}: row {lineno}, column {header[col]}: negative value {cell}"
                    )
                values.append(x)
            ids.append(item)
            seen.add(item)
            rows.append(values)
    return tuple(ids), (np.array(rows, dtype=float) if rows else np.empty((0, r)))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# cells Python's float reads, written as a CSV author might: padded,
# signed zeros, digit separators, exponents, non-ASCII digits
good_cells = st.one_of(
    st.floats(min_value=0.0, max_value=1e300).map(repr),
    st.floats(min_value=0.0, max_value=1e6).map(lambda x: f"{x:.6g}"),
    st.sampled_from(["0", "-0.0", "-0", "1_0", "1e3", "+2.5", " 3.25 ", "\t7", "5e-324", "１２", ".5"]),
)
bad_cells = st.sampled_from(["", "abc", "nan", "-inf", "inf", "-1", "-1e-300", "0x10", "1,5", "1 2"])
ids = st.text(min_size=0, max_size=6).filter(lambda s: "\x00" not in s)
blank_rows = st.sampled_from([[], ["  "], ["", ""], [" ", " ", " "]])


@st.composite
def csv_files(draw, malformed: bool):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    names = draw(st.lists(ids.map(str.strip).filter(bool), min_size=n, max_size=n, unique=True))
    rows = [[draw(st.sampled_from([name, f" {name} "]))] + draw(st.lists(good_cells, min_size=r, max_size=r))
            for name in names]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(blank_rows))
    if malformed and rows:
        j = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "short", "long", "duplicate"]))
        if kind == "cell" and len(rows[j]) > 1:
            rows[j][draw(st.integers(1, len(rows[j]) - 1))] = draw(bad_cells)
        elif kind == "short":
            rows[j] = rows[j][:-1] or ["x"]
        elif kind == "long":
            rows[j] = rows[j] + ["1"]
        else:
            rows.append(list(rows[j]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["item", *(f"v{i + 1}" for i in range(r))])
    writer.writerows(rows)
    return buf.getvalue()


def _write(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@contextmanager
def _block_size(rows: int):
    """``ingest`` reading ``rows`` rows per block, so that small files
    cross block boundaries too."""
    saved = model.INGEST_BLOCK
    model.INGEST_BLOCK = rows
    try:
        yield
    finally:
        model.INGEST_BLOCK = saved


block_sizes = st.sampled_from([1, 2, 3, 1024])


@given(csv_files(malformed=False), block_sizes)
@settings(max_examples=150, deadline=None)
def test_ingest_matches_the_row_loop_on_well_formed_files(tmp_path_factory, text, block):
    path = _write(tmp_path_factory, text)
    want_ids, want = _row_loop_ingest(path)
    with _block_size(block):
        data = ingest(path)
    assert data.item_ids == want_ids
    assert data.matrix.shape == want.shape
    assert _bits(data.matrix) == _bits(want)


@given(st.one_of(csv_files(malformed=True), st.text(max_size=80)), block_sizes)
@settings(max_examples=300, deadline=None)
def test_ingest_errors_are_the_row_loop_errors(tmp_path_factory, text, block):
    path = _write(tmp_path_factory, text)
    want = _outcome(_row_loop_ingest, path)
    with _block_size(block):
        got = _outcome(ingest, path)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
        assert got[1].startswith(f"{path}: ")
    else:
        assert got[1].item_ids == want[1][0]
        assert _bits(got[1].matrix) == _bits(want[1][1])


def test_ingest_error_kinds_name_the_cell(tmp_path):
    cases = {
        "item,v1\na,abc\n": "row 2, column v1: bad number 'abc'",
        "item,v1\na,1\nb,nan\n": "row 3, column v1: non-finite value 'nan'",
        "item,v1,v2\n\na,1,-2\n": "row 3, column v2: negative value -2",
        "item,v1\na,1\n a ,2\n": "row 3: duplicate item id 'a'",
        "item,v1,v2\na,1\n": "row 2 has 2 fields, expected 3",
    }
    path = tmp_path / "bad.csv"
    for (text, message), block in itertools.product(cases.items(), (1, 1024)):
        path.write_text(text)
        with pytest.raises(ValueError) as got, _block_size(block):
            ingest(path)
        with pytest.raises(ValueError) as want:
            _row_loop_ingest(path)
        assert str(got.value) == str(want.value) == f"{path}: {message}"


number_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["abc", "", " ", "1_0", "-0", "0", "x", "1e999", "4", "0.5"]),
)
scheme_specs = st.one_of(
    st.text(max_size=20),
    st.builds(lambda kind, key, taus: f"{kind}:{key}={','.join(taus)}",
              st.sampled_from(["pps", "PPS", " pps", "exp", ""]),
              st.sampled_from(["tau", " tau ", "t", ""]),
              st.lists(number_tokens, max_size=4)),
)


@given(scheme_specs, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_parse_scheme_fails_only_with_the_flag(spec, r):
    try:
        scheme = parse_scheme(spec, r)
    except ValueError as exc:
        assert str(exc).startswith(f"--scheme {spec!r}: ")
    else:
        assert isinstance(scheme, TauScheme) and scheme.r == r
        assert all(m == PiecewiseLinearMap.pps(m.points[-1][1]) and math.isfinite(m.points[-1][1]) for m in scheme.maps)


query_specs = st.one_of(
    st.text(max_size=12),
    st.builds(lambda kind, sep, p: f"{kind}{sep}{p}",
              st.sampled_from(["lpp", "lp", "l1", "maxsum"]),
              st.sampled_from([":p=", ":", ":q="]),
              number_tokens),
)


@given(query_specs, st.one_of(st.none(), st.floats(0.5, 4.0), st.sampled_from([2.0, 3.0])))
@settings(max_examples=300, deadline=None)
def test_parse_query_fails_only_with_the_flag(spec, p):
    """An unknown kind is named first; then a ``--p`` that the kind does
    not take names ``--p``; any other error names ``--query``."""
    kind = spec.partition(":")[0].strip().lower()
    try:
        got_kind, got = parse_query(spec, p)
    except ValueError as exc:
        if kind not in QUERY_KINDS + ("sum",):
            assert str(exc) == f"unknown query {spec!r}"
        elif p is not None and kind not in ("lpp", "lp"):
            assert str(exc) == f"--p applies only to lpp and lp, not {kind}"
        else:
            assert str(exc).startswith(f"--query {spec!r}: ")
    else:
        assert got_kind == kind
        if kind in ("lpp", "lp"):
            assert p is None or got == p
        else:
            assert p is None and got is None


map_values = st.one_of(
    st.builds(lambda t: f"pps:{t}", number_tokens),
    st.builds(lambda pts: "pwl:" + ",".join(f"{u}:{t}" for u, t in pts),
              st.lists(st.tuples(st.sampled_from(["0", "0.5", "1", "x", "nan"]), number_tokens), max_size=4)),
    st.text(max_size=10),
)
scheme_lines = st.one_of(
    st.builds(lambda i, value: f"tau.{i} = {value}", st.sampled_from(["1", "2", "3", "x", "", "02", "1_0"]), map_values),
    st.sampled_from(["# comment", "", "   ", "foo = pps:4", "tau.1", "=", "tau.1 = pps:4 # trailing"]),
    st.text(max_size=16),
)


@given(st.lists(scheme_lines, max_size=5), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_parse_scheme_file_fails_only_with_file_and_line(lines, r):
    text = "\n".join(lines)
    try:
        scheme = parse_scheme_file(text, r, "maps.txt")
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("maps.txt: ")
        if not message.startswith("maps.txt: scheme config must define"):
            lineno = int(re.match(r"maps\.txt: line (\d+): ", message).group(1))
            assert 1 <= lineno <= len(text.splitlines())
    else:
        assert isinstance(scheme, TauScheme) and scheme.r == r
