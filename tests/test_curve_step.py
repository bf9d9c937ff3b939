"""The ``--curves`` rows read through the oracle's block step, and the
dyadic tables of ``analyze`` built per depth.

``curve_block`` takes a block's hulls from ``hull_block``, the step the
oracle reads its estimates from, and reads each row's dyadic value from the
vector's table by the row's dyadic index; ``cli._curve_rows`` splits the
block's columns into each vector's rows.  The j column must equal the
materialised dyadic pieces of ``scalar_reference.j_estimate_fn`` bit for
bit on its rows, and read as a step from them (the next row at or above a
seed) at seed 1 and around the end of the last piece, 2^-(DEPTH + 1); rows
below that end, where curves of tiny data have their anchors and
breakpoints, must be written.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from coordest import analysis
from coordest.analysis import competitiveness_ratio, curve_block
from coordest.cli import _curve_rows, console_main
from coordest.estimators import DEPTH
from coordest.functions import lb_functions, rg_fn
from coordest.hull import FloatRangeError
from coordest.model import TauScheme

from conftest import builtin_functions
from scalar_reference import block_report_texts, j_estimate_fn, ref_value_at, report_text, scalar_report

FUNCTIONS = builtin_functions(3) + [rg_fn(0.5, 3), rg_fn(3.0, 3)]
SCHEMES = (TauScheme.pps(4.0, r=3), TauScheme.pps([0.5, 2.0, 8.0]))


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def block_columns(rows: np.ndarray, f, scheme):
    """The five columns of each vector of ``rows``, in order, as a (5, m)
    array: the rows of its block's one split, ``cli._curve_rows``, read
    back from their CSV lines (``repr`` writes every float to be read back
    exactly); then the error of the vector that fails, raised."""
    ids = [f"i{k}" for k in range(len(rows))]
    lines, _, error = _curve_rows(rows, lb_functions(f, rows, scheme), f, scheme, ids)
    for vector in lines:
        yield np.array([[float(x) for x in line.split(",")[1:]] for line in vector]).T
    if error is not None:
        raise error


def split_block(rows: np.ndarray, f, scheme) -> list[np.ndarray]:
    """The five columns of each vector of ``rows`` from one
    ``curve_block`` without a hull error, non-finite values too."""
    columns, ends, error = curve_block(rows, lb_functions(f, rows, scheme), f, scheme)
    assert error is None
    return np.split(columns, ends[:-1], axis=1)


def _rows(seed: int) -> np.ndarray:
    """Random vectors with some zero entries, and vectors of tiny data,
    whose hulls anchor below 2^-(DEPTH + 1)."""
    rng = np.random.default_rng(seed)
    rows = rng.lognormal(0.0, 1.0, (10, 3)) * (rng.random((10, 3)) > 0.25)
    tiny = [(1e-12, 0.0, 3e-12), (2e-15, 1e-15, 0.0), (1e-300, 2e-300, 0.0), (0.0, 5e-13, 1.0)]
    return np.vstack((rows, tiny))


@pytest.mark.parametrize("scheme", SCHEMES, ids=["common", "per-instance"])
def test_j_column_matches_the_materialised_dyadic_pieces(scheme):
    rows = _rows(61)
    end = np.ldexp(1.0, -DEPTH - 1)
    # the end of the last piece, one float either side of it, and seed 1
    seeds = np.array([np.nextafter(end, 0.0), end, np.nextafter(end, 1.0), 1.0])
    below = 0
    for f in FUNCTIONS:
        for v, (us, *_, j, _) in zip(rows.tolist(), block_columns(rows, f, scheme)):
            j_fn = j_estimate_fn(v, f, scheme, DEPTH)
            assert _bits(j) == _bits(ref_value_at(j_fn, us)), (v, f)
            # the column is a step: each seed reads the next row at or above it
            assert us[0] <= end and us[-1] == 1.0, (v, f)
            up = np.searchsorted(us, seeds, side="left")
            assert _bits(j[up]) == _bits(ref_value_at(j_fn, seeds)), (v, f)
            below += np.count_nonzero(us < end)
    assert below > len(FUNCTIONS) * 4


def test_curve_rows_end_with_the_hull_error_after_the_columns_before_it():
    # (10 - 0.5)^600 is past the largest float; (1 - 0.5)^600 is not
    scheme = TauScheme.pps(4.0, r=2)
    f = rg_fn(600.0, 2)
    rows = np.array([[1.0, 0.5], [10.0, 0.5], [1.0, 0.75]])
    columns = block_columns(rows, f, scheme)
    first = next(columns)
    alone = next(block_columns(rows[:1], f, scheme))
    assert [_bits(c) for c in first] == [_bits(c) for c in alone]
    with pytest.raises(FloatRangeError):
        next(columns)


def test_a_p600_vector_inside_a_block_ends_the_curves_after_the_rows_before_it(tmp_path, monkeypatch, capsys):
    # blocks (i0, i1, i2), (i3, i4): i1's curve passes the largest float
    monkeypatch.setattr(analysis, "CURVE_BLOCK", 3)
    rows = ["1.0,0.5", "10.0,0.5", "1.0,0.75", "0.5,0.25", "0.75,1.0"]

    def characterize(lines):
        path, curves = tmp_path / "data.csv", tmp_path / "curves.csv"
        path.write_text("item,v1,v2\n" + "".join(f"i{k},{line}\n" for k, line in enumerate(lines)))
        code = console_main(["characterize", "--input", str(path), "--function", "rg:p=600", "--curves", str(curves)])
        return code, *capsys.readouterr(), curves.read_text()

    code, out, err, curves = characterize(rows)
    assert code == 2
    assert err == "coordest: error: item 'i1': the lower bound near seed 0 passes the largest float (exponent 600)\n"
    assert [line.split('"item": ')[1][:4] for line in io.StringIO(out)] == ['"i0"']
    assert {row.split(",", 1)[0] for row in curves.splitlines()[1:]} == {"i0"}
    # the records and rows of i0 are those of i0 alone
    assert characterize(rows[:1]) == (0, out, "", curves)


@pytest.mark.parametrize("f", FUNCTIONS[:5], ids=lambda f: f.describe())
def test_dyadic_tables_are_built_per_depth_group(monkeypatch, f):
    # one vector of tiny data needs depth 1019; the rest of its block stays at DEPTH
    scheme = SCHEMES[0]
    rng = np.random.default_rng(62)
    rows = rng.lognormal(0.0, 1.0, (12, 3)) * (rng.random((12, 3)) > 0.25)
    rows[5] = (1e-300, 2e-300, 0.0)
    calls = []
    real = analysis.j_piece_tables

    def record(block, f, scheme, depth):
        calls.append((depth, len(block)))
        return real(block, f, scheme, depth)

    monkeypatch.setattr(analysis, "j_piece_tables", record)
    reports = block_report_texts(rows, f, scheme)
    assert sorted(calls) == [(DEPTH, len(rows) - 1), (1019, 1)]
    monkeypatch.undo()
    assert len(reports) == len(rows)
    for v, got in zip(rows.tolist(), reports):
        assert got == report_text(lambda: scalar_report(v, f, scheme)), (v, f)
        assert got == report_text(lambda: competitiveness_ratio(v, f, scheme)), (v, f)
