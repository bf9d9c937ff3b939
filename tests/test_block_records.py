"""The records of ``analyze`` and ``characterize``, made a block at a time.

``analysis.curve_verdicts`` reads the verdicts of a block of curves from
their head pieces and heads, and ``competitiveness_reports`` makes every
field of a block's reports as one array; ``check_estimable``,
``check_bounded`` and ``check_finite_variance`` are one-row
``curve_verdicts`` calls.  The verdicts, slopes, finite-variance values and
depths must equal the scalar ``scalar_reference.curve_checks`` and depth
rule bit for bit: numpy's array ``power`` differs from the scalar power in
the last bit on some heads at non-integer ``p``, so the slopes at 0+ take
the scalar one.

``cli.cmd_per_vector`` writes the records of a block from one ``%``
template; each line must be what ``json.dumps`` writes for the record, for
floats at the ends of the float range, ids that JSON escapes and a
function description that holds ``%``.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from coordest import cli, functions
from coordest.analysis import (
    check_bounded,
    check_estimable,
    check_finite_variance,
    competitiveness_reports,
    curve_blocks,
    curve_verdicts,
    implication_chain_ok,
    report_record,
)
from coordest.cli import main
from coordest.functions import lb_function, parse_function

from scalar_reference import curve_checks, scalar_depth
from test_corner_hulls import SCHEMES, analysis_vectors

SPECS = ("rg:p=0.5", "rg:p=1", "rg:p=1.5", "rg:p=2.5", "max", "min", "or")


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _rows(seed: int) -> np.ndarray:
    """The benchmark's analysis vectors of ``seed`` and lognormal ones of
    wider spread, about a quarter of their entries 0."""
    rng = np.random.default_rng(seed)
    wide = rng.lognormal(0.0, 2.0, (200, 3)) * (rng.random((200, 3)) > 0.25)
    return np.vstack((analysis_vectors(seed), wide))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("spec", SPECS)
def test_block_verdicts_and_depths_are_the_scalar_ones(spec, scheme):
    f, scheme = parse_function(spec, 3), SCHEMES[scheme]
    rows = _rows(401)
    slopes, depths = [], []
    for block, fvs, curves in curve_blocks(rows, f, scheme):
        verdicts, _, n, error = curve_verdicts(block, fvs, curves, scheme)
        assert (n, error) == (len(block), None)
        for k, (v, fv) in enumerate(zip(block.tolist(), fvs.tolist())):
            want = curve_checks(lb_function(f, v, scheme), fv, v, scheme)
            got = [verdicts[name][k] for name in ("estimable", "bounded", "finite_variance")]
            assert got == [c.ok for c in want], (v, spec)
            assert _bits([verdicts["estimable_gap"][k], verdicts["bounded_slope"][k]]) == \
                _bits([want[0].value, want[1].value]), (v, spec)
            # the one-row calls, the finite-variance value included
            got = [check(v, f, scheme) for check in (check_estimable, check_bounded, check_finite_variance)]
            assert [c.ok for c in got] == [c.ok for c in want], (v, spec)
            assert _bits([c.value for c in got]) == _bits([c.value for c in want]), (v, spec)
    for fields, error in competitiveness_reports(rows, f, scheme):
        assert error is None
        slopes += fields["bounded_slope"].tolist()
        depths += fields["depth"].tolist()
    for v, slope, depth in zip(rows.tolist(), slopes, depths):
        lbf, fv = lb_function(f, v, scheme), functions.evaluate(f, v)
        assert _bits(slope) == _bits(curve_checks(lbf, fv, v, scheme)[1].value), (v, spec)
        assert depth == scalar_depth(lbf, fv), (v, spec)


# floats at the ends of the range (subnormal, huge, a negative zero) among
# plain ones, ids that JSON escapes, and a description holding %
ODD_FLOATS = [5e-324, 1e-310, 1.7e308, -0.0, 1.0, 0.1, 1e16, 2.5e-8]
ODD_IDS = ['say "hi"', "back\\slash", "100%", "%s%%d", "a\x01b", "ünï", "日本", "plain"]
ODD_DESCRIPTION = 'odd "%s" 100%% \\ é'


@pytest.fixture
def odd_input(tmp_path, monkeypatch):
    """An input of the odd ids, whose vectors hold the odd floats, and a
    function that describes itself by the odd description."""
    path = tmp_path / "odd.csv"
    with path.open("w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["item", "v1", "v2", "v3"])
        for k, item in enumerate(ODD_IDS):
            writer.writerow([item, *(repr(ODD_FLOATS[(k + j) % len(ODD_FLOATS)]) for j in range(3))])
    monkeypatch.setattr(functions.ItemFunction, "describe", lambda self: ODD_DESCRIPTION)
    rows = np.array([[ODD_FLOATS[(k + j) % len(ODD_FLOATS)] for j in range(3)] for k in range(len(ODD_IDS))])
    return path, rows


def _expected(rows: np.ndarray, records: list[dict]) -> str:
    return "".join(json.dumps({"item": item, "vector": v, "function": ODD_DESCRIPTION, **record},
                              allow_nan=False) + "\n" for item, v, record in zip(ODD_IDS, rows.tolist(), records))


def test_analyze_lines_are_json_dumps(odd_input, tmp_path, monkeypatch):
    path, rows = odd_input
    n = len(ODD_IDS)
    floats = lambda shift: np.array([ODD_FLOATS[(k + shift) % len(ODD_FLOATS)] for k in range(n)])
    bounded = np.arange(n) % 3 != 1
    fields = {
        "square_integral_j": floats(0), "square_integral_opt": floats(1), "ratio": floats(2),
        "variance_j": floats(3), "variance_opt": floats(4),
        "estimable": np.arange(n) % 2 == 0, "finite_variance": np.arange(n) % 4 < 2, "bounded": bounded,
        "f_value": floats(5), "estimable_gap": floats(6),
        "bounded_slope": floats(7), "depth": np.array([40, 1073, 41, 40, 59, 40, 1000, 40]),
        "j_tail_bound": np.where(bounded, floats(1), np.nan),
    }
    # f(v) = 0.0 and -0.0: the record shape without j_tail_bound
    fields["f_value"][[0, 3]] = 0.0, -0.0
    monkeypatch.setattr(cli, "competitiveness_reports", lambda rows, f, scheme: iter([(fields, None)]))
    out = tmp_path / "out.jsonl"
    main(["analyze", "--input", str(path), "--function", "max", "--out", str(out)])
    want = _expected(rows, [report_record(fields, k) for k in range(n)])
    assert out.read_text(encoding="utf-8") == want
    # both record shapes and a null bound are there
    shapes = [json.loads(line)["diagnostics"].get("j_tail_bound", "absent") for line in want.splitlines()]
    assert "absent" in shapes and None in shapes and any(isinstance(x, float) for x in shapes)


def test_characterize_lines_are_json_dumps(odd_input, tmp_path, monkeypatch):
    path, rows = odd_input
    n = len(ODD_IDS)
    verdicts = {
        "estimable": np.arange(n) % 2 == 0, "estimable_gap": np.array(ODD_FLOATS),
        "bounded": np.arange(n) % 3 != 1, "bounded_slope": np.array(ODD_FLOATS[::-1]),
        "finite_variance": np.arange(n) % 4 < 2,
    }
    monkeypatch.setattr(cli, "curve_verdicts", lambda rows, fvs, lbfs, scheme: (verdicts, None, len(rows), None))
    out = tmp_path / "out.jsonl"
    main(["characterize", "--input", str(path), "--function", "max", "--out", str(out)])
    records = [{**{name: column[k].item() for name, column in verdicts.items()},
                "chain_ok": implication_chain_ok(*(verdicts[x][k].item() for x in
                                                   ("bounded", "finite_variance", "estimable")))}
               for k in range(n)]
    assert out.read_text(encoding="utf-8") == _expected(rows, records)
