"""Tests of the benchmark's own output checks: they pass on genuine CLI
output and reject each kind of corrupted output.

    python3 -m pytest coordbench/test_checks.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from coordest import cli  # noqa: E402
from coordest.samplers import read_samples  # noqa: E402
from workloads import INLINE_SCHEME, TAU, Inputs, Op, argv_for, output_paths  # noqa: E402

N, R = 300, 3
IDS = gen.item_ids(N)
OPS = [
    Op("sample", "sample"),
    Op("exact-l1", "exact", query="l1", estimator="exact"),
    Op("j-lpp", "single", query="lpp:p=2", estimator="j"),
    Op("j-jaccard", "single", query="jaccard", estimator="j"),
    Op("ht-minsum", "single", query="minsum", estimator="ht"),
    Op("ht-distinct", "single", query="distinct", estimator="ht"),
    Op("bottomk-pps-ht", "bottomk", query="sum", estimator="ht", k=20, rank="pps"),
    Op("bottomk-pps-j", "bottomk", query="sum", estimator="j", k=20, rank="pps"),
    Op("bottomk-exp-ht", "bottomk", query="distinct", estimator="ht", k=20, rank="exp"),
    Op("mc-maxsum", "mc", query="maxsum", estimator="j", reps=400),
    Op("mc-jaccard", "mc", query="jaccard", estimator="ht", reps=400),
    Op("analyze-osrg", "analyze", function="one_sided_rg:p=1,hi=3,lo=1", scheme="file", items=tuple(IDS[:6])),
    Op("characterize-rg2", "characterize", function="rg:p=2", items=tuple(IDS[:3])),
]
BY_NAME = {op.name: op for op in OPS}


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """One round of genuine outputs and the check context."""
    root = tmp_path_factory.mktemp("round")
    X = gen.make_matrix(N, R, seed=7)
    csv_path, scheme_file = gen.write_inputs(X, root / "inputs")
    inp = Inputs(csv_path, scheme_file, salt=11)
    outdir = root / "out"
    outdir.mkdir()
    for op in OPS:
        assert cli.main(argv_for(op, inp, outdir)) == 0, op.name
    return X, outdir


def _context(X) -> checks.Context:
    return checks.Context(IDS, X, read_samples, cli.parse_scheme(INLINE_SCHEME, R))


def _corrupt(genuine, tmp_path, name: str, edit) -> Path:
    """Copy the round, apply ``edit(records)`` to one op's records in place."""
    _, outdir = genuine
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    path = output_paths(BY_NAME[name], copy)["out"]
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return copy


def _check(genuine, outdir: Path, name: str) -> None:
    X, _ = genuine
    ctx = _context(X)
    checks.check_sample(output_paths(BY_NAME["sample"], outdir)["out"], ctx)
    checks.check_op(BY_NAME[name], outdir, ctx)


def test_genuine_outputs_pass(genuine):
    X, outdir = genuine
    assert checks.check_round(OPS, outdir, _context(X), failed=set()) == []


@pytest.mark.parametrize("name", ["exact-l1", "j-lpp", "j-jaccard", "ht-minsum", "ht-distinct",
                                  "bottomk-pps-ht", "bottomk-pps-j", "bottomk-exp-ht"])
def test_estimate_off_by_1e6_relative_is_rejected(genuine, tmp_path, name):
    def edit(recs):
        recs[0]["value"] *= 1.0 + 1e-6

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, name, edit), name)


def test_jaccard_component_off_is_rejected(genuine, tmp_path):
    def edit(recs):
        recs[0]["minsum"] *= 1.0 + 1e-6

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "j-jaccard", edit), "j-jaccard")


@pytest.mark.parametrize("known", [True, False])
def test_flipped_sample_slot_is_rejected(genuine, tmp_path, known):
    X, _ = genuine

    def edit(recs):
        for j, rec in enumerate(recs):
            for i, slot in enumerate(rec["slots"]):
                if ("known" in slot) == known and X[j, i] > 0:
                    rec["slots"][i] = {"unknown_ub": rec["seed"] * TAU} if known else {"known": X[j, i]}
                    return
        raise AssertionError("no slot to flip")

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "sample", edit), "sample")


def test_ratio_above_84_is_rejected(genuine, tmp_path):
    def edit(recs):
        recs[2]["ratio"] = 84.5

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "analyze-osrg", edit), "analyze-osrg")


def test_wrong_f_value_is_rejected(genuine, tmp_path):
    def edit(recs):
        recs[1]["diagnostics"]["f_value"] += 1e-6

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "analyze-osrg", edit), "analyze-osrg")


@pytest.mark.parametrize("name,field", [("j-lpp", "value"), ("mc-maxsum", "stderr"),
                                        ("analyze-osrg", "square_integral_j")])
def test_nan_in_a_record_is_rejected(genuine, tmp_path, name, field):
    def edit(recs):
        recs[0][field] = float("nan")

    with pytest.raises(checks.CheckError, match="non-JSON"):
        _check(genuine, _corrupt(genuine, tmp_path, name, edit), name)


def test_mc_mean_beyond_five_standard_errors_is_rejected(genuine, tmp_path):
    X, _ = genuine
    exact = float(X.max(axis=1).sum())

    def edit(recs):
        recs[0]["value"] = exact + 5.5 * recs[0]["stderr"]

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "mc-maxsum", edit), "mc-maxsum")


def test_jaccard_outside_unit_interval_is_rejected(genuine, tmp_path):
    def edit(recs):
        recs[0]["value"] = 1.0 + 1e-9

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "mc-jaccard", edit), "mc-jaccard")


def test_bottomk_wrong_member_is_rejected(genuine, tmp_path):
    def edit(recs):
        recs[0]["members"][-1]["item"] = next(i for i in IDS if i not in {m["item"] for m in recs[0]["members"]})

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "bottomk-exp-ht", edit), "bottomk-exp-ht")


def test_broken_chain_is_rejected(genuine, tmp_path):
    def edit(recs):
        recs[0]["chain_ok"] = False

    with pytest.raises(checks.CheckError):
        _check(genuine, _corrupt(genuine, tmp_path, "characterize-rg2", edit), "characterize-rg2")


def test_j_formula_matches_the_package_per_item(genuine):
    """The numpy dyadic estimate agrees with ``j_estimate`` item by item."""
    from coordest.estimators import j_estimate
    from coordest.functions import rg_fn

    X, outdir = genuine
    ctx = _context(X)
    checks.check_sample(output_paths(BY_NAME["sample"], outdir)["out"], ctx)
    with output_paths(BY_NAME["sample"], outdir)["out"].open() as fp:
        outcomes = read_samples(fp, ctx.scheme)
    ours = checks.j_estimates("rg", 2.0, X, ctx.seeds, TAU)
    theirs = np.array([j_estimate(outcomes[i], rg_fn(2.0, R)) for i in IDS])
    np.testing.assert_allclose(ours, theirs, rtol=1e-13, atol=0)
