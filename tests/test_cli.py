from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import coordest
from coordest import cli
from coordest.cli import (
    MAX_REPS,
    build_parser,
    console_main,
    ingest,
    main,
    parse_scheme,
    parse_scheme_file,
    resolve_items,
)
from coordest.model import PiecewiseLinearMap
from coordest.samplers import read_samples

DEMO_CSV = Path(__file__).resolve().parent.parent / "data" / "demo_two_instances.csv"


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in output")


@pytest.fixture()
def demo_csv(tmp_path) -> Path:
    return DEMO_CSV


class TestIngest:
    def test_demo_file(self):
        data = ingest(DEMO_CSV)
        assert data.n_items == 8 and data.r == 2
        assert data.vector("1") == (1.0, 3.0)

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("item,v1,v2\n")
        data = ingest(p)
        assert data.n_items == 0 and data.r == 2

    def test_negative_value_names_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("item,v1,v2\na,1,2\nb,-1,0\n")
        with pytest.raises(ValueError, match=r"row 3, column v1"):
            ingest(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("item,v1\na,1\na,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("item,v1,v2\na,1\n")
        with pytest.raises(ValueError, match="row 2"):
            ingest(p)

    def test_bad_number(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("item,v1\na,abc\n")
        with pytest.raises(ValueError, match="bad number"):
            ingest(p)


    def test_non_finite_values_name_the_cell(self, tmp_path):
        p = tmp_path / "nonfinite.csv"
        p.write_text("item,v1,v2\na,1.0,nan\nb,2.0,inf\nc,0.5,1.5\n")
        with pytest.raises(ValueError, match=r"row 2, column v2: non-finite value 'nan'"):
            ingest(p)
        p.write_text("item,v1,v2\nb,2.0,inf\nc,0.5,1.5\n")
        with pytest.raises(ValueError, match=r"row 2, column v2: non-finite value 'inf'"):
            ingest(p)

    @pytest.mark.parametrize("estimator", ["j", "exact"])
    def test_non_finite_input_never_answers(self, tmp_path, capsys, estimator):
        p = tmp_path / "nonfinite.csv"
        p.write_text("item,v1,v2\na,1.0,nan\nb,2.0,inf\nc,0.5,1.5\n")
        with pytest.raises(ValueError, match="non-finite"):
            main(["estimate", "--input", str(p), "--query", "l1", "--estimator", estimator])
        assert capsys.readouterr().out == ""


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's coordest."""
    src = str(Path(coordest.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestErrorReporting:
    def test_module_prints_one_error_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("item,v1,v2\na,1.0,nan\nb,2.0,inf\nc,0.5,1.5\n")
        proc = _python("-m", "coordest", "estimate", "--input", str(p), "--query", "l1", "--estimator", "j")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"coordest: error: {p}: row 2, column v2: non-finite value 'nan'\n"

    def test_missing_input_prints_one_error_line(self, tmp_path):
        p = tmp_path / "missing.csv"
        proc = _python("-m", "coordest", "estimate", "--input", str(p), "--query", "l1", "--estimator", "j")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"coordest: error: [Errno 2] No such file or directory: '{p}'\n"

    def test_main_raises_on_missing_input(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["estimate", "--input", str(tmp_path / "missing.csv"), "--query", "l1", "--estimator", "j"])

    def test_reps_past_the_bound_fails_before_anything_is_allocated(self, capsys):
        # 10^9 salts once ended in a numpy memory error; the bound is
        # checked before the input is read, so the run allocates next to
        # nothing (tracemalloc sees numpy's buffers too)
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "l1", "--estimator", "j", "--reps", "1000000000"]
        tracemalloc.start()
        try:
            code = console_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"coordest: error: --reps must be at most {MAX_REPS} (1 GiB of salts and sums), got 1000000000\n"
        assert peak < 2**20
        # 8 bytes a salt for the salts, their mixed form and two sums
        assert 4 * 8 * MAX_REPS == 2**30
        # the bound itself passes the check: the run goes on to read the input
        missing = DEMO_CSV.parent / "missing.csv"
        assert console_main([*argv[:2], str(missing), *argv[3:-1], str(MAX_REPS)]) == 2
        assert capsys.readouterr().err == f"coordest: error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_grid_n_is_gone(self, capsys):
        # every hull is exact: no flag sets a grid
        for command, flags in (("estimate", ["--query", "l1"]), ("analyze", ["--function", "rg:p=2"]),
                               ("characterize", ["--function", "rg:p=2"])):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", str(DEMO_CSV), *flags, "--grid-n", "64"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --grid-n 64" in capsys.readouterr().err

    def test_cli_import_leaves_scipy_out(self):
        proc = _python("-c", "import sys, coordest.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_console_main_returns_usage_code(self, capsys):
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "median", "--estimator", "exact"]
        assert console_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "coordest: error: --query 'median': unknown query 'median'\n"


class TestSchemeParsing:
    def test_shared_threshold(self):
        scheme = parse_scheme("pps:tau=4", r=2)
        assert scheme.common_pps_tau() == 4.0

    def test_per_instance_thresholds(self):
        scheme = parse_scheme("pps:tau=4,2", r=2)
        assert scheme.maps == (PiecewiseLinearMap.pps(4.0), PiecewiseLinearMap.pps(2.0))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            parse_scheme("exp:rate=2", r=2)

    def test_scheme_file(self):
        text = """
        # per-instance maps
        tau.1 = pps:4
        tau.2 = pwl:0:0,0.5:1,1:4
        """
        scheme = parse_scheme_file(text, r=2)
        assert scheme.maps[0] == PiecewiseLinearMap.pps(4.0)
        assert scheme.maps[1].value(0.75) == 2.5

    def test_two_joint_pwl_map_is_the_pps_map(self, tmp_path, capsys):
        # the inverse-probability estimator needs one common PPS threshold,
        # however the maps are spelled
        records = []
        for spec in ("pps:4", "pwl:0:0,1:4", "pwl:0,0,1.0,4.0"):
            path = tmp_path / "scheme.txt"
            path.write_text(f"tau.1 = {spec}\ntau.2 = {spec}\n")
            argv = ["estimate", "--input", str(DEMO_CSV), "--scheme-file", str(path), "--query", "maxsum",
                    "--estimator", "ht"]
            assert main(argv) == 0
            records.append(capsys.readouterr().out)
        assert main(["estimate", "--input", str(DEMO_CSV), "--query", "maxsum", "--estimator", "ht"]) == 0
        records.append(capsys.readouterr().out)
        assert records == [records[0]] * 4 and json.loads(records[0])["value"] > 0.0

    def test_zero_pps_threshold_names_its_source(self):
        with pytest.raises(ValueError, match=r"^--scheme 'pps:tau=0': PPS threshold must be positive$"):
            parse_scheme("pps:tau=0", r=2)
        with pytest.raises(ValueError, match=r"^s\.txt: line 2: tau\.2: PPS threshold must be positive$"):
            parse_scheme_file("tau.1 = pps:4\ntau.2 = pps:0\n", r=2, source="s.txt")

    def test_scheme_file_must_cover_instances(self):
        with pytest.raises(ValueError):
            parse_scheme_file("tau.1 = pps:4", r=2)


class TestParseErrorsNameTheirSource:
    def test_scheme_flag(self, capsys):
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "l1", "--scheme", "pps:tau=abc"]
        assert console_main(argv) == 2
        assert capsys.readouterr().err == (
            "coordest: error: --scheme 'pps:tau=abc': could not convert string to float: 'abc'\n"
        )

    def test_query_flag(self, capsys):
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "lpp:p=x", "--estimator", "j"]
        assert console_main(argv) == 2
        assert capsys.readouterr().err == (
            "coordest: error: --query 'lpp:p=x': could not convert string to float: 'x'\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--query", "lpp:q=2"], "--query 'lpp:q=2': lpp takes p, not 'q'"),
        (["--query", "l1:p=3"], "--query 'l1:p=3': l1 takes no parameters, not 'p'"),
        (["--query", "lpp:p=inf"], "--query 'lpp:p=inf': exponent p must be positive and finite, not inf"),
        (["--query", "lp:p=-1"], "--query 'lp:p=-1': exponent p must be positive and finite, not -1.0"),
        (["--query", "lpp", "--p", "-1"], "--p must be positive and finite, got -1.0"),
        (["--query", "lpp", "--p", "inf"], "--p must be positive and finite, got inf"),
        (["--query", "sum"], "--query sum is a bottom-k query and needs --k"),
        (["--query", "lpp"], "query lpp needs an exponent: --p or lpp:p=<p>"),
        (["--query", "l1", "--p", "3"], "--p applies only to lpp and lp, not l1"),
        (["--query", "lpp:p=-1", "--p", "2"], "--query 'lpp:p=-1': exponent p must be positive and finite, not -1.0"),
        (["--query", "lp:3", "--p", "2"], "--query 'lp:3': exponent 3.0 conflicts with --p 2.0"),
        (["--query", "median:p=2"], "--query 'median:p=2': unknown query 'median:p=2'"),
    ])
    def test_query_spec(self, capsys, argv, message):
        assert console_main(["estimate", "--input", str(DEMO_CSV), "--estimator", "exact", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"coordest: error: {message}\n"

    def test_scheme_file_line(self, tmp_path, capsys):
        path = tmp_path / "scheme.txt"
        path.write_text("# maps\ntau.1 = pps:4\ntau.x = pps:4\n")
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "l1", "--scheme-file", str(path)]
        assert console_main(argv) == 2
        assert capsys.readouterr().err == f"coordest: error: {path}: line 3: bad instance number 'x'\n"

    @pytest.mark.parametrize("command", ["analyze", "characterize"])
    @pytest.mark.parametrize("spec, message", [
        ("rg:q=2", "rg takes p, not 'q'"),
        ("max:p=3", "max takes no parameters, not 'p'"),
        ("osrg:p=1,hi=1,lo=2,hi=2", "parameter 'hi' given twice"),
        ("rg:p=2,p=3", "parameter 'p' given twice"),
        ("rg:p=abc", "exponent p must be a finite number, not 'abc'"),
        ("rg:p=nan", "exponent p must be a finite number, not 'nan'"),
        ("rg:p=inf", "exponent p must be a finite number, not 'inf'"),
        ("rg:p=-1", "rg requires a positive finite exponent p"),
    ])
    def test_function_flag(self, capsys, command, spec, message):
        assert console_main([command, "--input", str(DEMO_CSV), "--function", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"coordest: error: --function {spec!r}: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--estimator", "voptimal-oracle"],
         "--estimator 'voptimal-oracle': unknown bottom-k estimator 'voptimal-oracle'"),
        (["--query", "jaccard"], "--query 'jaccard': query 'jaccard' not supported on bottom-k samples"),
        (["--query", "lpp:p=2"], "--query 'lpp:p=2': query 'lpp' not supported on bottom-k samples"),
        (["--k", "300"], "--k 300: k=300 must be smaller than the item count 8"),
        (["--k", "6"], "--k 6: k=6 must be smaller than the positive-item count 6"),
        (["--rank", "exp", "--estimator", "j"],
         "--rank 'exp' with --estimator 'j': dyadic estimation of bottom-k members needs PPS ranks; "
         "exponential-rank thresholds do not invert to a monotone map"),
        (["--reps", "100"], "--reps 100 does not apply with --k: a bottom-k sample is drawn at one salt"),
    ])
    def test_bottomk_flags(self, capsys, argv, message):
        base = ["estimate", "--input", str(DEMO_CSV), "--k", "3", "--query", "sum", "--estimator", "ht"]
        assert console_main([*base, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"coordest: error: {message}\n"

    def test_items_flag(self):
        with pytest.raises(ValueError, match=r"^--items 'positive-in:x': invalid literal"):
            resolve_items("positive-in:x", ingest(DEMO_CSV))

    @pytest.mark.parametrize("spec, message", [
        ("positive-in:9", "--items 'positive-in:9': instance 9 out of range 1..2"),
        ("positive-in:0", "--items 'positive-in:0': instance 0 out of range 1..2"),
    ])
    def test_items_instance_out_of_range(self, capsys, spec, message):
        assert console_main(["estimate", "--input", str(DEMO_CSV), "--query", "l1", "--items", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"coordest: error: {message}\n"

    def test_scheme_file_duplicate_key_names_both_lines(self):
        text = "tau.1 = pps:4\n# again\ntau.1 = pps:2\ntau.2 = pps:4\n"
        with pytest.raises(ValueError, match=r"^maps\.txt: line 3: tau\.1 is already defined on line 1$"):
            parse_scheme_file(text, r=2, source="maps.txt")

    def test_scheme_file_map_names_its_line(self):
        text = "tau.2 = pwl:0:0,1\ntau.1 = pps:4\n"
        with pytest.raises(ValueError, match=r"^scheme file: line 1: tau\.2: joint list must pair"):
            parse_scheme_file(text, r=2)


class TestResolveItems:
    def test_modes(self):
        data = ingest(DEMO_CSV)
        assert resolve_items("all", data)[0] == list(data.item_ids)
        both, _ = resolve_items("both-positive", data)
        assert both == ["1", "3", "6", "7"]
        pos2, _ = resolve_items("positive-in:2", data)
        assert "4" not in pos2 and "1" in pos2
        some, _ = resolve_items("1,3", data)
        assert some == ["1", "3"]

    def test_unknown_id(self):
        data = ingest(DEMO_CSV)
        with pytest.raises(ValueError, match="unknown item"):
            resolve_items("1,99", data)

    @pytest.mark.parametrize("spec", ["", ",", " , ,"])
    @pytest.mark.parametrize("command, flags", [
        ("estimate", ["--query", "l1", "--estimator", "j"]),
        ("analyze", ["--function", "max"]),
    ])
    def test_id_list_with_no_id_is_an_error(self, capsys, command, flags, spec):
        # an empty list once summed no item and answered 0.0
        assert console_main([command, "--input", str(DEMO_CSV), *flags, "--items", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"coordest: error: --items {spec.strip()!r} names no item id\n"

    def test_unknown_id_names_the_flag(self, capsys):
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "l1", "--estimator", "j", "--items", "1,x,99"]
        assert console_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "coordest: error: --items: unknown item ids: x, 99\n"

    @pytest.mark.parametrize("command, flags", [
        ("estimate", ["--query", "l1", "--estimator", "exact"]),
        ("estimate", ["--query", "l1", "--estimator", "j"]),
        ("estimate", ["--query", "sum", "--k", "2"]),
        ("analyze", ["--function", "max"]),
        ("characterize", ["--function", "max"]),
    ])
    def test_repeated_id_is_an_error(self, capsys, command, flags):
        # counted once per mention, a repeated id would double its item
        assert console_main([command, "--input", str(DEMO_CSV), *flags, "--items", "3,1, 3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "coordest: error: --items: item id '3' given twice\n"


class _Parsed(Exception):
    """Raised in place of running a command once its flags are parsed."""


class TestSharedParser:
    # the optional flags of each subcommand besides --scheme-file, which
    # every subcommand takes
    TAKES = {
        "sample": [],
        "estimate": [["--p", "2"], ["--k", "5"]],
        "analyze": [],
        "characterize": [["--curves", "c.csv"]],
    }
    REQUIRED = {"sample": [], "estimate": ["--query", "lpp"], "analyze": ["--function", "max"],
                "characterize": ["--function", "max"]}

    def _argvs(self):
        """Every subcommand with and without each flag it takes, the
        runs with a flag before those without it."""
        for command, optional in self.TAKES.items():
            for given in itertools.product((True, False), repeat=len(optional) + 1):
                argv = [command, "--input", str(DEMO_CSV), *self.REQUIRED[command]]
                for flag, on in zip([["--scheme-file", "maps.txt"], *optional], given):
                    argv += flag if on else []
                yield argv

    def test_parsing_leaves_the_parser_unchanged(self, monkeypatch, capsys):
        parsed = []

        def capture(args):
            parsed.append(vars(args))
            raise _Parsed

        def rebuild():
            raise AssertionError("main built a parser")

        def parse(argv):
            with pytest.raises(_Parsed):
                main(argv)
            return parsed[-1]

        for command in cli.COMMANDS:
            monkeypatch.setitem(cli.COMMANDS, command, capture)
        monkeypatch.setattr(cli, "build_parser", rebuild)
        argvs = list(self._argvs())
        for argv in argvs:
            assert parse(argv) == vars(build_parser().parse_args(argv)), argv
        # argparse exits part way through the flags
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(DEMO_CSV), "--query", "l1", "--k", "5", "--p", "two"])
        assert exc.value.code == 2 and "--p: invalid float value: 'two'" in capsys.readouterr().err
        for argv in reversed(argvs):
            assert parse(argv) == vars(build_parser().parse_args(argv)), argv
        lpp = ["estimate", "--input", str(DEMO_CSV), "--query", "lpp", "--p", "2"]
        assert parse(lpp)["p"] == 2.0
        assert parse([*lpp[:4], "l1"])["p"] is None


class TestFlags:
    # every flag of every subcommand left at its default; --input and the
    # required flags are given
    DEFAULTS = {
        "sample": {},
        "estimate": {"query": "l1", "p": None, "estimator": "exact", "items": "all", "reps": 1, "k": None,
                     "rank": "pps", "instance": 1},
        "analyze": {"function": "max", "items": "all"},
        "characterize": {"function": "max", "items": "all", "curves": None},
    }

    @pytest.mark.parametrize("command", DEFAULTS)
    def test_defaults(self, command):
        required = [f"--{k}={v}" for k, v in self.DEFAULTS[command].items() if k in ("query", "function")]
        args = cli.PARSER.parse_args([command, "--input", str(DEMO_CSV), *required])
        assert vars(args) == {"command": command, "input": DEMO_CSV, "scheme": "pps:tau=4", "scheme_file": None,
                              "salt": 0, "out": None, **self.DEFAULTS[command]}

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "0"], "--reps must be at least 1, got 0"),
        (["--reps", str(MAX_REPS + 1)],
         f"--reps must be at most {MAX_REPS} (1 GiB of salts and sums), got {MAX_REPS + 1}"),
        (["--k", "0"], "--k must be at least 1, got 0"),
        (["--p", "-1"], "--p must be positive and finite, got -1.0"),
        (["--k", "2", "--reps", "3"], "--reps 3 does not apply with --k: a bottom-k sample is drawn at one salt"),
    ])
    def test_estimate_flags_are_checked_before_the_input_is_read(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "missing.csv"
        assert console_main(["estimate", "--input", str(missing), "--query", "lpp", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"coordest: error: {message}\n"


class TestFailingCommandsLeaveTheirFilesAlone:
    # once, analyze emptied an existing --out before it read its input, and
    # characterize emptied --out when --curves could not be opened
    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "MISSING", "--function", "max"],
        ["analyze", "--input", DEMO_CSV, "--function", "nosuch"],
        ["characterize", "--input", "MISSING", "--function", "max", "--curves", "CURVES"],
        ["characterize", "--input", DEMO_CSV, "--function", "max", "--items", "1,x", "--curves", "CURVES"],
        ["estimate", "--input", DEMO_CSV, "--query", "l1", "--scheme", "pps:tau=x"],
        ["sample", "--input", DEMO_CSV, "--scheme-file", "MISSING"],
    ], ids=["analyze-input", "analyze-function", "characterize-input", "characterize-items", "estimate-scheme",
            "sample-scheme-file"])
    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    def test_parse_errors_open_no_output(self, tmp_path, capsys, argv, existing):
        out, curves = tmp_path / "out", tmp_path / "curves.csv"
        if existing:
            out.write_text("old out\n")
            curves.write_text("old curves\n")
        names = {"MISSING": str(tmp_path / "missing"), "CURVES": str(curves)}
        assert console_main([str(names.get(a, a)) for a in argv] + ["--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        if existing:
            assert out.read_text() == "old out\n" and curves.read_text() == "old curves\n"
        else:
            assert not out.exists() and not curves.exists()

    def test_unopenable_curves_leave_out_alone(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("old out\n")
        curves = tmp_path / "nodir" / "x.csv"
        argv = ["characterize", "--input", str(DEMO_CSV), "--function", "max", "--out", str(out),
                "--curves", str(curves)]
        assert console_main(argv) == 2
        assert capsys.readouterr().err == f"coordest: error: [Errno 2] No such file or directory: '{curves}'\n"
        assert out.read_text() == "old out\n"

    @pytest.mark.parametrize("missing", ["out", "curves"])
    def test_an_unopenable_output_leaves_the_other_alone(self, tmp_path, capsys, missing):
        # either output may be the one that cannot be opened; the other
        # keeps its bytes
        paths = {"out": tmp_path / "out", "curves": tmp_path / "curves.csv"}
        paths[missing] = tmp_path / "nodir" / "x"
        (kept,) = (p for name, p in paths.items() if name != missing)
        kept.write_bytes(b"old\r\nbytes\n")
        argv = ["characterize", "--input", str(DEMO_CSV), "--function", "max", "--out", str(paths["out"]),
                "--curves", str(paths["curves"])]
        assert console_main(argv) == 2
        assert capsys.readouterr().err == f"coordest: error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
        assert kept.read_bytes() == b"old\r\nbytes\n"

    def test_outputs_are_emptied_once_both_are_open(self, tmp_path, capsys):
        out, curves = tmp_path / "out", tmp_path / "curves.csv"
        out.write_text("old out\n" * 1000)
        curves.write_text("old curves\n" * 1000)
        argv = ["characterize", "--input", str(DEMO_CSV), "--function", "max", "--out", str(out),
                "--curves", str(curves)]
        assert console_main(argv) == 0
        assert "old" not in out.read_text() and "old" not in curves.read_text()
        assert console_main(argv[:-2] + ["--out", "/dev/null"]) == 0


class TestEstimateCommand:
    def test_exact_golden_values(self, capsys):
        argv = [
            "estimate", "--input", str(DEMO_CSV), "--query", "lpp", "--p", "2",
            "--items", "1,2,3,4", "--estimator", "exact",
        ]
        assert main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 18.0

    def test_exponent_embedded_in_query(self, capsys):
        argv = [
            "estimate", "--input", str(DEMO_CSV), "--query", "lpp:p=2",
            "--items", "1,2,3,4", "--estimator", "exact",
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 18.0

    def test_unknown_query_rejected(self):
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "median", "--estimator", "exact"]
        with pytest.raises(ValueError, match="unknown query"):
            main(argv)

    def test_monte_carlo_record(self, tmp_path):
        out = tmp_path / "mc.json"
        argv = [
            "estimate", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
            "--query", "l1", "--items", "1,3", "--estimator", "j",
            "--salt", "3", "--reps", "2000", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = json.loads(out.read_text())
        assert rec["reps"] == 2000
        assert abs(rec["value"] - 5.0) <= 3.0 * rec["stderr"]

    def test_negative_salt_is_taken_mod_2_64(self, capsys):
        values = []
        for salt in ("-5", str(2**64 - 5)):
            argv = [
                "estimate", "--input", str(DEMO_CSV), "--query", "l1", "--estimator", "j",
                "--salt", salt, "--reps", "10",
            ]
            assert main(argv) == 0
            rec = json.loads(capsys.readouterr().out)
            values.append((rec["value"], rec["stderr"]))
        assert values[0] == values[1]

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            argv = [
                "estimate", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
                "--query", "jaccard", "--estimator", "j", "--salt", "11",
                "--out", str(out),
            ]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bottomk_mode_logs_thresholds(self, tmp_path):
        out = tmp_path / "bk.json"
        argv = [
            "estimate", "--input", str(DEMO_CSV), "--query", "distinct",
            "--estimator", "ht", "--salt", "2", "--k", "2", "--rank", "pps",
            "--instance", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = json.loads(out.read_text())
        assert rec["k"] == 2 and len(rec["members"]) == 2
        for m in rec["members"]:
            assert m["threshold"] > 0 and 0 < m["inclusion_probability"] <= 1

    def test_bottomk_mode_takes_no_monte_carlo_sweep(self, capsys):
        # --reps 100 with --k used to answer one bottom-k sample and drop
        # the sweep; it is an error now, and --reps 1 is the single sample
        argv = ["estimate", "--input", str(DEMO_CSV), "--query", "sum", "--k", "3"]
        assert console_main([*argv, "--reps", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--reps 100" in err and "--k" in err
        assert main([*argv, "--reps", "1"]) == 0
        single = capsys.readouterr().out
        assert main(argv) == 0 and capsys.readouterr().out == single

    def test_exact_sum_adds_in_order(self, tmp_path, capsys):
        # in order, 1e16 + 1 + 1 stays 1e16, as in every estimator's sum;
        # Python 3.12's compensated sum() would give 1.0000000000000002e16
        p = tmp_path / "order.csv"
        p.write_text("item,v1,v2\na,1e16,0\nb,1,0\nc,1,0\n")
        assert main(["estimate", "--input", str(p), "--query", "l1"]) == 0
        assert '"value": 1e+16' in capsys.readouterr().out

    @pytest.mark.parametrize("rank, item, value, seed", [
        ("pps", "i1", "1.1e+308", "0.14121744840370998"),
        ("exp", "i0", "1e+308", "0.616855855461671"),
    ])
    def test_bottomk_rank_past_the_largest_float_names_the_item(self, tmp_path, rank, item, value, seed):
        # ranks v/u and -v/ln(u) of values near the largest float overflow;
        # they once printed numpy's warning, then a non-JSON answer error
        p = tmp_path / "huge.csv"
        p.write_text("item,v1\n" + "".join(f"i{k},{1e308 + k * 0.1e308!r}\n" for k in range(8)))
        proc = _python("-m", "coordest", "estimate", "--input", str(p), "--k", "2", "--query", "sum",
                       "--rank", rank)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"coordest: error: instance 1: item {item!r}: the {rank} rank of {value} "
                               f"at seed {seed} passes the largest float\n")

    def test_empty_input_answers_zero(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("item,v1,v2\n")
        argv = ["estimate", "--input", str(p), "--query", "maxsum", "--estimator", "exact"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_voptimal_oracle_estimator(self, tmp_path):
        out = tmp_path / "vo.json"
        argv = [
            "estimate", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
            "--query", "maxsum", "--items", "6,7,8", "--estimator", "voptimal-oracle",
            "--salt", "4", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = json.loads(out.read_text())
        assert rec["value"] >= 0.0


class TestSampleCommand:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "samples.jsonl"
        argv = [
            "sample", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
            "--salt", "7", "--out", str(out),
        ]
        assert main(argv) == 0
        from coordest.cli import parse_scheme as ps

        with out.open() as fp:
            loaded = read_samples(fp, ps("pps:tau=4", 2))
        assert set(loaded) == {str(i) for i in range(1, 9)}
        from coordest.model import hash_seed

        for item, outcome in loaded.items():
            assert outcome.seed == hash_seed(item, 7)

    @pytest.mark.parametrize("salt, same", [(str(2**64), "0"), ("-1", str(2**64 - 1))])
    def test_salts_wrap_modulo_2_64(self, tmp_path, salt, same):
        def sample(s: str) -> bytes:
            out = tmp_path / f"salt{s}.jsonl"
            assert main(["sample", "--input", str(DEMO_CSV), "--salt", s, "--out", str(out)]) == 0
            return out.read_bytes()

        assert sample(salt) == sample(same)
        assert sample(salt) != sample("1")


class TestAnalyzeCommand:
    def test_reports_and_exit_code(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        argv = [
            "analyze", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
            "--function", "rg:p=2", "--items", "1,2,3",
            "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            rec = json.loads(line)
            assert rec["ratio"] <= 84.0
            assert rec["estimable"] and rec["finite_variance"] and rec["bounded"]

    @pytest.mark.parametrize(
        "vector",
        [
            (7.433925184252898, 2.684900432076494),
            # item71 of the benchmark's seed-10 analysis input
            (2.3005325524500364, 0.6823893055074188, 0.30909706399061476),
        ],
    )
    def test_bounded_when_f_and_bound_differ_by_one_ulp(self, tmp_path, vector):
        # f(v) = d ** 2 and the closed-form bound d * d once differed in
        # the last bit here, which made (f(v) - lb(u)) / u grow without bound
        p = tmp_path / "one.csv"
        header = ",".join(f"v{i + 1}" for i in range(len(vector)))
        p.write_text(f"item,{header}\nx,{','.join(repr(x) for x in vector)}\n")
        out = tmp_path / "report.jsonl"
        argv = [
            "analyze", "--input", str(p), "--scheme", "pps:tau=4",
            "--function", "rg:p=2", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert rec["bounded"] is True
        assert rec["diagnostics"]["j_tail_bound"] == 0.0

    def test_subnormal_breakpoint(self, tmp_path):
        # the first breakpoint 1e-308 / 4 is subnormal; the hull's anchor
        # below it once overflowed the grid size (OverflowError)
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2\na,1e-308,0.5\n")
        out = tmp_path / "report.jsonl"
        assert main(["analyze", "--input", str(p), "--function", "max", "--out", str(out)]) == 0
        rec = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert rec["estimable"] and rec["bounded"] and rec["finite_variance"]
        assert 1.0 <= rec["ratio"] <= 84.0

    @pytest.mark.parametrize("function, vector", [
        ("rg:p=1", "0,0,1e-100"), ("rg:p=2", "0,0,1e-100"), ("max", "0,0,1e-200"),
        ("rg:p=1", "0,0,1e-310"), ("max", "1e-310,0,2e-310"),
    ])
    def test_dyadic_depth_reaches_tiny_data(self, tmp_path, function, vector):
        # the dyadic sum once stopped at depth 300, above all the mass of
        # data below about 1e-84, and the tail bound decided the ratio
        p = tmp_path / "tiny.csv"
        p.write_text(f"item,v1,v2,v3\na,{vector}\n")
        out = tmp_path / "report.jsonl"
        assert main(["analyze", "--input", str(p), "--function", function, "--out", str(out)]) == 0
        rec = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert 1.0 <= rec["ratio"] <= 84.0

    def test_squares_past_the_largest_float(self, tmp_path):
        # the presence indicator of (1e-160, 0) has estimates near 4e160,
        # whose squares overflow while their integrals do not; the ratio is
        # that of max on the same data, which is the indicator times 1e-160
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2\na,1e-160,0\n")
        ratios = []
        for function in ("or", "max"):
            proc = _python("-m", "coordest", "analyze", "--input", str(p), "--function", function)
            assert proc.returncode == 0 and proc.stderr == ""
            rec = json.loads(proc.stdout, parse_constant=_reject_constant)
            ratios.append(rec["ratio"])
        assert rec["square_integral_opt"] == pytest.approx(4e-160, rel=1e-2)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    def test_variance_past_the_largest_float_names_the_item(self, tmp_path):
        # near 1e-310 the dyadic estimates of the indicator themselves pass
        # the largest float: the record cannot be JSON
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2\nb,1,2\na,1e-310,0\n")
        proc = _python("-m", "coordest", "analyze", "--input", str(p), "--function", "or")
        assert proc.returncode == 2 and proc.stdout.count("\n") == 1
        assert proc.stderr == "coordest: error: item 'a': square_integral_j is inf, and only finite values are written\n"
        assert proc.stderr.count("\n") == 1

    def test_subnormal_data_names_the_first_value_that_is_not_finite(self, tmp_path, capsys):
        # the optimal estimate 1/p of a revelation probability near 2.5e-320
        # passes the largest float, and so does the dyadic one before it
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2,v3\na,0.0,1e-310,3e-320\n")
        assert console_main(["analyze", "--input", str(p), "--function", "or", "--scheme", "pps:tau=1.2"]) == 2
        assert capsys.readouterr().err == \
            "coordest: error: item 'a': square_integral_j is inf, and only finite values are written\n"
        # a nested field is named by its path
        with pytest.raises(ValueError, match=r"^diagnostics\.bounded_slope is nan, and only finite"):
            cli._check_finite({"ratio": 1.0, "bounded": True, "diagnostics": {"f_value": 2, "bounded_slope": math.nan}})

    @pytest.mark.parametrize("command", ["analyze", "characterize"])
    def test_subnormal_data_gets_exact_verdicts(self, tmp_path, command):
        # 1e-320 is revealed below the subnormal seed 2.5e-321, so its gap at
        # seed 0 is exactly 0: the verdicts need no limit probe (which once
        # underflowed to 0 here), and the record is strict JSON
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2,v3\nb,1,0,2\na,0,0,1e-320\n")
        proc = _python("-m", "coordest", command, "--input", str(p), "--function", "max")
        assert proc.returncode == 0 and proc.stderr == ""
        rec = json.loads(proc.stdout.splitlines()[1], parse_constant=_reject_constant)
        assert rec["item"] == "a" and rec["estimable"] and rec["bounded"] and rec["finite_variance"]
        if command == "analyze":
            assert rec["diagnostics"]["estimable_gap"] == 0.0 and 1.0 <= rec["ratio"] <= 84.0
        else:
            assert rec["estimable_gap"] == 0.0 and rec["chain_ok"]

    @pytest.mark.parametrize("command", ["analyze", "characterize"])
    def test_value_no_seed_reveals_names_the_item(self, tmp_path, command):
        # 5e-324 under tau = 4 is below the threshold 2e-323 of the smallest
        # seed: max(v) = 5e-324 while the bound tends to 0 toward seed 0
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2,v3\nb,1,0,2\na,5e-324,0,0\n")
        proc = _python("-m", "coordest", command, "--input", str(p), "--function", "max")
        assert proc.returncode == 2 and proc.stdout.count("\n") == 1
        assert proc.stderr == (
            "coordest: error: item 'a': instance 1 holds 5e-324, which no positive float seed reveals "
            "(its threshold at the smallest seed is 2e-323); the lower bound tends to 0.0 toward seed 0, "
            "not to f(v) = 5e-324\n")

    @pytest.mark.parametrize("flag", ["--eps", "--depth"])
    @pytest.mark.parametrize("command", ["analyze", "characterize"])
    def test_probe_and_depth_flags_are_gone(self, capsys, command, flag):
        # the verdicts are exact and the dyadic depth follows the data
        argv = [command, "--input", str(DEMO_CSV), "--function", "max", flag, "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_schema_round_trip(self, tmp_path):
        from coordest.analysis import AnalysisReport

        out = tmp_path / "reports.jsonl"
        argv = [
            "analyze", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
            "--function", "max", "--items", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = json.loads(out.read_text())
        report = AnalysisReport(**{f.name: rec[f.name] for f in fields(AnalysisReport)})
        assert report.competitive_ok

    def test_synthetic_sweep(self, tmp_path):
        # one-sided squared difference over v = (a, 0), a = 0.1 .. 1.0
        rows = "\n".join(f"a{k},{k / 10:.1f},0" for k in range(1, 11))
        src = tmp_path / "sweep.csv"
        src.write_text("item,v1,v2\n" + rows + "\n")
        out = tmp_path / "sweep.jsonl"
        argv = [
            "analyze", "--input", str(src), "--scheme", "pps:tau=1",
            "--function", "one_sided_rg:p=2,hi=1,lo=2", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        for line in lines:
            assert json.loads(line)["ratio"] <= 84.0


class TestCharacterizeCommand:
    def test_verdicts_and_curves(self, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        curves = tmp_path / "curves.csv"
        argv = [
            "characterize", "--input", str(DEMO_CSV), "--scheme", "pps:tau=4",
            "--function", "one_sided_rg:p=2,hi=1,lo=2", "--items", "1,4",
            "--out", str(out), "--curves", str(curves),
        ]
        assert main(argv) == 0
        for line in out.read_text().strip().splitlines():
            rec = json.loads(line)
            assert rec["chain_ok"]
        with curves.open() as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["item", "u", "lower_bound", "hull", "j_estimate", "v_optimal"]
        assert len(rows) > 10

    def test_record_that_is_not_json_names_the_item(self, monkeypatch, capsys):
        # no known input gives a non-JSON verdict, so one check is made to
        # return a NaN gap; the record of item 4 must then name it
        from dataclasses import replace

        from coordest import cli

        checks = cli._curve_checks

        def nan_gap(lbf, f_value, v, scheme):
            est, bd, fv = checks(lbf, f_value, v, scheme)
            return replace(est, value=math.nan), bd, fv

        monkeypatch.setattr(cli, "_curve_checks", nan_gap)
        argv = ["characterize", "--input", str(DEMO_CSV), "--function", "max", "--items", "4"]
        assert console_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "coordest: error: item '4': estimable_gap is nan, and only finite values are written\n"


class TestValuesPastTheLargestFloat:
    # (10 - 0.5)^600 is past the largest float; (1 - 0.5)^600 is not
    BIG = "a,10.0,0.5\n"
    SMALL = "b,1.0,0.5\n"
    ERROR = "coordest: error: item 'a': the lower bound near seed 0 passes the largest float (exponent 600)\n"

    @pytest.mark.parametrize("first, second", [(SMALL, BIG), (BIG, SMALL)], ids=["small-first", "big-first"])
    def test_curves_end_with_the_item_error_after_the_rows_before_it(self, tmp_path, capsys, first, second):
        def characterize(text: str) -> tuple[int, str, str, list[list[str]]]:
            p, curves = tmp_path / "data.csv", tmp_path / "curves.csv"
            p.write_text("item,v1,v2\n" + text)
            code = console_main(["characterize", "--input", str(p), "--function", "rg:p=600", "--curves", str(curves)])
            with curves.open() as fp:
                return code, *capsys.readouterr(), list(csv.reader(fp))

        code, out, err, rows = characterize(first + second)
        assert code == 2 and err == self.ERROR
        # the records and rows before the item's are those of the rows alone
        _, out_b, _, rows_b = characterize(self.SMALL) if first == self.SMALL else characterize("")
        assert out == out_b and rows == rows_b
        assert len(rows) > 1 if first == self.SMALL else len(rows) == 1

    @pytest.mark.parametrize("argv, error", [
        (["characterize", "--function", "rg:p=600"], ERROR),
        (["characterize", "--function", "rg:p=600", "--curves", "CURVES"], ERROR),
        (["analyze", "--function", "rg:p=600"], ERROR),
        (["estimate", "--query", "lpp:p=600", "--estimator", "exact"],
         "coordest: error: --query 'lpp:p=600': Out of range float values are not JSON compliant\n"),
        (["estimate", "--query", "lpp:p=600", "--estimator", "j"],
         "coordest: error: --query 'lpp:p=600': Out of range float values are not JSON compliant\n"),
        (["estimate", "--query", "lp:p=600", "--estimator", "j", "--reps", "20"],
         "coordest: error: --query 'lp:p=600': Out of range float values are not JSON compliant\n"),
        (["estimate", "--query", "lpp:p=600", "--estimator", "voptimal-oracle"],
         "coordest: error: --query 'lpp:p=600': the lower bound near seed 0 passes the largest float (exponent 600)\n"),
        (["estimate", "--query", "lpp:p=600", "--estimator", "voptimal-oracle", "--reps", "20"],
         "coordest: error: --query 'lpp:p=600': the lower bound near seed 0 passes the largest float (exponent 600)\n"),
    ], ids=["characterize", "characterize-curves", "analyze", "estimate-exact", "estimate-j", "estimate-j-reps",
            "estimate-oracle", "estimate-oracle-reps"])
    def test_one_error_line_and_nothing_else_on_stderr(self, tmp_path, argv, error):
        p = tmp_path / "big.csv"
        p.write_text("item,v1,v2\n" + self.SMALL + self.BIG)
        argv = [str(tmp_path / "c.csv") if a == "CURVES" else a for a in argv]
        proc = _python("-m", "coordest", argv[0], "--input", str(p), *argv[1:])
        assert proc.returncode == 2 and proc.stderr == error
        if argv[0] == "estimate":
            assert proc.stdout == ""


class TestDataNearTheEndsOfTheFloatRange:
    # found by tests/test_cli_fuzz.py: data near 1e308 made the dyadic
    # tables, the Monte Carlo sums and the HT probabilities print numpy's
    # overflow warnings, and an Lp root past the largest float, or an
    # optimal mass below the smallest float, ended in a traceback
    HUGE = "item,v1,v2\nb,1.0,2.0\na,1e308,0\nc,0,1e308\n"
    QUERY_ERROR = "coordest: error: --query {!r}: Out of range float values are not JSON compliant\n"
    CURVES_ERROR = ("coordest: error: item 'a': the --curves column j_estimate is inf at u = 1.0, "
                    "and only finite values are written\n")

    @pytest.mark.parametrize("argv, code, error", [
        (["analyze", "--function", "max"], 2,
         "coordest: error: item 'a': square_integral_j is inf, and only finite values are written\n"),
        (["characterize", "--function", "max", "--curves", "CURVES"], 2, CURVES_ERROR),
        (["estimate", "--query", "l1", "--estimator", "j"], 2, QUERY_ERROR.format("l1")),
        (["estimate", "--query", "maxsum", "--estimator", "ht", "--reps", "3"], 2, QUERY_ERROR.format("maxsum")),
        (["estimate", "--query", "lp:p=0.5"], 2, QUERY_ERROR.format("lp:p=0.5")),
        (["estimate", "--query", "lp:p=0.5", "--estimator", "j", "--reps", "3"], 2, QUERY_ERROR.format("lp:p=0.5")),
        (["estimate", "--query", "jaccard", "--estimator", "ht", "--reps", "3"], 2, QUERY_ERROR.format("jaccard")),
        (["estimate", "--query", "distinct", "--estimator", "ht", "--reps", "3", "--scheme", "pps:tau=1e-300"], 0, ""),
    ], ids=["analyze", "characterize-curves", "estimate-j", "estimate-ht-reps", "estimate-lp-root",
            "estimate-lp-root-reps", "estimate-jaccard-reps", "estimate-ht-tiny-threshold"])
    def test_values_near_the_largest_float_print_no_warning(self, tmp_path, argv, code, error):
        p = tmp_path / "huge.csv"
        p.write_text(self.HUGE)
        argv = [str(tmp_path / "c.csv") if a == "CURVES" else a for a in argv]
        proc = _python("-m", "coordest", argv[0], "--input", str(p), *argv[1:])
        assert proc.returncode == code and proc.stderr == error

    def test_a_curve_value_past_the_largest_float_is_not_written(self, tmp_path, capsys):
        # the first dyadic piece of item a is 2 * 1e308; b's record and rows
        # come before the error, and no row of a is written
        p, curves = tmp_path / "huge.csv", tmp_path / "c.csv"
        p.write_text(self.HUGE)
        argv = ["characterize", "--input", str(p), "--function", "max", "--curves", str(curves)]
        assert console_main(argv) == 2
        out, err = capsys.readouterr()
        assert err == self.CURVES_ERROR
        assert [json.loads(line)["item"] for line in out.splitlines()] == ["b"]
        rows = curves.read_text().splitlines()
        assert rows[0] == "item,u,lower_bound,hull,j_estimate,v_optimal"
        assert len(rows) > 1 and {row.split(",", 1)[0] for row in rows[1:]} == {"b"}

    def test_optimal_mass_below_the_smallest_float_names_the_item(self, tmp_path):
        # max(0, 5e-324) under tau = 1 is revealed at the smallest seed only;
        # its optimal square integral, about 2.5e-324, rounds to 0
        p = tmp_path / "tiny.csv"
        p.write_text("item,v1,v2\nb,1.0,2.0\na,0,5e-324\n")
        proc = _python("-m", "coordest", "analyze", "--input", str(p), "--function", "max", "--scheme", "pps:tau=1")
        assert proc.returncode == 2 and proc.stdout.count("\n") == 1
        assert proc.stderr == (
            "coordest: error: item 'a': optimal square integral is 0 while the dyadic integral is 4e-323; "
            "the optimal mass lies below the smallest float, or the lower-bound curve is inconsistent\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt")
def test_freed_heap_is_reused_after_a_command(tmp_path):
    # glibc's default thresholds follow the largest block freed so far: once
    # a 1 MiB block has been freed, three live ones leave 3 MiB at the top of
    # the heap, which passes the 2 MiB trim threshold, so every round pages
    # them in again (4,800 faults in ten rounds on Debian 12's glibc 2.36).
    # After a command the thresholds are fixed and the freed heap is kept.
    script = f"""
import resource
import numpy as np
from coordest import cli
cli.main(["sample", "--input", {str(DEMO_CSV)!r}, "--out", {str(tmp_path / "s.jsonl")!r}])
def round_():
    blocks = [np.ones(1 << 17) for _ in range(3)]
    del blocks
np.ones(1 << 17)
round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100, proc.stdout
