"""Every ``coordest`` command of the README's ``## CLI`` code block runs:
it exits 0 and writes strict JSON lines, so the documented flags cannot
drift from the parser."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from coordest.cli import console_main

ROOT = Path(__file__).resolve().parent.parent


def _cli_commands() -> list[list[str]]:
    """The argv of each ``coordest`` line of the first code block under
    ``## CLI``, with backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("coordest ")]


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in output")


def _strict_json_lines(text: str) -> None:
    lines = text.splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line, parse_constant=_reject_constant)
        assert json.loads(json.dumps(rec, allow_nan=False)) == rec


def test_the_block_holds_every_subcommand():
    commands = [argv[0] for argv in _cli_commands()]
    assert set(commands) == {"sample", "estimate", "analyze", "characterize"}
    assert any("--k" in argv for argv in _cli_commands())


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = list(argv)
    files = {}
    for flag in ("--out", "--curves"):
        if flag in argv:
            j = argv.index(flag) + 1
            files[flag] = argv[j] = str(tmp_path / Path(argv[j]).name)
    assert console_main(argv) == 0, capsys.readouterr().err
    out, err = capsys.readouterr()
    assert err == ""
    _strict_json_lines(Path(files["--out"]).read_text() if "--out" in files else out)
    if "--curves" in files:
        assert Path(files["--curves"]).read_bytes().startswith(b"item,u,lower_bound,hull,j_estimate,v_optimal\r\n")
