"""The README's examples run as written: its `python` block, each
`sweeplab ...` line of its "Command line" block through cli.main, and each
`python scripts/...` line of its "Experiment scripts" block in a child
interpreter."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sweeplab.cli import main
from conftest import subprocess_env

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(fence_info, after=""):
    """The bodies of the fenced blocks opened by ```fence_info that
    follow the line `after`."""
    text = README[README.index(after):] if after else README
    return re.findall(rf"^```{fence_info}\n(.*?)^```", text, flags=re.M | re.S)


COMMAND_LINES = [
    line for line in _blocks("", "## Command line")[0].splitlines()
    if line.startswith("sweeplab ")
]


SCRIPT_LINES = [
    line for line in _blocks("", "## Experiment scripts")[0].splitlines()
    if line.startswith("python scripts/")
]


def test_the_examples_are_found():
    assert len(COMMAND_LINES) == 7
    assert len(_blocks("python")) == 1
    assert len(SCRIPT_LINES) == 2


def test_python_block_runs():
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `render ... --out fig.svg` writes here
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "line", SCRIPT_LINES, ids=lambda line: shlex.split(line, comments=True)[1]
)
def test_script_line_exits_0(line, tmp_path):
    _, script, *args = shlex.split(line, comments=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / script), *args],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
