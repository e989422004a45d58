"""The README's examples run as written: its `python` block, and each
`sweeplab ...` line of its "Command line" block through cli.main."""

import re
import shlex
from pathlib import Path

import pytest

from sweeplab.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(fence_info, after=""):
    """The bodies of the fenced blocks opened by ```fence_info that
    follow the line `after`."""
    text = README[README.index(after):] if after else README
    return re.findall(rf"^```{fence_info}\n(.*?)^```", text, flags=re.M | re.S)


COMMAND_LINES = [
    line for line in _blocks("", "## Command line")[0].splitlines()
    if line.startswith("sweeplab ")
]


def test_the_examples_are_found():
    assert len(COMMAND_LINES) == 7
    assert len(_blocks("python")) == 1


def test_python_block_runs():
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `render ... --out fig.svg` writes here
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
