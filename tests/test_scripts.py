"""Smoke tests of the scripts under scripts/, each run in a child
interpreter the way a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_set_of_up_to_16_steps_passes():
    # every co-prime (m, n) and d with d(m+n) <= 16, each path counted by
    # the pass and by count_dyck
    lines = run_script("frontier.py", 16).splitlines()
    assert len(lines) == 121
    assert lines[-1] == "total: 120 sets, 10155 paths (count_dyck 10155), 0 failed"


def test_frontier_exits_1_when_a_set_fails():
    code = (
        "import runpy, sys\n"
        "import sweeplab.stats as stats\n"
        "true_dinv = stats.dinv_pairs\n"
        "stats.dinv_pairs = lambda word: true_dinv(word) + 1\n"
        "sys.argv = ['frontier.py', '5']\n"
        f"runpy.run_path({str(SCRIPTS / 'frontier.py')!r}, run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert lines[0] == (
        "m=1 n=1 d=1: 1 paths (count_dyck 1): "
        "FAIL dinv-formulations, base-case, dinv-sweeps-to-area"
    )
    assert lines[-1] == "total: 10 sets, 13 paths (count_dyck 13), 10 failed"


def test_smoke():
    # the CI smoke job runs the same script on 3.10, 3.12 and 3.13
    out = run_script("smoke.py").splitlines()
    assert out[1:] == ["verify: ok", "import: ok", "frontier: ok", "enumerate: ok",
                       "unsweep: ok", "turnover: ok"]


def test_smoke_exits_1_at_the_first_mismatch(tmp_path):
    # a dinv fault on the words of up to 14 steps: verify's 16-step set
    # passes, frontier's total line does not, and enumerate is not run
    (tmp_path / "sitecustomize.py").write_text(
        "import sweeplab.stats as stats\n"
        "true_dinv = stats.dinv_pairs\n"
        "stats.dinv_pairs = lambda word: true_dinv(word) + (len(word) <= 14)\n"
    )
    env = subprocess_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "smoke.py")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1:] == ["verify: ok", "import: ok"]
    assert proc.stderr.startswith("frontier: FAIL: exit 1, 0 bytes on stderr, read "
                                  "'total: 91 sets, 2905 paths (count_dyck 2905), 91 failed'")


def test_region_survey():
    out = run_script("region_survey.py", 7)
    assert out.splitlines()[-1] == "total: 36/36"

