"""Smoke tests of the scripts under scripts/, each run in a child
interpreter the way a user runs it."""

import hashlib
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


def test_stat_tables():
    out = run_script("stat_tables.py", 6)
    assert "marginals EQUAL" in out
    assert "DIFFERENT" not in out


def test_region_survey():
    out = run_script("region_survey.py", 7)
    assert out.splitlines()[-1] == "total: 36/36"


def test_render_gallery(tmp_path):
    run_script("render_gallery.py", tmp_path)
    figures = sorted(tmp_path.glob("*.svg"))
    assert len(figures) == 31
    # every figure byte for byte, read in sorted-name order: d = 2, the base
    # and corner paths and the sweep line at every step are in no golden file
    digest = hashlib.sha256()
    for figure in figures:
        digest.update(figure.read_bytes())
    assert digest.hexdigest() == (
        "3d9e7254e053ef8ecafe0a848ac9dd40f9b628a2f7810930e077f286ad7f3be4"
    )
