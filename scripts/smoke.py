"""Smoke checks of the package on the running interpreter.

Usage: python scripts/smoke.py

Standard library only, so it runs on every Python the package supports,
with no pytest.  Each step runs in a child of sys.executable with this
checkout's src/ first on PYTHONPATH; it must exit 0 with nothing on
stderr, and what is read off its stdout must equal the value pinned
below.  The script stops at the first mismatch, reports it on stderr and
exits 1; it exits 0 when all six steps match:

- verify: `verify --m 5 --n 3 --d 2 --jobs 2` under `-W always` prints the
  PASS line.  Python 3.12 and later warn when a process with threads
  forks, so a thread started before verify's fork fails this step.  The
  warning must be printed and stderr required empty: under -W error
  CPython drops the exception that the warning raises after a fork.
- import: a bare `import sweeplab` loads none of its submodules, which
  load on first use; and the records are named tuples, so importing the
  package, its CLI and verify, which loads every record module, adds
  neither dataclasses nor inspect to the modules site loaded.
- frontier: `scripts/frontier.py 14`, every check on every set of up to
  14 steps, ends with the pinned total line.
- enumerate: the JSONL output of `enumerate --m 14 --n 9` is byte-stable.
- unsweep: `unsweep --m 7 --n 4 --d 2` takes the corner path to the base
  path, with the d = 2 rank ties going through the table's image buffer
  and the unrank of the preimage.
- turnover: one interpreter unsweeps the corner paths of (7,4,2), then
  (13,8,1), then (7,4,2) again, so the one kept table is replaced twice
  and each set's preimage, the base path, still comes from its own table.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IMPORT_CHECK = (
    "import sys; before = set(sys.modules); import sweeplab; "
    "print(sorted(name for name in set(sys.modules) - before "
    "if name.startswith('sweeplab.'))); "
    "import sweeplab.cli, sweeplab.verify; "
    "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))"
)

TURNOVER_CHECK = (
    "from sweeplab import corner_path, make_params, unsweep\n"
    "for m, n, d in [(7, 4, 2), (13, 8, 1), (7, 4, 2)]:\n"
    "    print(unsweep(corner_path(make_params(m, n, d))).text)"
)


def last_line(stdout: bytes) -> str:
    return stdout.decode().rstrip("\n").rpartition("\n")[2]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


# (name, the child's arguments, what is read off its stdout, its pinned value)
STEPS = [
    ("verify",
     ["-W", "always", "-m", "sweeplab", "verify", "--m", "5", "--n", "3", "--d", "2",
      "--jobs", "2"],
     bytes.decode, "13 checks x 525 paths: PASS\n"),
    ("import", ["-c", IMPORT_CHECK], bytes.decode, "[]\n[]\n"),
    ("frontier", [str(ROOT / "scripts" / "frontier.py"), "14"],
     last_line, "total: 91 sets, 2905 paths (count_dyck 2905), 0 failed"),
    ("enumerate",
     ["-m", "sweeplab", "enumerate", "--m", "14", "--n", "9", "--format", "jsonl"],
     digest, "05b023e45272fc3761a66cbeae12552c567f613425a76819f2de39efdabe1f27"),
    ("unsweep",
     ["-m", "sweeplab", "unsweep", "--m", "7", "--n", "4", "--d", "2",
      "NNNNNNNNEEEEEEEEEEEEEE"],
     bytes.decode, "NENEENEENEENENEENEENEE\n"),
    ("turnover", ["-c", TURNOVER_CHECK], bytes.decode,
     "NENEENEENEENENEENEENEE\nNENEENENEENEENENEENEE\nNENEENEENEENENEENEENEE\n"),
]


def run(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def main() -> int:
    print(f"smoke on Python {sys.version.split()[0]}")
    for name, args, read, expected in STEPS:
        proc = run(args)
        got = read(proc.stdout)
        if proc.returncode or proc.stderr or got != expected:
            print(
                f"{name}: FAIL: exit {proc.returncode}, {len(proc.stderr)} bytes on "
                f"stderr, read {got!r}, expected {expected!r}\n{proc.stderr.decode()}",
                file=sys.stderr,
            )
            return 1
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
