"""Layered benchmark for sweeplab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it measures the package in
src/sweeplab and exits with code 2, printing no result, when that is
missing.  Every pass runs in a fresh interpreter (worker.py or the
`python3 -m sweeplab` CLI), so each pays the import and the library's
caches cold, as a CLI call or a script does.  Every output is checked
before its time is reported.

With --trace 0 it prints the end-to-end metrics: setup_s, wall_s and
peak_rss_mib.  With --trace 1 it replays the workload's per-item pipeline
with a span around every library call and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
metadata.  A run in which any operation fails reports failed_ratio and no
times, and exits with code 1.  README.md gives the workloads' rationale.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = str(BENCH_DIR / "worker.py")
PY = sys.executable

NPROC = len(os.sched_getaffinity(0))
JOBS = min(2, NPROC)
SETUP_SPAWNS = 15

# Parameter sets with their pinned path and removal-move counts.
VERIFY_SETS = {(11, 7, 1): (1768, 6240), (5, 3, 2): (525, 1582), (3, 2, 3): (377, 1091)}
JOBS2_SET = (11, 7, 1)
ENUM_SET = (14, 9, 1)
ENUM_LINES = 35530
ENUM_SHA256 = "05b023e45272fc3761a66cbeae12552c567f613425a76819f2de39efdabe1f27"
UNSWEEP_SETS = ((13, 8, 1), (7, 4, 2), (3, 2, 4))
UNSWEEP_SAMPLE = 1000
VERIFY_PASS_TEXT = f"13 checks x {VERIFY_SETS[JOBS2_SET][0]} paths: PASS\n"
MOVE_CHECKS = {"rank-difference", "area-recursion", "dinv-recursion", "cross-identities"}

WORKLOADS = ("verify", "verify-jobs2", "enumerate", "unsweep")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

# Layer spans and the statistics reported for each beyond time_s.
SPANS = {
    "paths.enumerate_dyck": ("calls",),
    "paths.is_dyck": (),
    "sweeping.sweep": ("calls",),
    "sweeping.sweep_order": (),
    "sweeping.image_start_rank": ("calls", "us_p50", "us_p99"),
    "sweeping.green_line_rank": ("calls", "us_p50", "us_p99"),
    "sweeping.unsweep": ("calls",),
    "stats.area_cells": ("calls",),
    "stats.dinv_pairs": (),
    "stats.area_rank_formula": (),
    "stats.dinv_cells": (),
    "diagram.build_diagram": (),
    "diagram.check_row_structure": ("us_p50", "us_p99"),
    "recursion.valid_moves": (),
    "recursion.apply_move": (),
    "recursion.region_counts": (),
    "recursion.area_recursion_delta": (),
    "recursion.dinv_recursion_delta": (),
    "recursion.rank_difference_check": ("us_p50", "us_p99"),
}
STAT_UNITS = {"time_s": "s", "calls": "count", "us_p50": "us", "us_p99": "us"}
MODULES = ("paths", "sweeping", "stats", "diagram", "recursion")
DERIVED = {
    "sweeping.unsweep.cold_s": ("s", "lower"),
    "sweeping.unsweep.table_entries_per_call": ("entries/call", "lower"),
    "recursion.moves": ("count", "lower"),
    "recursion.moves_per_path": ("moves/path", "lower"),
    "verify.run_checks.time_s": ("s", "lower"),
    "verify.unattributed_s": ("s", "lower"),
    "verify.parallel_efficiency": ("ratio", "higher"),
    "cli.main.time_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    **{f"{module}.time_s": ("s", "lower") for module in MODULES},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.replay_coverage": ("ratio", "higher"),
}
PER_LAYER = {
    **{f"{span}.{stat}": (STAT_UNITS[stat], "lower")
       for span, extra in SPANS.items() for stat in ("time_s", *extra)},
    **DERIVED,
}


@dataclass
class Child:
    """A finished child process."""

    code: int
    stdout: bytes
    stderr: str
    seconds: float  # from spawn to exit
    rss_mib: float  # peak resident set size


def spawn(argv, stdin_text=""):
    """Run argv to completion in the checkout; returns a Child.  Peak RSS
    comes from os.wait4, so it is this child's own."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as fin, tempfile.TemporaryFile(dir=OUT) as fout, \
            tempfile.TemporaryFile(dir=OUT) as ferr:
        fin.write(stdin_text.encode())
        fin.seek(0)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, cwd=ROOT, env=CHILD_ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        return Child(proc.returncode, fout.read(), ferr.read().decode(errors="replace"),
                     seconds, usage.ru_maxrss / 1024)


def child_env(pythonpath):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    env.pop("SWEEPLAB_LIMIT", None)
    return env


CHILD_ENV = child_env([SRC])


def die(message):
    """Stop without a result: the benchmark cannot measure this checkout."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Failure(Exception):
    """`failed` of `attempted` operations failed or returned wrong output."""

    def __init__(self, message, failed=1, attempted=1):
        super().__init__(message)
        self.failed, self.attempted = failed, attempted


def worker(task, spec):
    """Run one worker pass; returns (result, child)."""
    child = spawn([PY, WORKER, task], json.dumps(spec))
    if child.code != 0:
        raise Failure(f"worker {task} exited {child.code}: {child.stderr.strip()[-300:]}")
    result = json.loads(child.stdout.decode().splitlines()[-1])
    if not Path(result["sweeplab_file"]).is_relative_to(SRC):
        raise Failure(f"imported {result['sweeplab_file']}, not the package under {SRC}")
    return result, child


def setup_seconds():
    """Seconds from interpreter spawn until `import sweeplab` returns.

    The child reads the same monotonic clock as the parent."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = spawn([PY, "-c", "import time, sweeplab; "
                   "print(time.clock_gettime(time.CLOCK_MONOTONIC), sweeplab.__file__)"])
    if child.code != 0:
        die(f"cannot import sweeplab from {SRC}:\n{child.stderr}")
    stamp, where = child.stdout.decode().split()
    if not Path(where).is_relative_to(SRC):
        die(f"imported {where}, not the package under {SRC}")
    return float(stamp) - start


# ---- independent references for the checks ----

def ref_ranks(word, m, n):
    ranks, rank = [], 0
    for ch in word:
        ranks.append(rank)
        rank += m if ch == "N" else -n
    return ranks, rank


def ref_is_dyck(word, m, n, d):
    ranks, last = ref_ranks(word, m, n)
    return (last == 0 and word.count("N") == d * n and word.count("E") == d * m
            and min(ranks) >= 0)


def ref_sweep(word, m, n):
    """Letters by increasing start rank, ties rightmost-first."""
    ranks, _ = ref_ranks(word, m, n)
    return "".join(word[i] for i in sorted(range(len(word)), key=lambda i: (ranks[i], -i)))


def sample_dyck(rng, m, n, d, count):
    """`count` uniform Dyck words by rejection: shuffle dn N and dm E steps
    and keep the arrangements that stay weakly above the diagonal."""
    steps = ["N"] * (d * n) + ["E"] * (d * m)
    words = []
    while len(words) < count:
        rng.shuffle(steps)
        word = "".join(steps)
        if ref_is_dyck(word, m, n, d):
            words.append(word)
    return words


def check_verify_sets(sets):
    """Gate on run_checks results: every check passes with its pinned count.
    Returns the number of parameter sets that failed."""
    failed = 0
    for entry in sets:
        m, n, d = entry["params"]
        n_paths, n_moves = VERIFY_SETS[(m, n, d)]
        expected = {"base-case": 1, "green-line-rank": n_paths * d * (m + n)}
        for name, checked, n_failures, first in entry["checks"]:
            want = expected.get(name, n_moves if name in MOVE_CHECKS else n_paths)
            if n_failures or checked != want:
                print(f"perfbench: {(m, n, d)} {name}: checked {checked} (want {want}), "
                      f"{n_failures} failures {first}", file=sys.stderr)
                failed += 1
                break
        else:
            failed += len(entry["checks"]) != 13
    return failed


def check_preimages(entries, results):
    """Gate on unsweep: each preimage is Dyck and sweeps back to its word.
    Returns the number of wrong preimages."""
    failed = 0
    for entry, result in zip(entries, results):
        m, n, d = entry["params"]
        for word, pre in zip(entry["words"], result["preimages"], strict=True):
            failed += not (ref_is_dyck(pre, m, n, d) and ref_sweep(pre, m, n) == word)
    return failed


# ---- workloads: one pass each, returns (seconds, peak RSS MiB, operations) ----

def verify_args(params, jobs):
    m, n, _ = params
    return ["verify", "--m", str(m), "--n", str(n), "--jobs", str(jobs)]


def enum_args(out):
    m, n, _ = ENUM_SET
    return ["enumerate", "--m", str(m), "--n", str(n), "--format", "jsonl", "--out", str(out)]


def pass_verify(sets, jobs=1):
    result, child = worker("verify", {"sets": [list(p) for p in sets], "jobs": jobs})
    failed = check_verify_sets(result["sets"])
    if failed:
        raise Failure(f"{failed} of {len(sets)} run_checks calls failed", failed, len(sets))
    return sum(s["seconds"] for s in result["sets"]), child.rss_mib, len(sets)


def pass_verify_cli():
    child = spawn([PY, "-m", "sweeplab", *verify_args(JOBS2_SET, JOBS)])
    if child.code != 0 or child.stdout != VERIFY_PASS_TEXT.encode():
        raise Failure(f"verify exited {child.code} with {child.stdout[-200:]!r}")
    return child.seconds, child.rss_mib, 1


def check_enum_file(path):
    data = path.read_bytes()
    lines = data.count(b"\n")
    if lines != ENUM_LINES or hashlib.sha256(data).hexdigest() != ENUM_SHA256:
        raise Failure(f"enumerate wrote {lines} lines or another sha256")
    return len(data)


def pass_enumerate():
    out = OUT / "enumerate.jsonl"
    out.unlink(missing_ok=True)
    child = spawn([PY, "-m", "sweeplab", *enum_args(out)])
    if child.code != 0:
        raise Failure(f"enumerate exited {child.code}: {child.stderr[-300:]}")
    check_enum_file(out)
    return child.seconds, child.rss_mib, 1


def pass_unsweep(entries):
    result, child = worker("unsweep", {"sets": entries})
    ops = sum(len(e["words"]) for e in entries)
    failed = check_preimages(entries, result["sets"])
    if failed:
        raise Failure(f"{failed} of {ops} unsweep calls returned a wrong preimage", failed, ops)
    return sum(s["seconds"] for s in result["sets"]), child.rss_mib, ops


@functools.cache
def unsweep_entries(seed):
    rng = random.Random(seed)
    return [{"params": list(p), "words": sample_dyck(rng, *p, UNSWEEP_SAMPLE)}
            for p in UNSWEEP_SETS]


def workload_pass(workload, seed):
    """The untraced pass function of a workload."""
    if workload == "verify":
        return lambda: pass_verify(VERIFY_SETS)
    if workload == "verify-jobs2":
        return pass_verify_cli
    if workload == "enumerate":
        return pass_enumerate
    entries = unsweep_entries(seed)
    return lambda: pass_unsweep(entries)


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = self.failed = 0

    def run(self, fn):
        """Call fn, which returns (..., operations); count its operations.
        Returns fn's result, or None when it failed."""
        try:
            result = fn()
        except Failure as exc:
            print(f"perfbench: FAIL {exc}", file=sys.stderr)
            self.attempted += exc.attempted
            self.failed += exc.failed
            return None
        self.attempted += result[-1]
        return result


def repeat(seconds, fn):
    """Call fn until the next call would likely end past `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(fn())
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return results


def timed_run(workload, seed, seconds, tally, meta):
    """Passes until `seconds` run out, with set-up probes spread evenly over
    the same span, so both medians see the same machine load."""
    pass_fn = workload_pass(workload, seed)
    setup = []
    start = time.perf_counter()

    def one_pass():
        due = min(SETUP_SPAWNS, 1 + int(SETUP_SPAWNS * (time.perf_counter() - start) / seconds))
        while len(setup) < due:
            setup.append(setup_seconds())
        return tally.run(pass_fn)

    passes = [p for p in repeat(seconds, one_pass) if p]
    meta.update(setup_spawns=len(setup), passes=len(passes),
                pass_seconds=[round(p[0], 4) for p in passes])
    if not passes:
        return {}
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p[0] for p in passes),
        "peak_rss_mib": statistics.median(p[1] for p in passes),
    }


# ---- traced run ----

def trace_sets(workload, seed):
    """The inputs a traced replay of `workload` works on."""
    if workload == "unsweep":
        return unsweep_entries(seed)
    if workload == "enumerate":
        return [list(ENUM_SET)]
    return [list(p) for p in (VERIFY_SETS if workload == "verify" else [JOBS2_SET])]


def traced_pass(workload, sets, pass_id):
    """One fresh-interpreter traced replay; returns (worker result, operations)."""
    spec = {"workload": workload, "pass": pass_id, "sets": sets,
            "spans_file": str(OUT / f"spans-{workload}-{pass_id}.jsonl")}
    result, _ = worker("trace", spec)
    if workload == "unsweep":
        ops = sum(len(e["words"]) for e in spec["sets"])
        failed = check_preimages(spec["sets"], result["sets"])
        if failed:
            raise Failure(f"traced unsweep: {failed} wrong preimages", failed, ops)
    elif workload == "enumerate":
        ops = result["lines"]
        if (result["lines"], result["sha256"]) != (ENUM_LINES, ENUM_SHA256):
            raise Failure("traced enumerate replay produced other records", ops, ops)
    else:
        ops = sum(s["paths"] for s in result["sets"])
        for params, s in zip(spec["sets"], result["sets"]):
            if s["bad"] or (s["paths"], s["moves"]) != VERIFY_SETS[tuple(params)]:
                raise Failure(f"traced replay of {params}: {s}", max(s["bad"], 1), ops)
    return result, ops


def main_verify():
    """In-process cli.main for verify-jobs2's command; returns (seconds,
    output bytes, operations)."""
    result, _ = worker("cli", {"argv": verify_args(JOBS2_SET, JOBS)})
    if result["code"] != 0 or result["stdout"] != VERIFY_PASS_TEXT:
        raise Failure(f"cli.main returned {result['code']} with {result['stdout'][-200:]!r}")
    return result["seconds"], len(result["stdout"].encode()), 1


def main_enumerate():
    """In-process cli.main for enumerate's command; returns (seconds,
    output bytes, operations)."""
    out = OUT / "enumerate-main.jsonl"
    out.unlink(missing_ok=True)
    result, _ = worker("cli", {"argv": enum_args(out)})
    if result["code"] != 0:
        raise Failure(f"cli.main returned {result['code']}")
    return result["seconds"], check_enum_file(out), 1


def layer_metrics(trace):
    """Per-layer metrics of one traced pass; layers that did not run read 0."""
    layers = trace["layers"]
    out = {name: 0.0 for name in PER_LAYER}
    for span, extra in SPANS.items():
        for stat in ("time_s", *extra):
            out[f"{span}.{stat}"] = layers.get(span, {}).get(stat, 0.0)
    for module in MODULES:
        out[f"{module}.time_s"] = sum(v["time_s"] for k, v in layers.items()
                                      if k.startswith(module + "."))
    if "table_entries" in trace:
        calls = layers["sweeping.unsweep"]["calls"]
        out["sweeping.unsweep.cold_s"] = trace["cold_s"]
        out["sweeping.unsweep.table_entries_per_call"] = trace["table_entries"] / calls
    if "sets" in trace and "moves" in trace["sets"][0]:
        moves = sum(s["moves"] for s in trace["sets"])
        out["recursion.moves"] = moves
        out["recursion.moves_per_path"] = moves / sum(s["paths"] for s in trace["sets"])
    out["trace.seconds"] = trace["seconds"]
    out["trace.layer_s"] = sum(v["time_s"] for v in layers.values())
    return out


def trace_run(workload, seed, seconds, tally, meta):
    """Rounds of untraced passes and one traced replay, each in a fresh
    interpreter, until `seconds` run out.  Ratios and differences are taken
    within a round, so drift in machine speed between rounds cancels; each
    metric is the median over rounds."""
    for stale in OUT.glob(f"spans-{workload}-*.jsonl"):
        stale.unlink()
    untraced_fn = workload_pass(workload, seed)
    main_fn = {"verify-jobs2": main_verify, "enumerate": main_enumerate}.get(workload)
    sets = trace_sets(workload, seed)
    pass_ids = itertools.count(1)

    def one_round():
        untraced = tally.run(untraced_fn)
        serial = parallel = main = None
        if workload == "verify":
            serial = untraced
        if workload == "verify-jobs2":
            serial = tally.run(lambda: pass_verify([JOBS2_SET]))
            parallel = tally.run(lambda: pass_verify([JOBS2_SET], JOBS))
        if main_fn:
            main = tally.run(main_fn)
        traced = tally.run(lambda: traced_pass(workload, sets, next(pass_ids)))
        if tally.failed:
            return None
        metrics = layer_metrics(traced[0])
        traced_s, layer_s = metrics.pop("trace.seconds"), metrics.pop("trace.layer_s")
        metrics["trace.overhead_ratio"] = traced_s / untraced[0]
        metrics["trace.replay_coverage"] = layer_s / untraced[0]
        if serial:
            metrics["verify.run_checks.time_s"] = serial[0]
            metrics["verify.unattributed_s"] = serial[0] - layer_s
        if parallel:
            metrics["verify.parallel_efficiency"] = serial[0] / (JOBS * parallel[0])
        if main:
            metrics["cli.main.time_s"], metrics["cli.output_bytes"] = main[:2]
        return metrics

    rounds = [r for r in repeat(seconds, one_round) if r]
    meta.update(passes=len(rounds), spans_files=f".bench_out/spans-{workload}-*.jsonl")
    if not rounds:
        return {}
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


# ---- entry point ----

def commit():
    """The checkout's commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace, pythonpath=(SRC,)):
    """Run one workload; returns (result object, metadata).

    `pythonpath` lets selftest.py put a broken library in front of src."""
    global CHILD_ENV
    CHILD_ENV = child_env(pythonpath)
    if not (SRC / "sweeplab" / "__init__.py").is_file():
        die(f"no sweeplab package under {SRC}")
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": NPROC, "jobs": JOBS,
            "platform": platform.platform(), "commit": commit()}
    tally = Tally()
    metrics = (trace_run if trace else timed_run)(workload, seed, seconds, tally, meta)
    correct = tally.failed == 0 and bool(metrics)
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if correct else max(tally.failed, 1),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units} if correct else {},
    }
    return result, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, meta = run(args.workload, args.seed, args.seconds, args.trace)
    failed_ratio = result["failed"] / result["attempted"]
    print(f"failed_ratio {failed_ratio:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
