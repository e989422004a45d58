"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs every workload briefly on the library as it is, and each run must
pass.  Then, for each fault below, it writes a sitecustomize.py that
monkeypatches the library at interpreter start, puts it in front of src on
every child's PYTHONPATH, and runs the workloads the fault reaches, untraced
and traced.  Each of those runs must report correct=false, failed > 0 and
no metric.  It also checks that BENCHMARK.json lists exactly the metrics
run.py reports.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run

FAULTS = {
    "dinv-off-by-one": (
        "import sweeplab.stats as s\n_f = s.dinv_pairs\ns.dinv_pairs = lambda w: _f(w) + 1\n",
        ("verify", "verify-jobs2", "enumerate"),
    ),
    "sweep-identity": (
        "import sweeplab.sweeping as s\ns.sweep = lambda w: w\n",
        run.WORKLOADS,
    ),
}


def check(label, ok, problems):
    print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
    if not ok:
        problems.append(label)


def main() -> int:
    problems: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check("BENCHMARK.json end_to_end matches run.py", listed == run.END_TO_END, problems)
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check("BENCHMARK.json per_layer matches run.py", listed == run.PER_LAYER, problems)

    for workload in run.WORKLOADS:
        result, _ = run.run(workload, seed=1, seconds=1, trace=0)
        check(f"healthy library: {workload} passes",
              result["correct"] and result["failed"] == 0
              and set(result["metrics"]) == set(run.END_TO_END), problems)

    for fault, (code, workloads) in FAULTS.items():
        fault_dir = run.OUT / f"fault-{fault}"
        fault_dir.mkdir(parents=True, exist_ok=True)
        (fault_dir / "sitecustomize.py").write_text(code)
        for workload in workloads:
            for trace in (0, 1):
                result, _ = run.run(workload, seed=1, seconds=1, trace=trace,
                                    pythonpath=(fault_dir, run.SRC))
                check(f"{fault}: {workload} trace={trace} is caught "
                      f"({result['failed']} of {result['attempted']} failed)",
                      not result["correct"] and result["failed"] > 0 and not result["metrics"],
                      problems)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
