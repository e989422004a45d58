"""One pass of the sweeplab benchmark, in a fresh interpreter.

    python3 perfbench/worker.py TASK < spec.json

TASK is one of verify, unsweep, cli or trace.  The spec arrives as JSON on
stdin and the result leaves as one JSON line on stdout.  run.py starts
every pass this way, with PYTHONPATH set to the checkout's src directory,
so each pass pays the library's import and caches cold, as a CLI call or
a script would.  This file only runs and times the library; run.py checks
every output it returns.

Library functions are looked up through their modules at call time, so a
monkeypatched library (see selftest.py) is the one that gets measured.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import time

from sweeplab import diagram, paths, recursion, stats, sweeping, verify

clock = time.perf_counter


def task_verify(spec):
    """verify.run_checks on each parameter set, timed per set."""
    out = []
    for m, n, d in spec["sets"]:
        params = paths.make_params(m, n, d)
        start = clock()
        results = verify.run_checks(params, jobs=spec["jobs"])
        seconds = clock() - start
        checks = [[r.name, r.checked, len(r.failures), r.failures[0] if r.failures else ""]
                  for r in results]
        out.append({"params": [m, n, d], "seconds": seconds, "checks": checks})
    return {"sets": out}


def task_unsweep(spec):
    """sweeping.unsweep on every sampled word; parsing stays outside the timed span."""
    out = []
    for entry in spec["sets"]:
        params = paths.make_params(*entry["params"])
        words = [paths.parse_word(w, params) for w in entry["words"]]
        start = clock()
        preimages = [sweeping.unsweep(w) for w in words]
        seconds = clock() - start
        out.append({"params": entry["params"], "seconds": seconds,
                    "preimages": [p.text for p in preimages]})
    return {"sets": out}


def task_cli(spec):
    """cli.main in-process, with its standard output captured."""
    from sweeplab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = clock()
        code = cli.main(spec["argv"])
        seconds = clock() - start
    return {"code": code, "seconds": seconds, "stdout": buf.getvalue()}


class Tracer:
    """Spans kept in memory as [name, start, end, parent span id, pass id];
    a span's id is its index.  The parents are pass -> item -> layer call."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None) -> int:
        self.spans.append([name, clock(), None, parent, self.pass_id])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = clock()

    def call(self, parent: int, name: str, fn, *args):
        start = clock()
        result = fn(*args)
        self.spans.append([name, start, clock(), parent, self.pass_id])
        return result

    def iterate(self, name: str, parent: int, iterable):
        """Yield from `iterable`, one span per item produced."""
        it = iter(iterable)
        while True:
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            self.spans.append([name, start, clock(), parent, self.pass_id])
            yield item

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, pass_id]) + "\n")

    def layers(self) -> dict:
        """Per layer-call name: total seconds, call count and per-call
        microsecond percentiles."""
        durations: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            if "." in name:
                durations.setdefault(name, []).append(end - start)
        out = {}
        for name, ds in durations.items():
            ds.sort()
            out[name] = {
                "time_s": sum(ds),
                "calls": len(ds),
                "us_p50": ds[(len(ds) - 1) // 2] * 1e6,
                "us_p99": ds[int(0.99 * (len(ds) - 1))] * 1e6,
            }
        return out


def replay_checks(tr: Tracer, params, parent: int) -> dict:
    """The per-path pipeline of verify._word_failures, one span per call.

    Returns the paths and moves covered and how many paths broke an
    identity."""
    words = moves_total = bad = 0
    for word in tr.iterate("paths.enumerate_dyck", parent, paths.enumerate_dyck(params)):
        words += 1
        item = tr.open("item", parent)
        call = functools.partial(tr.call, item)
        image = call("sweeping.sweep", sweeping.sweep, word)
        if not call("paths.is_dyck", paths.is_dyck, image):
            bad += 1
            tr.close(item)
            continue
        area = call("stats.area_cells", stats.area_cells, word)
        dinv = call("stats.dinv_pairs", stats.dinv_pairs, word)
        image_area = call("stats.area_cells", stats.area_cells, image)
        good = dinv == image_area
        good &= area == call("stats.area_rank_formula", stats.area_rank_formula, word)
        good &= dinv == call("stats.dinv_cells", stats.dinv_cells, word)
        built = call("diagram.build_diagram", diagram.build_diagram, word)
        good &= call("diagram.check_row_structure", diagram.check_row_structure, built)

        order = call("sweeping.sweep_order", sweeping.sweep_order, word)
        for position, step in enumerate(order, start=1):
            rank = call("sweeping.image_start_rank", sweeping.image_start_rank, word, position)
            if rank < 0 or call("sweeping.green_line_rank", sweeping.green_line_rank,
                                word, step) != rank:
                good = False
                break

        moves = call("recursion.valid_moves", recursion.valid_moves, word)
        good &= not (area > 0 and not moves)
        moves_total += len(moves)
        for move in moves:
            swapped = call("recursion.apply_move", recursion.apply_move, word, move)
            counts = call("recursion.region_counts", recursion.region_counts, word, move)
            swapped_image = call("sweeping.sweep", sweeping.sweep, swapped)
            direct_area = image_area - call("stats.area_cells", stats.area_cells, swapped_image)
            good &= direct_area == call("recursion.area_recursion_delta",
                                        recursion.area_recursion_delta, word, move)
            direct_dinv = dinv - call("stats.dinv_pairs", stats.dinv_pairs, swapped)
            good &= direct_dinv == call("recursion.dinv_recursion_delta",
                                        recursion.dinv_recursion_delta, word, move)
            good &= call("recursion.rank_difference_check",
                         recursion.rank_difference_check, word, move)
            good &= (counts.red_top_left == counts.blue_top_left
                     and counts.blue_bottom_right == counts.red_bottom_right + 1)
        bad += not good
        tr.close(item)
    return {"paths": words, "moves": moves_total, "bad": bad}


def replay_records(tr: Tracer, params, parent: int) -> dict:
    """The per-path pipeline of `sweeplab enumerate`: enumerate -> sweep ->
    area -> dinv.  The JSONL line is built and hashed outside the spans."""
    digest = hashlib.sha256()
    lines = 0
    for word in tr.iterate("paths.enumerate_dyck", parent, paths.enumerate_dyck(params)):
        item = tr.open("item", parent)
        image = tr.call(item, "sweeping.sweep", sweeping.sweep, word)
        area = tr.call(item, "stats.area_cells", stats.area_cells, word)
        dinv = tr.call(item, "stats.dinv_pairs", stats.dinv_pairs, word)
        tr.close(item)
        record = {"word": word.text, "m": params.m, "n": params.n, "d": params.d,
                  "area": area, "dinv": dinv, "sweep": image.text}
        digest.update((json.dumps(record) + "\n").encode())
        lines += 1
    return {"lines": lines, "sha256": digest.hexdigest()}


def replay_unsweep(tr: Tracer, entries, parent: int) -> dict:
    """sweeping.unsweep on every sampled word; the first call per
    parameter set builds the library's table and is reported as cold."""
    out, cold, table_entries = [], 0.0, 0
    for entry in entries:
        params = paths.make_params(*entry["params"])
        words = [paths.parse_word(w, params) for w in entry["words"]]
        table_entries += paths.count_dyck(params)
        preimages = []
        for i, word in enumerate(words):
            item = tr.open("item", parent)
            preimages.append(tr.call(item, "sweeping.unsweep", sweeping.unsweep, word).text)
            tr.close(item)
            if i == 0:
                _, start, end = tr.spans[-1][:3]
                cold += end - start
        out.append({"params": entry["params"], "preimages": preimages})
    return {"sets": out, "cold_s": cold, "table_entries": table_entries}


def task_trace(spec):
    """One traced replay of a workload's per-item pipeline."""
    tr = Tracer(spec["pass"])
    top = tr.open("pass", None)
    workload = spec["workload"]
    if workload == "unsweep":
        result = replay_unsweep(tr, spec["sets"], top)
    elif workload == "enumerate":
        result = replay_records(tr, paths.make_params(*spec["sets"][0]), top)
    else:
        result = {"sets": [replay_checks(tr, paths.make_params(*p), top) for p in spec["sets"]]}
    tr.close(top)
    result["seconds"] = tr.spans[top][2] - tr.spans[top][1]
    result["layers"] = tr.layers()
    tr.write(spec["spans_file"])
    return result


TASKS = {"verify": task_verify, "unsweep": task_unsweep, "cli": task_cli, "trace": task_trace}

if __name__ == "__main__":
    spec = json.load(sys.stdin)
    result = TASKS[sys.argv[1]](spec)
    result["sweeplab_file"] = paths.__file__
    sys.stdout.write(json.dumps(result) + "\n")
