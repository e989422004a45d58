"""Command-line surface.

    sweeplab stats     --m M --n N [--d D] [--format text|jsonl] [--out FILE] WORD
    sweeplab enumerate --m M --n N [--d D] [--limit L] [--format text|csv|jsonl]
                       [--out FILE]
    sweeplab verify    --m M --n N [--d D] [--limit L] [--jobs J] [--out FILE]
    sweeplab table     --m M --n N [--d D] [--limit L] [--format text|csv]
                       [--out FILE]
    sweeplab render    --m M --n N [--d D] [--style grid|diagram]
                       [--highlight STEP] [--out FILE] WORD
    sweeplab sweep     --m M --n N [--d D] [--out FILE] WORD
    sweeplab unsweep   --m M --n N [--d D] [--limit L] [--out FILE] WORD

Exit codes: 0 success, 1 verification counterexample, 2 input error,
3 enumeration limit exceeded, 4 flag misuse.  A library error that no
input explains (InvalidMove, NotInImage and the like) exits 1 too, with
one error line and no traceback.  --limit, taken only by the commands
that enumerate, overrides the default enumeration cap.  It must be a
positive integer, and so must --jobs; anything else exits 4, as does an
--out FILE that cannot be opened, or a stdout whose reader closed the pipe
before the output was written (`sweeplab enumerate ... | head -1`).
enumerate, verify, table and unsweep check their input, then open --out,
then run their pass over the enumeration (for unsweep, the build of its
inverse table): a refused input leaves no file, and an unopenable --out
costs no pass.

Each command imports what it runs: verify loads the checks and the
removal-move recursions, render the SVG drawing, and stats, sweep and
unsweep the sweep map.  enumerate and table run on the enumeration walk
alone, so they load none of these.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import paths, stats
from .errors import (
    BadCounts,
    BadLetter,
    IndexOutOfRange,
    LimitExceeded,
    NonCoprime,
    NonPositive,
    NotDyck,
    SweeplabError,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


#: The exit code of an error that main reports in one line: that of the
#: first entry whose types the error is an instance of, so any library
#: error not named before the last entry exits 1.
_EXIT_CODES = (
    ((NonPositive, NonCoprime, BadLetter, BadCounts, NotDyck), EXIT_INPUT),
    (LimitExceeded, EXIT_LIMIT),
    ((IndexOutOfRange, _UsageError, ValueError), EXIT_USAGE),
    (SweeplabError, EXIT_COUNTEREXAMPLE),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sweeplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, word=False, limit=False):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, default=1)
        if limit:
            p.add_argument("--limit", type=int, default=None)
        p.add_argument("--out", default=None)
        if word:
            p.add_argument("word")

    p = sub.add_parser("stats", help="statistics of one path")
    common(p, word=True)
    p.add_argument("--format", choices=["text", "jsonl"], default="text")

    p = sub.add_parser("enumerate", help="list every Dyck path with its statistics")
    common(p, limit=True)
    p.add_argument("--format", choices=["text", "csv", "jsonl"], default="text")

    p = sub.add_parser("verify", help="run every identity check exhaustively")
    common(p, limit=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="forked worker processes for the per-path checks (default 1); "
        "a positive integer, clamped to the available CPUs and the path "
        "count, serial where fork is unavailable",
    )

    p = sub.add_parser("table", help="joint (area, dinv) distribution")
    common(p, limit=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = sub.add_parser("render", help="SVG picture of a path")
    common(p, word=True)
    p.add_argument("--style", choices=["grid", "diagram"], default="grid")
    p.add_argument("--highlight", type=int, default=None)

    p = sub.add_parser("sweep", help="sweep map image of a word")
    common(p, word=True)

    p = sub.add_parser("unsweep", help="sweep map preimage of a Dyck word")
    common(p, word=True, limit=True)

    return parser


def _output(out: str | None):
    """The stream to write to, as a context manager: stdout, or the file
    `out`; a file that cannot be opened is a flag misuse."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot open --out {out}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


#: The output line of one path, per format: `enumerate` uses each of them
#: and `stats --format jsonl` the JSONL one.  m, n and d are str.format
#: fields, filled once per run by _line; the word, area, dinv and sweep
#: image are %-fields, in that order, filled once per path.  The JSONL line
#: is json.dumps of a dict with its keys in this order; no value needs
#: escaping, since a word is letters N and E and every other value an int.
_LINES = {
    "jsonl": (
        '{{"word": "%s", "m": {m}, "n": {n}, "d": {d}, '
        '"area": %d, "dinv": %d, "sweep": "%s"}}\n'
    ),
    "csv": "%s,{m},{n},{d},%d,%d,%s\n",
    "text": "%s area=%d dinv=%d sweep=%s\n",
}


def _line(fmt: str, params: paths.Params) -> str:
    """The _LINES template of `fmt` with m, n and d filled in."""
    return _LINES[fmt].format(m=params.m, n=params.n, d=params.d)


def _cmd_stats(args, params) -> int:
    from . import sweeping

    word = paths.parse_word(args.word, params)
    image = sweeping.sweep(word)
    # both formats call area_cells, which refuses a non-Dyck word, before any output
    if args.format == "jsonl":
        line = _line("jsonl", params) % (
            word.text, stats.area_cells(word), stats.dinv_pairs(word), image.text
        )
        _emit(line, args.out)
        return EXIT_OK
    lines = [
        f"word={word.text}",
        "ranks=" + ",".join(str(r) for r in paths.start_ranks(word)),
        f"area={stats.area_cells(word)}",
        f"area_formula={stats.area_rank_formula(word)}",
        f"dinv={stats.dinv_pairs(word)}",
        f"dinv_cells={stats.dinv_cells(word)}",
        f"image={image.text}",
        f"image_area={stats.area_cells(image)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_enumerate(args, params) -> int:
    paths.check_step_limit(params, args.limit)  # before the output is opened
    line = _line(args.format, params)
    # The walk yields only Dyck paths with the right letter counts, so no
    # word is built and no path checked or sorted: area and dinv come as the
    # running sums of stats._walk_counts, and the image from the walk's
    # buffer, with its empty slots removed.
    with _output(args.out) as fh:
        write = fh.write
        if args.format == "csv":
            write("word,m,n,d,area,dinv,sweep\n")
        for steps, swept, area, dinv in stats._walk_counts(params):
            write(line % ("".join(steps), area, dinv, swept.translate(None, b"\0").decode()))
    return EXIT_OK


def _cmd_verify(args, params) -> int:
    from . import verify

    verify.check_jobs(args.jobs)  # run_checks' own input checks,
    paths.check_step_limit(params, args.limit)  # before the output is opened
    with _output(args.out) as fh:
        results = verify.run_checks(params, args.limit, jobs=args.jobs)
        n_paths = next(r.checked for r in results if r.name == "dinv-sweeps-to-area")
        lines = []
        failed = [r for r in results if not r.passed]
        for result in failed:
            first = result.failures[0]
            more = len(result.failures) - 1
            suffix = f" (and {more} more)" if more else ""
            lines.append(f"FAIL {result.name}: {first}{suffix}")
        verdict = "PASS" if not failed else f"FAIL ({len(failed)} of {len(results)} checks)"
        lines.append(f"{len(results)} checks x {n_paths} paths: {verdict}")
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if not failed else EXIT_COUNTEREXAMPLE


def _cmd_table(args, params) -> int:
    paths.check_step_limit(params, args.limit)  # before the output is opened
    with _output(args.out) as fh:
        table = stats.joint_distribution(params, args.limit)
        verdict = "EQUAL" if table.marginals_agree() else "DIFFERENT"
        if args.format == "csv":
            fh.write(table.to_csv() + f"# marginals: {verdict}\n")
        else:
            fh.write(table.to_matrix_text() + f"marginals: {verdict}\n")
    return EXIT_OK


def _cmd_render(args, params) -> int:
    from . import render  # only this command draws, so no other pays its import

    word = paths.parse_word(args.word, params)
    paths.require_dyck(word)  # a non-Dyck word exits 2 before a --highlight misuse
    if args.style == "grid":
        if args.highlight is not None:
            raise _UsageError("--highlight only applies to --style diagram")
        text = render.render_grid(word)
    else:
        text = render.render_diagram(word, args.highlight)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_sweep(args, params) -> int:
    from . import sweeping

    word = paths.parse_word(args.word, params)
    _emit(sweeping.sweep(word).text + "\n", args.out)
    return EXIT_OK


def _cmd_unsweep(args, params) -> int:
    from . import sweeping

    word = paths.parse_word(args.word, params)
    paths.require_dyck(word)  # unsweep's own input checks,
    paths.check_step_limit(params, args.limit)  # before the output is opened
    with _output(args.out) as fh:
        fh.write(sweeping.unsweep(word, args.limit).text + "\n")
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "render": _cmd_render,
    "sweep": _cmd_sweep,
    "unsweep": _cmd_unsweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        params = paths.make_params(args.m, args.n, args.d)
        code = _COMMANDS[args.command](args, params)
        sys.stdout.flush()  # a closed pipe shows here at the latest
        return code
    except BrokenPipeError as exc:
        print(f"sweeplab: error: cannot write the output: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (SweeplabError, _UsageError, ValueError) as exc:
        print(f"sweeplab: error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main reported the closed pipe; what is left in the buffer goes to
        # os.devnull, so the interpreter's final flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
