"""Command-line surface.

    sweeplab stats     --m M --n N [--d D] [--format text|jsonl] WORD
    sweeplab enumerate --m M --n N [--d D] [--limit L] [--format text|csv|jsonl]
    sweeplab verify    --m M --n N [--d D] [--limit L] [--jobs J]
    sweeplab table     --m M --n N [--d D] [--limit L] [--format text|csv]
    sweeplab render    --m M --n N [--d D] [--style grid|diagram]
                       [--highlight STEP] WORD
    sweeplab sweep     --m M --n N [--d D] WORD
    sweeplab unsweep   --m M --n N [--d D] [--limit L] WORD

Exit codes: 0 success, 1 verification counterexample, 2 input error,
3 enumeration limit exceeded, 4 flag misuse.  --limit, taken only by the
commands that enumerate, overrides the default enumeration cap.  It must be
a positive integer, and so must --jobs; anything else exits 4, as does an
--out FILE that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import paths, render, stats, verify
from . import sweeping
from .errors import (
    BadCounts,
    BadLetter,
    IndexOutOfRange,
    LimitExceeded,
    NonCoprime,
    NonPositive,
    NotDyck,
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


#: The output line of one _record, per format: `enumerate` uses each of them
#: and `stats --format jsonl` the JSONL one.  The JSONL line is json.dumps of
#: the record, keys in _record order; no value needs escaping, since a word
#: is letters N and E and every other value an int.
_LINES = {
    "jsonl": (
        '{{"word": "{word}", "m": {m}, "n": {n}, "d": {d}, '
        '"area": {area}, "dinv": {dinv}, "sweep": "{sweep}"}}\n'
    ),
    "csv": "{word},{m},{n},{d},{area},{dinv},{sweep}\n",
    "text": "{word} area={area} dinv={dinv} sweep={sweep}\n",
}


def _record(word, image=None):
    image = sweeping.sweep(word) if image is None else image
    p = word.params
    return {
        "word": word.text,
        "m": p.m,
        "n": p.n,
        "d": p.d,
        "area": stats.area_cells(word),
        "dinv": stats.dinv_pairs(word),
        "sweep": image.text,
    }


def _cmd_stats(args, params) -> int:
    word = paths.parse_word(args.word, params)
    image = sweeping.sweep(word)
    # both formats call area_cells, which refuses a non-Dyck word, before any output
    if args.format == "jsonl":
        _emit(_LINES["jsonl"].format_map(_record(word, image)), args.out)
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
    # enumerate_dyck checks the limit here, before the output is opened
    words = paths.enumerate_dyck(params, args.limit)
    line = _LINES[args.format]
    with _output(args.out) as fh:
        if args.format == "csv":
            fh.write("word,m,n,d,area,dinv,sweep\n")
        for word in words:
            fh.write(line.format_map(_record(word)))
    return EXIT_OK


def _cmd_verify(args, params) -> int:
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
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if not failed else EXIT_COUNTEREXAMPLE


def _cmd_table(args, params) -> int:
    table = stats.joint_distribution(params, args.limit)
    verdict = "EQUAL" if table.marginals_agree() else "DIFFERENT"
    if args.format == "csv":
        text = table.to_csv() + f"# marginals: {verdict}\n"
    else:
        text = table.to_matrix_text() + f"marginals: {verdict}\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_render(args, params) -> int:
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
    word = paths.parse_word(args.word, params)
    _emit(sweeping.sweep(word).text + "\n", args.out)
    return EXIT_OK


def _cmd_unsweep(args, params) -> int:
    word = paths.parse_word(args.word, params)
    _emit(sweeping.unsweep(word, args.limit).text + "\n", args.out)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"sweeplab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = paths.make_params(args.m, args.n, args.d)
        return _COMMANDS[args.command](args, params)
    except (NonPositive, NonCoprime, BadLetter, BadCounts, NotDyck) as exc:
        print(f"sweeplab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitExceeded as exc:
        print(f"sweeplab: error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (IndexOutOfRange, _UsageError, ValueError) as exc:
        print(f"sweeplab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
