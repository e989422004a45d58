"""Command-line surface.

    sweeplab stats     --m M --n N [--d D] WORD
    sweeplab enumerate --m M --n N [--d D] [--format text|csv|jsonl]
    sweeplab verify    --m M --n N [--d D] [--jobs J]
    sweeplab table     --m M --n N [--d D] [--format text|csv]
    sweeplab render    --m M --n N [--d D] [--style grid|diagram]
                       [--highlight STEP] WORD
    sweeplab sweep     --m M --n N [--d D] WORD
    sweeplab unsweep   --m M --n N [--d D] WORD

Exit codes: 0 success, 1 verification counterexample, 2 input error,
3 enumeration limit exceeded, 4 flag misuse.  The environment variable
SWEEPLAB_LIMIT overrides the default enumeration cap; --limit overrides
both.
"""

from __future__ import annotations

import argparse
import json
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

    def common(p, word=False):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--limit", type=int, default=None)
        p.add_argument("--out", default=None)
        if word:
            p.add_argument("word")

    p = sub.add_parser("stats", help="statistics of one path")
    common(p, word=True)
    p.add_argument("--format", choices=["text", "jsonl"], default="text")

    p = sub.add_parser("enumerate", help="list every Dyck path with its statistics")
    common(p)
    p.add_argument("--format", choices=["text", "csv", "jsonl"], default="text")

    p = sub.add_parser("verify", help="run every identity check exhaustively")
    common(p)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("table", help="joint (area, dinv) distribution")
    common(p)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = sub.add_parser("render", help="SVG picture of a path")
    common(p, word=True)
    p.add_argument("--style", choices=["grid", "diagram"], default="grid")
    p.add_argument("--highlight", type=int, default=None)

    p = sub.add_parser("sweep", help="sweep map image of a word")
    common(p, word=True)

    p = sub.add_parser("unsweep", help="sweep map preimage of a Dyck word")
    common(p, word=True)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    paths.require_dyck(word)
    image = sweeping.sweep(word)
    if args.format == "jsonl":
        _emit(json.dumps(_record(word, image)) + "\n", args.out)
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
    lines = []
    if args.format == "csv":
        lines.append("word,m,n,d,area,dinv,sweep")
    for word in paths.enumerate_dyck(params, args.limit):
        rec = _record(word)
        if args.format == "jsonl":
            lines.append(json.dumps(rec))
        elif args.format == "csv":
            lines.append(
                f"{rec['word']},{rec['m']},{rec['n']},{rec['d']},"
                f"{rec['area']},{rec['dinv']},{rec['sweep']}"
            )
        else:
            lines.append(
                f"{rec['word']} area={rec['area']} dinv={rec['dinv']} "
                f"sweep={rec['sweep']}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args, params) -> int:
    results = verify.run_checks(params, args.limit, jobs=max(1, args.jobs))
    n_paths = paths.count_dyck(params)
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
    paths.require_dyck(word)
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
    paths.require_dyck(word)
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
