"""CLI behavior: golden outputs, exit codes, determinism, entry point."""

import json
import os
import subprocess
import sys

import pytest

import sweeplab.recursion
import sweeplab.stats
import sweeplab.sweeping
import sweeplab.verify
from sweeplab import RemovalMove, enumerate_dyck, make_params, run_checks
from sweeplab.cli import main
from conftest import PARAM_SETS, WIDE_SETS, all_dyck, golden_bytes, subprocess_env

JSONL_KEYS = ["word", "m", "n", "d", "area", "dinv", "sweep"]


def reference_line(word, fmt):
    """The output line of `word` in `fmt`, built from the public wrappers
    and sweep without the CLI's templates: json.dumps of the record for
    JSONL, an f-string for CSV and text."""
    p = word.params
    area = sweeplab.stats.area_cells(word)
    dinv = sweeplab.stats.dinv_pairs(word)
    image = sweeplab.sweeping.sweep(word).text
    if fmt == "jsonl":
        record = dict(zip(JSONL_KEYS, (word.text, p.m, p.n, p.d, area, dinv, image)))
        return json.dumps(record) + "\n"
    if fmt == "csv":
        return f"{word.text},{p.m},{p.n},{p.d},{area},{dinv},{image}\n"
    return f"{word.text} area={area} dinv={dinv} sweep={image}\n"


def run_cli(tmp_path, *args):
    """Invoke the CLI in-process, returning (exit code, output bytes)."""
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "golden,args",
        [
            ("stats_nenee.txt", ["stats", "--m", "3", "--n", "2", "--d", "1", "NENEE"]),
            ("stats_nneee.txt", ["stats", "--m", "3", "--n", "2", "--d", "1", "NNEEE"]),
            (
                "stats_nenee.jsonl",
                ["stats", "--m", "3", "--n", "2", "--d", "1", "--format", "jsonl", "NENEE"],
            ),
            ("enumerate.txt", ["enumerate", "--m", "3", "--n", "2", "--d", "1"]),
            (
                "enumerate.csv",
                ["enumerate", "--m", "3", "--n", "2", "--d", "1", "--format", "csv"],
            ),
            (
                "enumerate.jsonl",
                ["enumerate", "--m", "3", "--n", "2", "--d", "1", "--format", "jsonl"],
            ),
            ("table.txt", ["table", "--m", "3", "--n", "2", "--d", "1"]),
            ("table.csv", ["table", "--m", "3", "--n", "2", "--d", "1", "--format", "csv"]),
            ("verify.txt", ["verify", "--m", "3", "--n", "2", "--d", "1"]),
            (
                "render_grid_nenee.svg",
                ["render", "--m", "3", "--n", "2", "--d", "1", "NENEE"],
            ),
            (
                "render_diagram_nenee_h3.svg",
                [
                    "render", "--m", "3", "--n", "2", "--d", "1",
                    "--style", "diagram", "--highlight", "3", "NENEE",
                ],
            ),
            (
                "render_diagram_nneee.svg",
                ["render", "--m", "3", "--n", "2", "--d", "1", "--style", "diagram", "NNEEE"],
            ),
        ],
    )
    def test_byte_identical(self, tmp_path, golden, args):
        code, out = run_cli(tmp_path, *args)
        assert code == 0
        assert out == golden_bytes(golden)

    def test_jsonl_key_order(self, tmp_path):
        _, out = run_cli(
            tmp_path, "enumerate", "--m", "3", "--n", "2", "--d", "1", "--format", "jsonl"
        )
        first = out.decode().splitlines()[0]
        assert list(json.loads(first)) == JSONL_KEYS


class TestJsonlLines:
    """The output lines against reference_line of each word."""

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_enumerate_lines_equal_json_dumps(self, tmp_path, m, n, d):
        code, out = run_cli(
            tmp_path, "enumerate", "--m", str(m), "--n", str(n), "--d", str(d),
            "--format", "jsonl",
        )
        assert code == 0
        lines = out.decode().splitlines(keepends=True)
        words = all_dyck(m, n, d)
        assert lines == [reference_line(word, "jsonl") for word in words]
        assert all(list(json.loads(line)) == JSONL_KEYS for line in lines)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_enumerate_lines_equal_the_word_records(self, tmp_path, m, n, d, fmt):
        # enumerate reads the walk through the kernels; each word's
        # reference_line, from the public wrappers and sweep, is the reference
        code, out = run_cli(
            tmp_path, "enumerate", "--m", str(m), "--n", str(n), "--d", str(d),
            "--format", fmt,
        )
        assert code == 0
        lines = out.decode().splitlines(keepends=True)
        if fmt == "csv":
            assert lines.pop(0) == "word,m,n,d,area,dinv,sweep\n"
        words = all_dyck(m, n, d)
        assert lines == [reference_line(word, fmt) for word in words]

    def test_stats_lines_equal_json_dumps(self, tmp_path):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                _, out = run_cli(
                    tmp_path, "stats", "--m", str(m), "--n", str(n), "--d", str(d),
                    "--format", "jsonl", word.text,
                )
                line = out.decode()
                assert line == reference_line(word, "jsonl")
                assert list(json.loads(line)) == JSONL_KEYS


class TestStatsCommand:
    def test_token_values(self, tmp_path):
        _, out = run_cli(tmp_path, "stats", "--m", "3", "--n", "2", "--d", "1", "NENEE")
        text = out.decode()
        for token in ("area=0", "dinv=1", "image=NNEEE", "image_area=1"):
            assert token in text

    def test_synonym_alphabet_accepted(self, tmp_path):
        _, out = run_cli(tmp_path, "stats", "--m", "3", "--n", "2", "--d", "1", "SWSWW")
        assert b"word=NENEE" in out

    def test_non_dyck_exits_2(self, capsys):
        assert main(["stats", "--m", "3", "--n", "2", "--d", "1", "NEENE"]) == 2
        assert "not a Dyck path" in capsys.readouterr().err

    def test_non_dyck_jsonl_exits_2_before_any_output(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "stats", "--m", "3", "--n", "2", "--format", "jsonl", "NEENE"
        )
        assert (code, out) == (2, b"")
        assert "not a Dyck path: NEENE" in capsys.readouterr().err

    def test_non_coprime_exits_2(self, capsys):
        assert main(["stats", "--m", "4", "--n", "2", "--d", "1", "NENEE"]) == 2
        assert "share a factor" in capsys.readouterr().err

    def test_bad_counts_exits_2(self):
        assert main(["stats", "--m", "3", "--n", "2", "--d", "1", "NNEE"]) == 2


class TestEnumerateCommand:
    def test_record_counts(self, tmp_path):
        for (m, n, d), expected in [((3, 2, 1), 2), ((7, 5, 1), 66), ((1, 1, 2), 2)]:
            _, out = run_cli(
                tmp_path, "enumerate", "--m", str(m), "--n", str(n), "--d", str(d),
                "--format", "jsonl",
            )
            assert len(out.decode().splitlines()) == expected

    def test_limit_exits_3(self):
        assert main(["enumerate", "--m", "23", "--n", "21", "--d", "1"]) == 3

    def test_explicit_limit_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["enumerate", "--m", "3", "--n", "2", "--d", "1", "--limit", "4", "--out", str(out)]
        ) == 3
        # the limit is checked before the output file is opened
        assert not out.exists()

    def test_the_environment_sets_no_limit(self, tmp_path, monkeypatch):
        # --limit is the only override of the default cap
        for value in ("4", "plenty"):
            monkeypatch.setenv("SWEEPLAB_LIMIT", value)
            code, out = run_cli(tmp_path, "enumerate", "--m", "3", "--n", "2")
            assert code == 0 and len(out.splitlines()) == 2
            assert len(list(enumerate_dyck(make_params(3, 2)))) == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("m,n,d", PARAM_SETS)
    def test_passes_everywhere(self, tmp_path, m, n, d):
        code, out = run_cli(
            tmp_path, "verify", "--m", str(m), "--n", str(n), "--d", str(d)
        )
        assert code == 0
        assert out.decode().strip().endswith("PASS")

    def test_jobs_do_not_change_output(self, tmp_path):
        baseline = run_cli(tmp_path, "verify", "--m", "7", "--n", "5", "--d", "1")
        for jobs in ("2", "3"):
            assert run_cli(
                tmp_path, "verify", "--m", "7", "--n", "5", "--d", "1", "--jobs", jobs
            ) == baseline

    def test_jobs_run_clean_with_every_warning_shown(self):
        # the fork and its pipes must warn of nothing, no ResourceWarning
        # and no DeprecationWarning, and must not change stdout.  Warnings
        # are printed (-W always) and stderr required empty, as in the CI
        # smoke: under -W error, CPython 3.12 and later clear the exception
        # that the fork-with-threads DeprecationWarning raises after the
        # fork, so a thread started before it would go unseen
        def verify(jobs):
            return subprocess.run(
                [sys.executable, "-W", "always", "-m", "sweeplab", "verify",
                 "--m", "7", "--n", "5", "--jobs", jobs],
                capture_output=True,
                text=True,
                timeout=120,
                env=subprocess_env(),
            )

        serial, parallel = verify("1"), verify("2")
        assert (serial.returncode, serial.stderr) == (0, "")
        assert (parallel.returncode, parallel.stderr) == (0, "")
        assert parallel.stdout == serial.stdout

    def test_broken_dinv_is_caught(self, tmp_path, monkeypatch):
        # mutation test: a statistic that lies must surface as a named
        # counterexample and exit code 1
        true_dinv = sweeplab.stats.dinv_pairs
        monkeypatch.setattr(
            sweeplab.stats, "dinv_pairs", lambda word: true_dinv(word) + 1
        )
        code, out = run_cli(tmp_path, "verify", "--m", "3", "--n", "2", "--d", "1")
        assert code == 1
        text = out.decode()
        assert "FAIL dinv-sweeps-to-area: word=" in text
        assert text.strip().endswith("FAIL (3 of 13 checks)")

    def test_broken_area_is_caught(self, tmp_path, monkeypatch):
        true_area = sweeplab.stats.area_cells
        monkeypatch.setattr(
            sweeplab.stats, "area_cells", lambda word: true_area(word) + 2
        )
        code, out = run_cli(tmp_path, "verify", "--m", "3", "--n", "2", "--d", "1")
        assert code == 1
        assert b"FAIL area-formula: word=NNEEE" in out


class TestBrokenKernels:
    """A statistic off by one on the words starting NE is caught by verify,
    which counts one word at a time with area_cells and dinv_pairs, and
    changes what enumerate and table, which read the walk's running sums,
    write."""

    @pytest.mark.parametrize(
        "kernel,checks",
        [
            ("dinv_pairs", {"dinv-formulations", "dinv-sweeps-to-area"}),
            ("area_cells", {"area-formula"}),
        ],
    )
    def test_verify_sees_a_broken_kernel(self, monkeypatch, kernel, checks):
        true_kernel = getattr(sweeplab.stats, kernel)

        def broken(word):
            return true_kernel(word) + word.text.startswith("NE")

        monkeypatch.setattr(sweeplab.stats, kernel, broken)
        results = run_checks(make_params(5, 3, 1))
        assert checks <= {r.name for r in results if not r.passed}

    @pytest.mark.parametrize("statistic", ["area", "dinv"])
    def test_enumerate_and_table_see_broken_running_sums(
        self, tmp_path, monkeypatch, statistic
    ):
        commands = [
            ("enumerate", "--m", "5", "--n", "3", "--format", "jsonl"),
            ("table", "--m", "5", "--n", "3", "--format", "csv"),
        ]
        healthy = [run_cli(tmp_path, *args) for args in commands]
        true_counts = sweeplab.stats._walk_counts

        def broken(params):
            for steps, swept, area, dinv in true_counts(params):
                off = steps[0] == "N" and steps[1] == "E"
                if statistic == "area":
                    area += off
                else:
                    dinv += off
                yield steps, swept, area, dinv

        monkeypatch.setattr(sweeplab.stats, "_walk_counts", broken)
        for args, (code, out) in zip(commands, healthy):
            assert run_cli(tmp_path, *args) != (code, out), args[0]


class TestLibraryFaults:
    """A library error that no input explains, raised inside a command, is
    one error line and exit 1, not a traceback."""

    @pytest.mark.parametrize("jobs", [
        "1",
        pytest.param("2", marks=pytest.mark.skipif(not hasattr(os, "fork"),
                                                   reason="needs os.fork")),
    ])
    def test_a_shifted_move_exits_1(self, jobs, tmp_path, monkeypatch, capsys):
        # each move reported one column to the right: the first path, the
        # corner, offers a North step at 6 whose shifted move is refused
        true_moves = sweeplab.recursion.valid_moves
        monkeypatch.setattr(
            sweeplab.recursion, "valid_moves",
            lambda word: [RemovalMove(p + 1, k) for p, k in true_moves(word)],
        )
        code, out = run_cli(
            tmp_path, "verify", "--m", "5", "--n", "3", "--d", "2", "--jobs", jobs
        )
        assert (code, out) == (1, b"")
        assert capsys.readouterr().err == (
            "sweeplab: error: no North-East pair at position 7 of NNNNNNEEEEEEEEEE\n"
        )

    def test_an_empty_inverse_table_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sweeplab.sweeping, "_inverse_table", lambda params: ({}, []))
        code, out = run_cli(tmp_path, "unsweep", "--m", "3", "--n", "2", "NNEEE")
        assert (code, out) == (1, b"")
        assert capsys.readouterr().err == (
            "sweeplab: error: no sweep preimage recorded for NNEEE\n"
        )


class TestTableCommand:
    def test_verdict_line(self, tmp_path):
        _, out = run_cli(tmp_path, "table", "--m", "5", "--n", "3", "--d", "1")
        assert out.decode().strip().endswith("marginals: EQUAL")


class TestRenderCommand:
    def test_grid_marks_one_dinv_cell(self, tmp_path):
        _, out = run_cli(tmp_path, "render", "--m", "3", "--n", "2", "--d", "1", "NENEE")
        assert out.decode().count("#ccebc5") == 1

    def test_diagram_arrow_counts(self, tmp_path):
        _, out = run_cli(
            tmp_path, "render", "--m", "3", "--n", "2", "--d", "1",
            "--style", "diagram", "NNEEE",
        )
        text = out.decode()
        assert text.count('stroke="#cc2222"') == 2 * 3  # 2 up arrows
        assert text.count('stroke="#2244cc"') == 3 * 3  # 3 down arrows
        assert "#22aa44" not in text  # no green line without --highlight

    def test_diagram_highlight_draws_green_line(self, tmp_path):
        _, out = run_cli(
            tmp_path, "render", "--m", "3", "--n", "2", "--d", "1",
            "--style", "diagram", "--highlight", "3", "NENEE",
        )
        assert b"#22aa44" in out

    def test_invalid_word_exits_2(self):
        assert main(["render", "--m", "3", "--n", "2", "--d", "1", "NEENE"]) == 2

    def test_invalid_highlight_exits_4(self, capsys):
        assert (
            main(
                ["render", "--m", "3", "--n", "2", "--d", "1",
                 "--style", "diagram", "--highlight", "9", "NENEE"]
            )
            == 4
        )

    def test_highlight_with_grid_style_exits_4(self):
        assert (
            main(["render", "--m", "3", "--n", "2", "--d", "1", "--highlight", "2", "NENEE"])
            == 4
        )

    def test_non_dyck_word_beats_the_highlight_misuse(self, capsys):
        assert main(["render", "--m", "3", "--n", "2", "--highlight", "2", "NEENE"]) == 2
        assert "not a Dyck path: NEENE" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep(self, tmp_path):
        _, out = run_cli(tmp_path, "sweep", "--m", "3", "--n", "2", "--d", "1", "NENEE")
        assert out == b"NNEEE\n"

    def test_unsweep(self, tmp_path):
        _, out = run_cli(tmp_path, "unsweep", "--m", "3", "--n", "2", "--d", "1", "NNEEE")
        assert out == b"NENEE\n"

    def test_unsweep_of_more_than_64_steps(self, tmp_path):
        # the table's image codes are ints of any width
        word = "N" + "E" * 65
        code, out = run_cli(tmp_path, "unsweep", "--m", "65", "--n", "1", "--limit", "66", word)
        assert (code, out) == (0, f"{word}\n".encode())

    def test_unsweep_non_dyck_exits_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "unsweep", "--m", "3", "--n", "2", "NEENE")
        assert (code, out) == (2, b"")
        assert "not a Dyck path: NEENE" in capsys.readouterr().err

    def test_roundtrip_all_paths(self, tmp_path):
        _, listing = run_cli(
            tmp_path, "enumerate", "--m", "5", "--n", "3", "--d", "1", "--format", "jsonl"
        )
        for line in listing.decode().splitlines():
            rec = json.loads(line)
            _, back = run_cli(
                tmp_path, "unsweep", "--m", "5", "--n", "3", "--d", "1", rec["sweep"]
            )
            assert back.decode().strip() == rec["word"]


class TestUsageErrors:
    def test_unknown_command_exits_4(self, capsys):
        assert main(["bogus"]) == 4

    def test_missing_required_flag_exits_4(self, capsys):
        assert main(["stats", "--m", "3", "NENEE"]) == 4

    def test_bad_format_choice_exits_4(self, capsys):
        assert main(["enumerate", "--m", "3", "--n", "2", "--format", "svg"]) == 4

    def test_removed_flags_exit_4(self, capsys):
        assert main(["enumerate", "--m", "3", "--n", "2", "--jobs", "2"]) == 4
        assert main(["render", "--m", "3", "--n", "2", "--format", "svg", "NENEE"]) == 4

    def test_non_positive_limit_flag_exits_4(self, capsys):
        # a flag misuse, not an exceeded limit
        for command in (["enumerate"], ["verify"], ["unsweep", "NNEEE"]):
            for limit in ("0", "-5"):
                argv = [command[0], "--m", "3", "--n", "2", "--limit", limit, *command[1:]]
                assert main(argv) == 4
                assert "positive integer" in capsys.readouterr().err

    def test_non_positive_jobs_exit_4(self, capsys):
        for jobs in ("0", "-3"):
            assert main(["verify", "--m", "3", "--n", "2", "--jobs", jobs]) == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert "jobs must be a positive integer" in err

    @pytest.mark.parametrize(
        "command", [["stats", "NENEE"], ["sweep", "NENEE"], ["render", "NENEE"]]
    )
    def test_limit_is_refused_where_nothing_is_enumerated(self, command, capsys):
        argv = [command[0], "--m", "3", "--n", "2", "--limit", "0", *command[1:]]
        assert main(argv) == 4
        assert "unrecognized arguments: --limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["stats", "NENEE"], ["enumerate"], ["unsweep", "NNEEE"]]
    )
    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_unopenable_out_exits_4(self, command, target, tmp_path, capsys):
        out = str(tmp_path / target)
        argv = [command[0], "--m", "3", "--n", "2", *command[1:], "--out", out]
        assert main(argv) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("sweeplab: error: cannot open --out ")

    @pytest.mark.parametrize("command", ["verify", "table", "unsweep"])
    def test_unopenable_out_exits_4_before_the_pass(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def no_pass(*args, **kwargs):
            raise AssertionError("the pass ran before --out was opened")

        monkeypatch.setattr(sweeplab.verify, "run_checks", no_pass)
        monkeypatch.setattr(sweeplab.stats, "joint_distribution", no_pass)
        monkeypatch.setattr(sweeplab.sweeping, "_inverse_table", no_pass)
        word = ["N" * 8 + "E" * 13] if command == "unsweep" else []
        out = str(tmp_path / "missing" / "out.txt")
        assert main([command, *word, "--m", "13", "--n", "8", "--out", out]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("sweeplab: error: cannot open --out ")

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify", "--jobs", "0"], 4),
            (["verify", "--limit", "0"], 4),
            (["verify", "--limit", "4"], 3),
            (["table", "--limit", "0"], 4),
            (["table", "--limit", "4"], 3),
            (["unsweep", "ENNEE"], 2),
            (["unsweep", "NNEEE", "--limit", "0"], 4),
            (["unsweep", "NNEEE", "--limit", "4"], 3),
        ],
    )
    def test_refused_input_leaves_no_file(self, argv, code, tmp_path):
        out = tmp_path / "out"
        assert main([*argv, "--m", "3", "--n", "2", "--out", str(out)]) == code
        assert not out.exists()


class TestConsoleEntryPoint:
    def test_closed_pipe_exits_4_without_a_traceback(self):
        # `sweeplab enumerate --m 14 --n 9 | head -1`: the reader closes the
        # pipe after one line, long before the 2 MB of output is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "sweeplab", "enumerate", "--m", "14", "--n", "9"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 4
        assert first == b"NNNNNNNNNEEEEEEEEEEEEEE area=52 dinv=0 sweep=NENEENENEENENEENENEENEE\n"
        assert "Traceback" not in stderr
        assert stderr == "sweeplab: error: cannot write the output: Broken pipe\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sweeplab", "verify", "--m", "3", "--n", "2", "--d", "1"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "13 checks x 2 paths: PASS"

    # The sweeplab modules each entry point loads: `import sweeplab` alone,
    # then `python -m sweeplab` with each command.  A command loads what it
    # runs, so enumerate and table never compile the checks.
    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], []),
            (["enumerate", "--m", "3", "--n", "2"], ["cli", "errors", "paths", "stats"]),
            (["table", "--m", "3", "--n", "2"], ["cli", "errors", "paths", "stats"]),
            (["sweep", "--m", "3", "--n", "2", "NENEE"],
             ["cli", "errors", "paths", "stats", "sweeping"]),
            (["unsweep", "--m", "3", "--n", "2", "NENEE"],
             ["cli", "errors", "paths", "stats", "sweeping"]),
            (["stats", "--m", "3", "--n", "2", "NENEE"],
             ["cli", "errors", "paths", "stats", "sweeping"]),
            (["verify", "--m", "3", "--n", "2"],
             ["cli", "diagram", "errors", "paths", "recursion", "stats", "sweeping",
              "verify"]),
        ],
        ids=["import", "enumerate", "table", "sweep", "unsweep", "stats", "verify"],
    )
    def test_each_entry_point_loads_only_what_it_runs(self, argv, loaded):
        script = (
            "import runpy, sys\n"
            "if sys.argv[1:]:\n"
            "    try:\n"
            "        runpy.run_module('sweeplab', run_name='__main__')\n"
            "    except SystemExit as stop:\n"
            "        assert stop.code == 0, stop.code\n"
            "else:\n"
            "    import sweeplab\n"
            "print(sorted(name[9:] for name in sys.modules if name.startswith('sweeplab.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == repr(loaded)
