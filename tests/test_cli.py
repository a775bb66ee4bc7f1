"""End-to-end CLI behavior through the real entry point."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

from fubuki import ClueSet, build_shift_table, count_solutions
from fubuki.cli import main
from internals import parsed_options

TWO_SOLUTION_PUZZLE = {
    "prescribed": [
        {"row": 1, "col": 1, "value": 1},
        {"row": 2, "col": 2, "value": 2},
        {"row": 3, "col": 3, "value": 3},
    ],
    "row_sums": [10, 15, 20],
    "col_sums": [16, 15, 14],
}
UNIQUE_PUZZLE = {
    "prescribed": [
        {"row": 1, "col": 1, "value": 1},
        {"row": 2, "col": 2, "value": 2},
        {"row": 3, "col": 3, "value": 3},
    ],
    "row_sums": [11, 14, 20],
    "col_sums": [14, 15, 16],
}


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fubuki", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_puzzle(tmp_path, payload) -> str:
    path = tmp_path / "puzzle.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolve:
    def test_two_solutions_with_all(self, tmp_path):
        result = run_cli("solve", write_puzzle(tmp_path, TWO_SOLUTION_PUZZLE), "--all")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert json.loads(lines[0]) == {"cells": [[1, 4, 5], [7, 2, 6], [8, 9, 3]]}
        assert json.loads(lines[1]) == {"cells": [[1, 5, 4], [6, 2, 7], [9, 8, 3]]}
        assert lines[2] == "2 solutions"

    def test_first_solution_only_by_default(self, tmp_path):
        result = run_cli("solve", write_puzzle(tmp_path, TWO_SOLUTION_PUZZLE))
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"cells": [[1, 4, 5], [7, 2, 6], [8, 9, 3]]}
        assert lines[1] == "2 solutions"

    def test_unique_puzzle(self, tmp_path):
        result = run_cli("solve", write_puzzle(tmp_path, UNIQUE_PUZZLE))
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert json.loads(lines[0]) == {"cells": [[1, 4, 6], [5, 2, 7], [8, 9, 3]]}
        assert lines[1] == "1 solution"

    def test_no_solution_exits_2(self, tmp_path):
        bad = dict(TWO_SOLUTION_PUZZLE, row_sums=[10, 15, 19])
        result = run_cli("solve", write_puzzle(tmp_path, bad))
        assert result.returncode == 2
        assert result.stdout.strip() == "0 solutions"

    def test_reads_stdin(self):
        result = run_cli("solve", "-", stdin=json.dumps(UNIQUE_PUZZLE))
        assert result.returncode == 0
        assert "1 solution" in result.stdout

    def test_malformed_json_exits_1_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"prescribed": [,]}')
        result = run_cli("solve", str(path))
        assert result.returncode == 1
        assert "line 1" in result.stderr

    def test_deeply_nested_json_exits_1_without_traceback(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        result = run_cli("solve", str(path))
        assert result.returncode == 1
        assert "deep.json" in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_utf8_file_exits_1_naming_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        result = run_cli("solve", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith(f"fubuki: {path}: ")
        assert "Traceback" not in result.stderr

    def test_integer_past_the_digit_limit_exits_1_naming_file(self, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text("9" * 5000)
        result = run_cli("solve", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith(f"fubuki: {path}: invalid JSON: ")
        assert "Traceback" not in result.stderr

    def test_non_utf8_stdin_exits_1_naming_stdin(self):
        # a strict UTF-8 stdin, whatever the locale would choose
        result = subprocess.run(
            [sys.executable, "-m", "fubuki", "solve", "-"],
            input=b"\xff\xfe{",
            capture_output=True,
            timeout=120,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert result.returncode == 1
        assert result.stderr.startswith(b"fubuki: <stdin>: ")
        assert b"Traceback" not in result.stderr

    def test_bad_field_exits_1_naming_field(self, tmp_path):
        bad = dict(TWO_SOLUTION_PUZZLE, row_sums=[10, 15])
        result = run_cli("solve", write_puzzle(tmp_path, bad))
        assert result.returncode == 1
        assert "row_sums" in result.stderr

    def test_missing_file_exits_1(self):
        result = run_cli("solve", "definitely-not-here.json")
        assert result.returncode == 1

    def test_pretty_renders_box(self, tmp_path):
        result = run_cli("solve", write_puzzle(tmp_path, UNIQUE_PUZZLE), "--pretty")
        assert result.returncode == 0
        assert "|  1 |  4 |  6 | = 11" in result.stdout
        assert " = 14 = 15 = 16" in result.stdout

    def test_limit_flag_reports_truncation(self, tmp_path):
        result = run_cli(
            "solve", write_puzzle(tmp_path, TWO_SOLUTION_PUZZLE), "--all", "--limit", "1"
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        assert lines[1] == "1+ solutions (limit 1 reached)"


class TestClassify:
    def test_rigid(self):
        result = run_cli("classify", "1", "3", "4")
        assert result.returncode == 0
        assert result.stdout.strip() == (
            "rigid: yes; shifts: none; solutions per puzzle: exactly 1"
        )

    def test_two_shifts(self):
        result = run_cli("classify", "1", "2", "3")
        assert result.returncode == 0
        assert result.stdout.strip() == (
            "rigid: no; shifts: 1,3; solutions per puzzle: 1 or 2"
        )

    def test_duplicate_values_exit_1(self):
        result = run_cli("classify", "1", "1", "2")
        assert result.returncode == 1

    def test_out_of_range_exit_1(self):
        result = run_cli("classify", "0", "1", "2")
        assert result.returncode == 1

    @pytest.mark.parametrize("values", [("1", "1", "2"), ("0", "1", "2")])
    def test_bad_values_print_one_error_line(self, values):
        # the library's own check speaks for the CLI
        result = run_cli("classify", *values)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("fubuki: ") and "3 distinct" in result.stderr
        assert len(result.stderr.splitlines()) == 1


class TestIntOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--all", "--threads", "1"],
            ["verify", "--all", "--threads", "2"],
            ["verify", "--all", "--threads", "0"],
            ["generate", "--seed", "0"],
            ["generate", "--seed", str(2**64 - 1)],
        ],
    )
    def test_accepted(self, argv):
        assert parsed_options(argv)[argv[-2][2:]] == int(argv[-1])

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--all", "--threads", "-1"],
            ["verify", "--all", "--threads", "two"],
            ["generate", "--seed", "-1"],
            ["generate", "--seed", str(2**64)],
            ["generate", "--seed", "0x10"],
        ],
    )
    def test_rejected_naming_the_option_and_its_range(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1
        option = argv[-2]
        assert f"argument {option}: must be an integer in 0.." in capsys.readouterr().err


class TestTable:
    def test_csv_round_trips(self):
        result = run_cli("table")
        assert result.returncode == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0] == ["diagonal", "shifts"]
        parsed = {
            tuple(int(v) for v in diag.split(",")): frozenset(int(c) for c in shifts.split(",") if c)
            for diag, shifts in rows[1:]
        }
        assert parsed == build_shift_table()
        lines = result.stdout.splitlines()
        assert len(lines) == 85  # header + 84 rows
        assert '"2,3,7",3' in lines
        assert '"4,8,9",4' in lines

    def test_json_matches_table(self):
        result = run_cli("table", "--format", "json")
        rows = json.loads(result.stdout)
        assert len(rows) == 84
        rebuilt = {tuple(r["diagonal"]): frozenset(r["shifts"]) for r in rows}
        assert rebuilt == build_shift_table()


# SHA-256 of stdout, pinned independently of build_shift_table(); the
# classify digest covers all 84 diagonals in lex order, outputs concatenated
GOLDEN_SHIFT_OUTPUT = {
    "classify": "f9c35efc20ca2d775fc5434941f5b57bf4f8b3a29508b805d1688c5a952f7743",
    "table": "6e0c2bcdc463b8ba9c90cec5b546a9410d0ed25c7cd6e83e396136417edb46ff",
    "table --format json": "8cdedec649fef83ee81db9531f6ac5b4ca0495ed5a47c2f200b2fbf8fc6d39d4",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHIFT_OUTPUT))
def test_shift_table_output_is_pinned(capsys, command):
    if command == "classify":
        runs = [["classify", *map(str, d)] for d in combinations(range(1, 10), 3)]
    else:
        runs = [command.split()]
    out = ""
    for argv in runs:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out += captured.out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHIFT_OUTPUT[command]


class TestGenerate:
    def test_byte_identical_runs(self):
        args = ("generate", "--regime", "full-diagonal", "--unique",
                "--seed", "7", "--count", "3")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout.splitlines()) == 3

    def test_emitted_puzzles_are_unique(self):
        result = run_cli("generate", "--regime", "full-diagonal", "--unique",
                         "--seed", "7", "--count", "3")
        for line in result.stdout.splitlines():
            clue = ClueSet.from_dict(json.loads(line))
            assert count_solutions(clue) == 1

    def test_none_regime_unique(self):
        result = run_cli("generate", "--regime", "none", "--unique",
                         "--seed", "7", "--count", "1")
        assert result.returncode == 0
        clue = ClueSet.from_dict(json.loads(result.stdout))
        assert clue.prescribed == ()
        assert count_solutions(clue) == 1

    def test_bad_regime_exits_1(self):
        result = run_cli("generate", "--regime", "nope")
        assert result.returncode == 1
        assert "expected one of: full-diagonal" in result.stderr

    def test_bad_count_exits_1(self):
        result = run_cli("generate", "--count", "0")
        assert result.returncode == 1

    def test_seed_range_ends_are_accepted(self):
        for seed in ("0", str(2**64 - 1)):
            result = run_cli("generate", "--seed", seed)
            assert result.returncode == 0, seed
            assert len(result.stdout.splitlines()) == 1

    def test_seed_outside_64_bits_exits_1_with_usage(self):
        # SplitMix64 would reduce these mod 2**64, aliasing another seed
        for seed in ("-1", str(2**64)):
            result = run_cli("generate", "--seed", seed)
            assert result.returncode == 1, seed
            assert result.stdout == ""
            assert "usage:" in result.stderr and "--seed" in result.stderr

    def test_pretty_output(self):
        result = run_cli("generate", "--seed", "1", "--pretty")
        assert result.returncode == 0
        assert result.stdout.count("+----+----+----+") == 4


VERIFY_ALL_STDOUT = """\
regime full-diagonal: solvable puzzles: 351432 (expected 351432) PASS
regime first-two-diagonal: solvable puzzles: 281304 (expected 281304) PASS
regime top-left: solvable puzzles: 163387 (expected 163387) PASS
regime none: solvable puzzles: 46147 (expected 46147) PASS
closed form 151200 + 184680 + 15552: 351432 (expected 351432) PASS
companion scan: solvable puzzles: 351432 (expected 351432) PASS
companion oracle: 362880/362880 grids match brute force PASS
"""

# the same report's lines as a route that raises prints them
VERIFY_ALL_RAISED = """\
regime full-diagonal: solvable puzzles: error (expected 351432) FAIL
regime first-two-diagonal: solvable puzzles: error (expected 281304) FAIL
regime top-left: solvable puzzles: error (expected 163387) FAIL
regime none: solvable puzzles: error (expected 46147) FAIL
closed form: error (expected 351432) FAIL
companion scan: solvable puzzles: error (expected 351432) FAIL
companion oracle: error/362880 grids match brute force FAIL
"""

# the route functions that verify calls through fubuki.cli's globals, where
# perfbench's tracer wraps them
ROUTE_NAMES = (
    "census", "census_all", "closed_form_puzzle_count", "companion_scan",
    "companion_oracle_mismatches",
)


class TestVerify:
    def test_all_prints_the_golden_report(self):
        result = run_cli("verify", "--all")
        assert (result.returncode, result.stdout, result.stderr) == (0, VERIFY_ALL_STDOUT, "")

    def test_two_threads_print_what_one_does(self, capsys):
        # --threads is accepted and has no effect: the sweep runs in-process
        outputs = []
        for threads in ("1", "2"):
            assert main(["verify", "--regime", "none", "--threads", threads]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out == "regime none: solvable puzzles: 46147 (expected 46147) PASS\n"

    def test_single_weak_regime(self):
        result = run_cli("verify", "--regime", "top-left", "--threads", "1")
        assert result.returncode == 0
        assert "regime top-left: solvable puzzles: 163387 (expected 163387) PASS" in result.stdout

    def test_requires_a_regime_choice(self):
        result = run_cli("verify")
        assert result.returncode == 1

    def test_mismatch_exits_3_with_detail(self, monkeypatch, capsys):
        # corrupt the census in-process to exercise the failure path
        import fubuki.cli as cli
        from fubuki.census import CensusReport

        def broken_census(regime):
            # every grid alone in its bucket: a full sweep with wrong keys
            return CensusReport(regime, {1: 362880}, {})

        monkeypatch.setattr(cli, "census", broken_census)
        code = cli.main(["verify", "--regime", "none", "--threads", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "FAIL" in captured.out
        assert "mismatch" in captured.err and "46147" in captured.err

    def test_oracle_mismatch_exits_3_with_detail(
        self, monkeypatch, capsys, census_reports, full_scan
    ):
        import fubuki.cli as cli

        detail = "pair (1, 2, 3, 4, 5, 6, 7, 8, 9) -> (9, 8, 7, 6, 5, 4, 3, 2, 1): injected"
        monkeypatch.setattr(cli, "census", lambda regime: census_reports[regime])
        monkeypatch.setattr(cli, "companion_scan", lambda: full_scan)
        monkeypatch.setattr(cli, "companion_oracle_mismatches", lambda multi, scan: [detail])
        code = cli.main(["verify", "--regime", "full-diagonal", "--threads", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "companion oracle: 362879/362880 grids match brute force FAIL" in captured.out
        assert f"mismatch: companion oracle: {detail}" in captured.err

    def test_scan_count_skips_a_pair_of_a_grid_with_itself(
        self, monkeypatch, capsys, census_reports, full_scan
    ):
        # the smallest grid paired with itself: not a second solution, so the
        # scan's count is unchanged and only the oracle fails
        import fubuki.cli as cli

        grid = tuple(range(1, 10))
        monkeypatch.setattr(cli, "census", lambda regime: census_reports[regime])
        monkeypatch.setattr(cli, "companion_scan", lambda: [bytes(grid * 2), *full_scan])
        code = cli.main(["verify", "--regime", "full-diagonal"])
        captured = capsys.readouterr()
        assert code == 3
        assert "companion scan: solvable puzzles: 351432 (expected 351432) PASS" in captured.out
        assert f"pair {grid} -> {grid}: companion equals the grid" in captured.err

    @pytest.mark.parametrize("name, failed", [
        # the oracle reads the sweep's buckets and the scan's pairs, so it
        # fails with either
        ("census_all", ("regime ", "companion oracle")),
        ("closed_form_puzzle_count", ("closed form",)),
        ("companion_scan", ("companion scan", "companion oracle")),
        ("companion_oracle_mismatches", ("companion oracle",)),
    ])
    def test_a_route_that_raises_fails_as_that_route(
        self, monkeypatch, capsys, census_reports, full_scan, name, failed
    ):
        import fubuki.cli as cli

        def broken(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "census_all", lambda: census_reports)
        monkeypatch.setattr(cli, "companion_scan", lambda: full_scan)
        monkeypatch.setattr(cli, name, broken)
        code = cli.main(["verify", "--all"])
        captured = capsys.readouterr()
        lines = [
            raised if raised.startswith(failed) else passed
            for passed, raised in zip(
                VERIFY_ALL_STDOUT.splitlines(), VERIFY_ALL_RAISED.splitlines()
            )
        ]
        labels = [line.partition(": error")[0] for line in lines if line.endswith("FAIL")]
        assert (code, captured.out.splitlines()) == (3, lines)
        assert captured.err == "".join(
            f"mismatch: {label}: RuntimeError: injected\n" for label in labels
        )

    @pytest.mark.parametrize("argv, calls", [
        (["--all"], ["census_all", "closed_form_puzzle_count", "companion_scan",
                     "companion_oracle_mismatches"]),
        (["--regime", "none"], ["census"]),
    ])
    def test_routes_are_called_once_through_the_cli_names(self, monkeypatch, capsys, argv, calls):
        # as perfbench's tracer wraps them: a route called from elsewhere
        # would escape its timing
        import fubuki.cli as cli

        called = []

        def counted(name, route):
            def call(*args):
                called.append(name)
                return route(*args)

            return call

        for name in ROUTE_NAMES:
            monkeypatch.setattr(cli, name, counted(name, cli.__dict__[name]))
        assert cli.main(["verify", *argv]) == 0
        assert called == calls
        assert capsys.readouterr().err == ""

    def test_negative_threads_exit_1_with_usage(self):
        result = run_cli("verify", "--regime", "none", "--threads", "-1")
        assert result.returncode == 1
        assert "usage:" in result.stderr and "--threads" in result.stderr


class TestThreadsEnv:
    """FUBUKI_THREADS, like --threads, is validated and has no effect."""

    def test_env_unset_is_accepted(self, monkeypatch, capsys):
        monkeypatch.delenv("FUBUKI_THREADS", raising=False)
        assert main(["verify", "--regime", "none"]) == 0
        assert capsys.readouterr().err == ""

    def test_env_override_changes_nothing(self, monkeypatch, capsys):
        monkeypatch.delenv("FUBUKI_THREADS", raising=False)
        assert main(["verify", "--regime", "none"]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("FUBUKI_THREADS", "3")
        assert main(["verify", "--regime", "none"]) == 0
        assert capsys.readouterr() == unset

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", ""])
    def test_env_rejects_garbage(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("FUBUKI_THREADS", raw)
        assert main(["verify", "--regime", "none"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fubuki: FUBUKI_THREADS must be a positive integer, got {raw!r}\n"

    def test_threads_flag_skips_the_env(self, monkeypatch):
        monkeypatch.setenv("FUBUKI_THREADS", "zero")
        assert main(["verify", "--regime", "none", "--threads", "2"]) == 0


class TestUsage:
    def test_no_command_exits_1(self):
        result = run_cli()
        assert result.returncode == 1

    def test_unknown_command_exits_1(self):
        result = run_cli("frobnicate")
        assert result.returncode == 1

    def test_help_exits_0(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for cmd in ("solve", "classify", "table", "verify", "generate"):
            assert cmd in result.stdout


class TestClosedStdout:
    """A reader that leaves early, as `| head -1` does, ends the command with
    status 1 and an empty stderr, not a traceback."""

    def run_until_closed(self, argv, stdin: bytes | None, lines_read: int):
        proc = subprocess.Popen(
            [sys.executable, "-m", "fubuki", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        read = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        if stdin is not None:
            proc.stdin.write(stdin)
        proc.stdin.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        return read, proc.wait(timeout=120), stderr

    def test_generate_into_a_pipe_closed_after_the_first_line(self):
        # 20,000 puzzles are far more than a pipe holds, so the command is
        # still writing when the reader closes its end
        read, code, stderr = self.run_until_closed(["generate", "--count", "20000"], None, 1)
        assert read[0].startswith(b'{"prescribed": ')
        assert (code, stderr) == (1, b"")

    def test_solve_into_a_pipe_closed_before_any_output(self):
        # two boxes fit in a pipe and in stdout's buffer, so the reader
        # closes its end before the command has read its puzzle, and the
        # command meets the closed pipe only when it flushes
        puzzle = json.dumps(TWO_SOLUTION_PUZZLE).encode()
        _, code, stderr = self.run_until_closed(["solve", "-", "--all", "--pretty"], puzzle, 0)
        assert (code, stderr) == (1, b"")
