"""Command-line front end.

Commands: solve, classify, table, verify, generate. JSON goes to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 usage or parse error or
stdout closed early (as by `| head`), 2 no solution, 3 verification
mismatch, including a verify route that raises.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple, NoReturn

from .census import (
    EXPECTED_PUZZLE_COUNTS,
    census,
    census_all,
    closed_form_puzzle_count,
    companion_oracle_mismatches,
    companion_scan,
    TOTAL_GRIDS,
)
from .core import ClueSet, Grid, PrescriptionRegime, PuzzleFormatError, _bad
from .generate import generate_puzzles
from .rng import _MASK64
from .solver import solve
from .theory import build_shift_table, classify_diagonal, shift_table_to_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # usage and parse problems exit 1; argparse's default of 2 is taken
        # by "no solution"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _regime_name(regime: PrescriptionRegime) -> str:
    return regime.value.replace("_", "-")


def _parse_regime(text: str) -> PrescriptionRegime:
    # argparse shows an ArgumentTypeError's own text, a ValueError's not
    try:
        return PrescriptionRegime.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_in(hi: float) -> Callable[[str], int]:
    """An argparse type: an integer in 0..hi."""
    def parse(text: str) -> int:
        try:
            if 0 <= (value := int(text)) <= hi:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer in 0..{hi}, got {text!r}")

    return parse


def _check_threads_env() -> None:
    """Validate FUBUKI_THREADS, which like --threads is accepted and has no
    effect: the sweep runs in the calling process."""
    raw = os.environ.get("FUBUKI_THREADS")
    try:
        if raw is None or int(raw) >= 1:
            return
    except ValueError:
        pass
    raise _bad("FUBUKI_THREADS", "a positive integer", raw)


def _load_puzzle(path: str) -> ClueSet:
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {name}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{name}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except ValueError as exc:
        # raised bare, not as a JSONDecodeError: an integer past int's digit limit
        raise ValueError(f"{name}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{name}: invalid JSON: nested too deeply") from None
    try:
        return ClueSet.from_dict(data)
    except PuzzleFormatError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _render_box(cell_texts: list[str], row_sums, col_sums) -> str:
    border = "+----" * 3 + "+"
    lines = []
    for i in range(3):
        lines.append(border)
        row = "".join(f"| {cell_texts[i * 3 + j]:>2} " for j in range(3))
        lines.append(f"{row}| = {row_sums[i]}")
    lines.append(border)
    lines.append("".join(f" = {s:>2}" for s in col_sums))
    return "\n".join(lines)


def render_grid(grid: Grid) -> str:
    return _render_box([str(v) for v in grid.cells], grid.row_sums(), grid.col_sums())


def render_puzzle(clue: ClueSet) -> str:
    texts = [""] * 9
    for r, c, v in clue.prescribed:
        texts[(r - 1) * 3 + (c - 1)] = str(v)
    return _render_box(texts, clue.row_sums, clue.col_sums)


def _cmd_solve(args: argparse.Namespace) -> int:
    clue = _load_puzzle(args.puzzle)
    result = solve(clue, limit=args.limit)
    shown = result.solutions if args.all else result.solutions[:1]
    for grid in shown:
        print(render_grid(grid) if args.pretty else json.dumps(grid.to_dict()))
    if result.truncated:
        print(f"{result.count}+ solutions (limit {args.limit} reached)")
    else:
        print(f"{result.count} solution{'s' if result.count != 1 else ''}")
    return 0 if result.count else 2


def _cmd_classify(args: argparse.Namespace) -> int:
    dc = classify_diagonal(args.values)
    shifts = ",".join(str(c) for c in sorted(dc.shifts)) if dc.shifts else "none"
    solutions = "exactly 1" if dc.rigid else "1 or 2"
    print(
        f"rigid: {'yes' if dc.rigid else 'no'}; shifts: {shifts}; "
        f"solutions per puzzle: {solutions}"
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = build_shift_table()
    if args.format == "csv":
        sys.stdout.write(shift_table_to_csv(table))
    else:
        rows = [
            {"diagonal": list(diag), "shifts": sorted(shifts)}
            for diag, shifts in sorted(table.items())
        ]
        print(json.dumps(rows))
    return 0


class Route(NamedTuple):
    """A `verify` route's `line`, with slots for `value` and `expected`, and its mismatches."""

    line: str
    value: object
    expected: object
    mismatches: list[str]


def _attempt(compute: Callable, *inputs: object) -> object:
    """`compute(*inputs)`, or the Exception that it raised or that an input is."""
    for failed in (x for x in inputs if isinstance(x, Exception)):
        return failed
    try:
        return compute(*inputs)
    except Exception as exc:
        return exc


def _route(label: str, value: object, expected: object, line: str = "", details=None) -> Route:
    """The record of a route that got `value`, or raised it if it is an Exception."""
    if isinstance(value, Exception):
        value, details = "error", [f"{type(value).__name__}: {value}"]
    elif details is None:
        details = [f"got {value}, expected {expected}"] if value != expected else []
    mismatches = [f"{label}: {d}" for d in details]
    return Route(line or label + ": {} (expected {})", value, expected, mismatches)


def verify_routes(regimes: list[PrescriptionRegime]) -> list[Route]:
    """The routes `verify` checks for `regimes`, in print order: each regime's
    count from one sweep and, with the full diagonal, the closed form, the
    companion scan's count and the oracle, each called through this module's
    globals. A route fails with an Exception it raises or an input it reads raised."""
    full, first = PrescriptionRegime.FULL_DIAGONAL, regimes[0]
    reports = _attempt(census_all if len(regimes) > 1 else lambda: {first: census(first)})
    routes = [_route(f"regime {_regime_name(r)}: solvable puzzles",
                     _attempt(lambda s: s[r].solvable_puzzles, reports),
                     EXPECTED_PUZZLE_COUNTS[r]) for r in regimes]
    if full not in regimes:
        return routes
    expected = EXPECTED_PUZZLE_COUNTS[full]
    cf = _attempt(closed_form_puzzle_count)
    addends = "" if isinstance(cf, Exception) else " {} + {} + {}".format(*cf.addends)
    routes.append(_route("closed form" + addends, _attempt(lambda c: c.total, cf), expected))
    pairs = _attempt(companion_scan)
    # each puzzle counted at its smallest solution
    solvable = _attempt(lambda ps: TOTAL_GRIDS - len({p[:9] for p in ps if p[9:] < p[:9]}), pairs)
    routes.append(_route("companion scan: solvable puzzles", solvable, expected))
    found = _attempt(lambda r, ps: companion_oracle_mismatches(r[full].multi, ps), reports, pairs)
    line = "companion oracle: {}/{} grids match brute force"
    oracle = _attempt(lambda f: TOTAL_GRIDS - len(f), found)
    return routes + [_route("companion oracle", oracle, TOTAL_GRIDS, line, found)]


def _cmd_verify(args: argparse.Namespace) -> int:
    if not args.threads:
        _check_threads_env()
    routes = verify_routes(list(PrescriptionRegime) if args.all else [args.regime])
    for r in routes:
        print(r.line.format(r.value, r.expected), "FAIL" if r.mismatches else "PASS")
    failures = [m for r in routes for m in r.mismatches]
    for f in failures:
        print(f"mismatch: {f}", file=sys.stderr)
    return 3 if failures else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    for clue in generate_puzzles(args.regime, args.unique, args.seed, args.count):
        if args.pretty:
            print(render_puzzle(clue))
            print()
        else:
            print(json.dumps(clue.to_dict()))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="fubuki", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="solve a puzzle file")
    p.add_argument("puzzle", help="path to puzzle JSON, or - for stdin")
    p.add_argument("--all", action="store_true", help="print every solution, not just the first")
    p.add_argument("--limit", type=int, default=1000, metavar="N", help="enumeration cap (default 1000)")
    p.add_argument("--pretty", action="store_true", help="render grids as boxes instead of JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", help="classify a diagonal's uniqueness")
    p.add_argument("values", type=int, nargs=3, metavar="V", help="the three diagonal values")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", help="print the 84-row diagonal/shift table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="re-verify the census counts exhaustively")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--regime", type=_parse_regime, help="one prescription regime")
    group.add_argument("--all", action="store_true", help="all four regimes in one sweep")
    p.add_argument("--threads", type=_int_in(math.inf), default=0, metavar="N",
                   help="accepted for compatibility, like FUBUKI_THREADS; no effect, "
                        "the sweep runs in one process")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit seeded puzzles as JSON lines")
    p.add_argument("--regime", type=_parse_regime, default=PrescriptionRegime.FULL_DIAGONAL)
    p.add_argument("--unique", action="store_true", help="guarantee exactly one solution")
    p.add_argument("--seed", type=_int_in(_MASK64), default=0, help="64-bit generator seed")
    p.add_argument("--count", type=int, default=1, help="number of puzzles")
    p.add_argument("--pretty", action="store_true", help="render boxes instead of JSON")
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so a closed pipe is caught below
        return code
    except ValueError as exc:
        print(f"fubuki: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the
        # interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
