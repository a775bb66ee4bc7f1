"""The benchmark's own answer key and the checks that use it.

`build_reference` walks all 9! grids with plain loops and counts, per
regime, how many grids answer each clue set. It shares no code with
`fubuki`: the key packs all six line sums (fubuki's packing drops two) and
the clue arithmetic is written out here again. Every check returns a list
of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
from itertools import permutations

from workloads import (
    DIAGONAL_FLAT,
    PRESCRIBED,
    REGIMES,
    SOLVE_LIMIT,
    line_sums,
)

TOTAL_GRIDS = 362880
# Distinct solvable puzzles per regime, as published (PAPER.md).
PUBLISHED_COUNTS = {
    "full-diagonal": 351432,
    "first-two-diagonal": 281304,
    "top-left": 163387,
    "none": 46147,
}
CLOSED_FORM_ADDENDS = (151200, 184680, 15552)
DIGITS = tuple(range(1, 10))


def clue_key(sums: tuple[int, ...], prescribed: tuple[int, ...]) -> int:
    """Six 5-bit line sums, then one 4-bit field per prescribed value."""
    key = 0
    for s in sums:
        key = key << 5 | s
    for v in prescribed:
        key = key << 4 | v
    return key


def build_reference() -> dict[str, dict[int, int]]:
    """Per regime: clue key -> number of grids that answer it."""
    full: dict[int, int] = {}
    first_two: dict[int, int] = {}
    top_left: dict[int, int] = {}
    none: dict[int, int] = {}
    for p in permutations(DIGITS):
        key = clue_key(line_sums(p), ())
        none[key] = none.get(key, 0) + 1
        key = key << 4 | p[0]
        top_left[key] = top_left.get(key, 0) + 1
        key = key << 4 | p[4]
        first_two[key] = first_two.get(key, 0) + 1
        key = key << 4 | p[8]
        full[key] = full.get(key, 0) + 1
    reference = {
        "full-diagonal": full,
        "first-two-diagonal": first_two,
        "top-left": top_left,
        "none": none,
    }
    for regime, counts in reference.items():
        if len(counts) != PUBLISHED_COUNTS[regime] or sum(counts.values()) != TOTAL_GRIDS:
            raise RuntimeError(f"reference for {regime} disagrees with the published count")
    return reference


def expected_verify_text(reference: dict[str, dict[int, int]]) -> str:
    """The seven lines `fubuki verify --all` prints when every route passes."""
    lines = [
        f"regime {regime}: solvable puzzles: {len(reference[regime])} "
        f"(expected {PUBLISHED_COUNTS[regime]}) PASS"
        for regime in REGIMES
    ]
    full = len(reference["full-diagonal"])
    published = PUBLISHED_COUNTS["full-diagonal"]
    a, b, c = CLOSED_FORM_ADDENDS
    lines.append(f"closed form {a} + {b} + {c}: {a + b + c} (expected {published}) PASS")
    lines.append(f"companion scan: solvable puzzles: {full} (expected {published}) PASS")
    lines.append(
        f"companion oracle: {TOTAL_GRIDS}/{TOTAL_GRIDS} grids match brute force PASS"
    )
    return "".join(line + "\n" for line in lines)


def check_verify(rc: int, text: str, expected: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"verify exited {rc}")
    if text != expected:
        problems.append(f"verify printed {text!r}")
    return problems


def _satisfies(cells: tuple[int, ...], sums: tuple[int, ...], regime: str, source) -> bool:
    return (
        tuple(sorted(cells)) == DIGITS
        and line_sums(cells) == sums
        and all(cells[i] == source[i] for i in DIAGONAL_FLAT[: PRESCRIBED[regime]])
    )


def check_solve(spec: tuple, output: str, reference: dict[str, dict[int, int]]) -> list[str]:
    """`output` is "count truncated grid..." with each grid as nine digits."""
    label, regime, source, sums = spec
    source = tuple(source)
    sums = tuple(sums) if sums is not None else line_sums(source)
    prescribed = tuple(source[i] for i in DIAGONAL_FLAT[: PRESCRIBED[regime]])
    expected = reference[regime].get(clue_key(sums, prescribed), 0)
    count, truncated, *grids = output.split()
    problems = []
    if int(count) != min(expected, SOLVE_LIMIT) or len(grids) != int(count):
        problems.append(f"{count} solutions ({len(grids)} listed), reference {expected}")
    if (truncated == "1") != (expected > SOLVE_LIMIT):
        problems.append(f"truncated flag {truncated} with reference {expected}")
    if len(set(grids)) != len(grids):
        problems.append("a solution is listed twice")
    for grid in grids:
        cells = tuple(int(ch) for ch in grid)
        if len(cells) != 9 or not _satisfies(cells, sums, regime, source):
            problems.append(f"{grid} does not satisfy the clues")
    if label == regime and "".join(map(str, source)) not in grids:
        problems.append(f"source grid {source} is missing")
    return problems


def check_generate(
    regime: str, count: int, rc: int, text: str, reference: dict[str, dict[int, int]]
) -> list[str]:
    """Each printed puzzle must be a `regime` puzzle with exactly one solution."""
    lines = text.splitlines()
    problems = []
    if rc != 0:
        problems.append(f"generate exited {rc}")
    if len(lines) != count:
        problems.append(f"{len(lines)} puzzles printed, {count} asked for")
    n = PRESCRIBED[regime]
    want_cells = [(i, i) for i in range(1, n + 1)]
    for line in lines:
        try:
            doc = json.loads(line)
            cells = [(e["row"], e["col"]) for e in doc["prescribed"]]
            values = tuple(e["value"] for e in doc["prescribed"])
            sums = tuple(doc["row_sums"]) + tuple(doc["col_sums"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable puzzle {line!r}: {exc}")
            continue
        in_range = all(isinstance(s, int) and 6 <= s <= 24 for s in sums) and all(
            isinstance(v, int) and 1 <= v <= 9 for v in values
        )
        if cells != want_cells or len(sums) != 6 or not in_range:
            problems.append(f"{line} is not a {regime} puzzle")
            continue
        solutions = reference[regime].get(clue_key(sums, values), 0)
        if solutions != 1:
            problems.append(f"{line} has {solutions} solutions")
    return problems
