"""Brute-force solving for arbitrary clue sets.

This is the ground truth the structural machinery is validated against: it
fills unprescribed cells in row-major order with the unused values in
ascending order, pruning on partial line sums, and therefore emits solutions
in lexicographic order of the row-major cells. The search space never
exceeds 9! so no cleverness beyond sum pruning is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import ClueSet, Grid


@dataclass
class SolveResult:
    """Solutions are deduplicated by construction and lexicographically ordered.

    When `truncated` is true the enumeration stopped at `limit` with more
    solutions confirmed to remain, and `count` equals the limit.
    """

    solutions: list[Grid]
    count: int
    truncated: bool


class _StopSearch(Exception):
    pass


def _search(clues: ClueSet, prune: bool, emit: Callable[[tuple[int, ...]], None]) -> None:
    """Backtracking enumeration; calls `emit` once per satisfying grid.

    A line's last unprescribed cell takes a single forced candidate (the
    residual of the line's target), which is the completed-line exactness
    rule applied before the candidate loop instead of inside it; the
    enumeration order is unchanged since at most one candidate survives.
    """
    prescribed: list[int | None] = [None] * 9
    for r, c, v in clues.prescribed:
        prescribed[(r - 1) * 3 + (c - 1)] = v
    row_target = clues.row_sums
    col_target = clues.col_sums

    # Per position: fixed sum contributed by prescribed cells later in the
    # same line, and how many free cells the line still has after it.
    row_fixed_after = [0] * 9
    row_free_after = [0] * 9
    col_fixed_after = [0] * 9
    col_free_after = [0] * 9
    for pos in range(9):
        i, j = divmod(pos, 3)
        for jj in range(j + 1, 3):
            v = prescribed[i * 3 + jj]
            if v is not None:
                row_fixed_after[pos] += v
            else:
                row_free_after[pos] += 1
        for ii in range(i + 1, 3):
            v = prescribed[ii * 3 + j]
            if v is not None:
                col_fixed_after[pos] += v
            else:
                col_free_after[pos] += 1

    used = {v for _, _, v in clues.prescribed}
    avail = [False] + [v not in used for v in range(1, 10)]
    cells = [0] * 9
    row_run = [0, 0, 0]
    col_run = [0, 0, 0]

    def line_feasible(need: int, free: int, skip: int) -> bool:
        # `need` must be reachable as a sum of `free` distinct available
        # values, ignoring `skip` (the value being placed right now).
        if free == 0:
            return need == 0
        if free == 1:
            return 1 <= need <= 9 and avail[need] and need != skip
        # free == 2: bound by the two smallest and two largest available
        lo = hi = 0
        found = 0
        for v in range(1, 10):
            if avail[v] and v != skip:
                lo += v
                found += 1
                if found == 2:
                    break
        if found < 2:
            return False
        found = 0
        for v in range(9, 0, -1):
            if avail[v] and v != skip:
                hi += v
                found += 1
                if found == 2:
                    break
        return lo <= need <= hi

    def rec(pos: int) -> None:
        if pos == 9:
            filled = tuple(cells)
            if not prune:
                g = Grid(filled)
                if g.row_sums() != row_target or g.col_sums() != col_target:
                    return
            emit(filled)
            return
        i, j = divmod(pos, 3)
        fixed = prescribed[pos]
        if fixed is not None:
            candidates: tuple[int, ...] | range = (fixed,)
        elif prune and row_free_after[pos] == 0:
            v = row_target[i] - row_run[i] - row_fixed_after[pos]
            candidates = (v,) if 1 <= v <= 9 and avail[v] else ()
        elif prune and col_free_after[pos] == 0:
            v = col_target[j] - col_run[j] - col_fixed_after[pos]
            candidates = (v,) if 1 <= v <= 9 and avail[v] else ()
        else:
            candidates = range(1, 10)
        for v in candidates:
            if fixed is None and not avail[v]:
                continue
            if prune:
                need_row = row_target[i] - row_run[i] - v - row_fixed_after[pos]
                if not line_feasible(need_row, row_free_after[pos], v):
                    continue
                need_col = col_target[j] - col_run[j] - v - col_fixed_after[pos]
                if not line_feasible(need_col, col_free_after[pos], v):
                    continue
            cells[pos] = v
            row_run[i] += v
            col_run[j] += v
            if fixed is None:
                avail[v] = False
            rec(pos + 1)
            if fixed is None:
                avail[v] = True
            row_run[i] -= v
            col_run[j] -= v

    rec(0)


def solve(clues: ClueSet, limit: int | None = None, prune: bool = True) -> SolveResult:
    """Enumerate every grid satisfying the clues, optionally capped.

    Unsatisfiable clues (including sums that cannot total 45) yield an empty
    result rather than an error. `prune=False` disables sum pruning and
    exists for differential testing; the solution set is identical.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    found: list[tuple[int, ...]] = []

    def emit(filled: tuple[int, ...]) -> None:
        found.append(filled)
        # collect one past the limit so truncation is known, not guessed
        if limit is not None and len(found) > limit:
            raise _StopSearch

    try:
        _search(clues, prune, emit)
        truncated = False
    except _StopSearch:
        found.pop()
        truncated = True
    solutions = [Grid(f) for f in found]
    for g in solutions:
        if not clues.satisfied_by(g):
            raise RuntimeError(f"solver emitted {g.cells}, which does not satisfy the clues")
    return SolveResult(solutions=solutions, count=len(solutions), truncated=truncated)


def count_solutions(clues: ClueSet) -> int:
    """Same enumeration as solve, without materializing grids."""
    n = 0

    def emit(_: tuple[int, ...]) -> None:
        nonlocal n
        n += 1

    _search(clues, prune=True, emit=emit)
    return n
