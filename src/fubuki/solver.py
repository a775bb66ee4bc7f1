"""Brute-force solving for arbitrary clue sets.

This is the ground truth the structural machinery is validated against. One
pruned search fills the unprescribed cells in row-major order with the
unused values in ascending order, and so finds solutions in lexicographic
order of the row-major cells. Each row and column tracks the sum its free
cells still need and how many free cells it has left; a value is placed only
if both of its lines stay completable from the unused digits. The search
space never exceeds 9! so no cleverness beyond sum pruning is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import ClueSet, Grid, _is_int


@dataclass
class SolveResult:
    """Solutions are deduplicated by construction and lexicographically ordered.

    When `truncated` is true the enumeration stopped at `limit` with more
    solutions confirmed to remain, and `count` equals the limit.
    """

    solutions: list[Grid]
    truncated: bool

    @property
    def count(self) -> int:
        return len(self.solutions)


class _StopSearch(Exception):
    pass


@cache
def _spans() -> dict[int, list[tuple[int, int]]]:
    """`_spans()[left][unused]`: sums of the `left` smallest and largest digits.

    `unused` is a bitmask with bit d set for each unused digit d. Built on
    first use, so importing the package does not pay for it.
    """
    digits = [[d for d in range(1, 10) if mask >> d & 1] for mask in range(1 << 10)]
    return {left: [(sum(ds[:left]), sum(ds[-left:])) for ds in digits] for left in (2, 3)}


def _search(clues: ClueSet, limit: int | None) -> list[tuple[int, ...]]:
    """Every satisfying grid's cells in lexicographic order, or the first `limit + 1`.

    Each row and column holds the sum its free cells still need and its
    count of free cells. A line with `left` free cells that needs `need` is
    completable if `left == 0` and `need == 0`, if `left == 1` and `need` is
    an unused digit, or else if `need` lies between the sums of the `left`
    smallest and the `left` largest unused digits. A line's last free cell
    therefore takes the single value its sum leaves, and every line is exact
    once it is full. A candidate is tested before any state is written.
    """
    spans = _spans()
    cells = [0] * 9
    unused = 0b1111111110
    row_need = list(clues.row_sums)
    col_need = list(clues.col_sums)
    row_free = [3, 3, 3]
    col_free = [3, 3, 3]
    for r, c, v in clues.prescribed:
        cells[(r - 1) * 3 + (c - 1)] = v
        unused ^= 1 << v
        row_need[r - 1] -= v
        col_need[c - 1] -= v
        row_free[r - 1] -= 1
        col_free[c - 1] -= 1
    free = [divmod(pos, 3) for pos in range(9) if not cells[pos]]
    found: list[tuple[int, ...]] = []

    def completable(need: int, left: int, unused: int) -> bool:
        if left == 0:
            return need == 0
        if left == 1:
            return 0 < need < 10 and unused >> need & 1 == 1
        lo, hi = spans[left][unused]
        return lo <= need <= hi

    def rec(k: int, unused: int) -> None:
        if k == len(free):
            found.append(tuple(cells))
            if limit is not None and len(found) > limit:
                raise _StopSearch
            return
        i, j = free[k]
        rneed, cneed = row_need[i], col_need[j]
        rleft, cleft = row_free[i] - 1, col_free[j] - 1
        if rleft == 0:
            candidates: tuple[int, ...] | range = (rneed,) if 0 < rneed < 10 else ()
        elif cleft == 0:
            candidates = (cneed,) if 0 < cneed < 10 else ()
        else:
            candidates = range(1, 10)
        for v in candidates:
            rest = unused ^ 1 << v
            if not (
                rest < unused  # v was unused
                and completable(rneed - v, rleft, rest)
                and completable(cneed - v, cleft, rest)
            ):
                continue
            cells[i * 3 + j] = v
            row_need[i], col_need[j] = rneed - v, cneed - v
            row_free[i], col_free[j] = rleft, cleft
            rec(k + 1, rest)
            row_need[i], col_need[j] = rneed, cneed
            row_free[i], col_free[j] = rleft + 1, cleft + 1

    lines = zip(row_need + col_need, row_free + col_free)
    if all(completable(need, left, unused) for need, left in lines):
        try:
            rec(0, unused)
        except _StopSearch:
            pass
    return found


def solve(clues: ClueSet, limit: int | None = None) -> SolveResult:
    """Enumerate every grid satisfying the clues, optionally capped at `limit`.

    Unsatisfiable clues (including sums that cannot total 45) yield an empty
    result rather than an error. `limit` must be None or a positive int.
    """
    if limit is not None and not (_is_int(limit) and limit >= 1):
        raise ValueError(f"limit must be positive, got {limit!r}")
    found = _search(clues, limit)
    solutions = [Grid(f) for f in found[:limit]]
    for g in solutions:
        if not clues.satisfied_by(g):
            raise RuntimeError(f"solver emitted {g.cells}, which does not satisfy the clues")
    return SolveResult(solutions=solutions, truncated=len(found) > len(solutions))


def count_solutions(clues: ClueSet) -> int:
    """Same search as solve, counting cell tuples without building grids."""
    return len(_search(clues, None))
