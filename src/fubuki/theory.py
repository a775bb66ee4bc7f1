"""Shift structure of alternate solutions sharing a diagonal and line sums.

Fix a solved grid. Any other grid with the same diagonal, row sums, and
column sums must be the original with one constant s added to the cells at
(1,2), (2,3), (3,1) and subtracted from the cells at (1,3), (2,1), (3,2):
those six positions form the only degree of freedom once the diagonal and
sums are pinned. Such a shift produces a legal grid exactly when the six
off-diagonal values split into +cell values P and -cell values M with
M = P + s. `_pairings` states that condition, once; `shift_match_table()`
applies it to each of the 84 diagonals on first use and is the only check of
the bound of at most two shifts. `build_shift_table()` projects it to each
diagonal's positive shifts, which `classify_diagonal` reads;
`companion_cells` derives companion solutions from it, instead of searching
for them, by `shift_cells`; `census.companion_scan` shifts independently.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .core import Grid, _bad, _check_type, _is_int

# Flat row-major indices of the off-diagonal cells, split by the sign the
# shift is applied with. PLUS cells gain the shift, MINUS cells lose it.
PLUS_FLAT = (1, 5, 6)  # (1,2), (2,3), (3,1)
MINUS_FLAT = (2, 3, 7)  # (1,3), (2,1), (3,2)


def _check_diagonal(values: Iterable[int]) -> tuple[int, int, int]:
    # digits are checked before sorting, so no input raises TypeError
    try:
        t = tuple(values)
    except TypeError:
        t = ()
    if len(t) != 3 or not all(_is_int(v) and 1 <= v <= 9 for v in t) or len(set(t)) != 3:
        raise _bad("diagonal", "3 distinct values in 1..9", values)
    a, b, c = sorted(t)
    return (a, b, c)


_Entry = tuple[int, tuple[int, int, int]]
_Matches = dict[tuple[int, int, int], tuple[_Entry, ...]]


def _pairings(rest: tuple[int, ...]) -> list[_Entry]:
    """Every (shift, plus) splitting the six sorted values `rest` into three
    +cell values `plus`, sorted, and three -cell values that are exactly
    `plus` moved by the shift: the paper's pairing condition, stated once.
    Ordered by |shift| ascending, positive before negative."""
    found = []
    for plus in combinations(rest, 3):
        minus = set(rest).difference(plus)
        s = min(minus) - plus[0]
        if minus == {v + s for v in plus}:
            found.append((s, plus))
    return sorted(found, key=lambda e: (abs(e[0]), e[0] < 0))


@cache
def shift_match_table() -> _Matches:
    """The one shift table: each diagonal's shifts and the +cell values they need.

    Maps each sorted diagonal, in lex order, to ((shift, required), ...)
    where a grid with that diagonal has the shifted companion exactly when
    the sorted values at its three +shift cells equal `required`. Entries
    are ordered by |shift| ascending, positive before negative, which fixes
    companion order. Built on first use, not at import, by one `_pairings`
    call per diagonal. Raises RuntimeError if a diagonal admits more than
    two shifts, a bound checked rather than assumed. `build_shift_table`,
    `companion_cells` and `census.companion_scan` read it; every other
    reader of the shift structure goes through one of the first two.
    """
    table: _Matches = {}
    for diag in combinations(range(1, 10), 3):
        entries = _pairings(tuple(v for v in range(1, 10) if v not in diag))
        if len(shifts := {abs(s) for s, _ in entries}) > 2:
            raise RuntimeError(f"diagonal {diag} admits {len(shifts)} shifts, expected at most 2")
        table[diag] = tuple(entries)
    return table


def build_shift_table() -> dict[tuple[int, int, int], frozenset[int]]:
    """Admissible positive shifts for every 3-subset of 1..9, in lex order,
    as a fresh dict projected from `shift_match_table()`."""
    return {
        diag: frozenset(shift for shift, _ in entries if shift > 0)
        for diag, entries in shift_match_table().items()
    }


class DiagonalClass(NamedTuple):
    """Uniqueness classification of one diagonal value set.

    A diagonal is rigid when no shift pairs its complement; every solvable
    puzzle prescribing a rigid diagonal then has exactly one solution. A
    non-rigid diagonal caps a puzzle at two solutions.
    """

    diagonal: frozenset[int]
    shifts: frozenset[int]

    @property
    def rigid(self) -> bool:
        return not self.shifts

    @property
    def max_solutions(self) -> int:
        return 1 if self.rigid else 2


def classify_diagonal(diagonal: Iterable[int]) -> DiagonalClass:
    diag = _check_diagonal(diagonal)
    return DiagonalClass(diagonal=frozenset(diag), shifts=build_shift_table()[diag])


def shift_table_to_csv(table: Mapping[tuple[int, int, int], frozenset[int]]) -> str:
    """CSV with header `diagonal,shifts`, rows ordered lexicographically.

    Raises ValueError unless each key of `table` is a diagonal, 3 distinct
    digits in increasing order, and each of its shifts an int in 1..8.
    """
    import csv
    import io

    try:
        rows = [(diag, sorted(table[diag])) for diag in sorted(table)]
        for diag, shifts in rows:
            shifts_ok = all(_is_int(s) and 1 <= s <= 8 for s in shifts)
            if _check_diagonal(diag) != diag or not shifts_ok:
                raise TypeError
    except (TypeError, LookupError, ValueError):
        raise _bad("table", "a mapping of diagonals to shifts", table) from None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["diagonal", "shifts"])
    for diag, shifts in rows:
        writer.writerow([",".join(map(str, diag)), ",".join(map(str, shifts))])
    return out.getvalue()


def shift_cells(cells: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """Apply the shift pattern to flat row-major cells; no validity check."""
    # PLUS_FLAT up and MINUS_FLAT down, written out; tests pin it to the two
    a, b, c, d, e, f, g, h, k = cells
    return (a, b + shift, c - shift, d - shift, e, f + shift, g + shift, h - shift, k)


def companion_cells(cells: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All other cell tuples sharing this grid's diagonal and line sums."""
    entries = shift_match_table()[tuple(sorted((cells[0], cells[4], cells[8])))]
    if not entries:  # rigid diagonal: 35 of 84, no companion to match
        return []
    plus = tuple(sorted((cells[1], cells[5], cells[6])))
    return [shift_cells(cells, shift) for shift, required in entries if plus == required]


def companion_solutions(grid: Grid) -> list[Grid]:
    """All grids other than this one that answer its full-diagonal puzzle.

    Computed structurally from the shift table; the constructor re-validates
    each emitted grid. At most one companion can exist.
    """
    _check_type(grid, Grid, "grid")
    return [Grid(c) for c in companion_cells(grid.cells)]
