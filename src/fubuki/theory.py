"""Shift structure of alternate solutions sharing a diagonal and line sums.

Fix a solved grid. Any other grid with the same diagonal, row sums, and
column sums must be the original with one constant added to the cells at
(1,2), (2,3), (3,1) and subtracted from the cells at (1,3), (2,1), (3,2):
those six positions form the only degree of freedom once the diagonal and
sums are pinned. Such a shift produces a legal grid exactly when the six
off-diagonal values can be split into three pairs each differing by the
shift, with the pair bases sitting at the +shift positions. This module
works out once, on first use, which shifts each diagonal admits, in the one
table `shift_match_table()`, the only place that pairs values or checks the
bound of at most two shifts. Classifying the 84 diagonals and deriving
companion solutions, instead of searching for them, project that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Mapping

from .core import Grid

# Flat row-major indices of the off-diagonal cells, split by the sign the
# shift is applied with. PLUS cells gain the shift, MINUS cells lose it.
PLUS_FLAT = (1, 5, 6)  # (1,2), (2,3), (3,1)
MINUS_FLAT = (2, 3, 7)  # (1,3), (2,1), (3,2)

MAX_SHIFT = 8  # largest difference between two values in 1..9


def _check_shift(shift: int) -> int:
    if not isinstance(shift, int) or isinstance(shift, bool):
        raise ValueError(f"shift must be an integer, got {shift!r}")
    if shift == 0 or abs(shift) > MAX_SHIFT:
        raise ValueError(f"shift must be nonzero with |shift| <= {MAX_SHIFT}, got {shift}")
    return shift


@dataclass(frozen=True)
class Triplet:
    """The three pair bases of a perfect pairing of six values by one shift.

    `values` are ascending and `{v, v + shift for v in values}` is exactly the
    six-value set the triplet was derived from. For a negative shift the
    bases are the pair maxima, so they sit above their partners.
    """

    values: tuple[int, int, int]
    shift: int

    def __post_init__(self) -> None:
        _check_shift(self.shift)
        if list(self.values) != sorted(self.values):
            raise ValueError(f"triplet values must be ascending, got {self.values}")
        if len(self.covered) != 6 or not all(1 <= v <= 9 for v in self.covered):
            raise ValueError(
                f"values {self.values} with shift {self.shift} do not pair six "
                "distinct values in 1..9"
            )

    @property
    def covered(self) -> frozenset[int]:
        """All six paired values."""
        return frozenset(self.values) | frozenset(v + self.shift for v in self.values)


def _is_digit(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= 9


def _check_six(values: Iterable[int]) -> frozenset[int]:
    s = frozenset(values)
    if len(s) != 6 or not all(map(_is_digit, s)):
        raise ValueError(f"expected 6 distinct values in 1..9, got {sorted(s)}")
    return s


def _check_diagonal(values: Iterable[int]) -> tuple[int, int, int]:
    t = tuple(sorted(values))
    if len(t) != 3 or len(set(t)) != 3 or not all(map(_is_digit, t)):
        raise ValueError(f"expected 3 distinct values in 1..9, got {values!r}")
    return t


def find_triplet(values: Iterable[int], shift: int) -> Triplet | None:
    """The unique pairing bases for `values` under `shift`, or None.

    For a positive shift the bases are found greedily: the minimum of what
    remains must pair with itself plus the shift, else no pairing exists.
    A negative shift admits a pairing exactly when its absolute value does,
    with the bases moved up by that amount (the maxima of the same pairs).
    """
    pool = _check_six(values)
    _check_shift(shift)
    step = abs(shift)
    remaining = set(pool)
    bases: list[int] = []
    for _ in range(3):
        low = min(remaining)
        if low + step not in remaining:
            return None
        remaining.remove(low)
        remaining.remove(low + step)
        bases.append(low)
    if shift < 0:
        bases = [b + step for b in bases]
    return Triplet((bases[0], bases[1], bases[2]), shift)


_Matches = dict[tuple[int, int, int], tuple[tuple[int, tuple[int, int, int]], ...]]


@cache
def shift_match_table() -> _Matches:
    """The one shift table: each diagonal's shifts and the +cell values they need.

    Maps each sorted diagonal, in lex order, to ((shift, required), ...)
    where a grid with that diagonal has the shifted companion exactly when
    the sorted values at its three +shift cells equal `required`. Entries
    are ordered by |shift| ascending, positive before negative, which fixes
    companion order. Built on first use, not at import; the only caller of
    `find_triplet`. Raises RuntimeError if a diagonal admits more than two
    shifts, a bound checked rather than assumed. Every other reader of the
    shift structure projects this table.
    """
    table: _Matches = {}
    signed = [s for c in range(1, MAX_SHIFT + 1) for s in (c, -c)]  # 1, -1, 2, -2, ...
    for diag in combinations(range(1, 10), 3):
        complement = frozenset(range(1, 10)).difference(diag)
        entries = [(s, t.values) for s in signed if (t := find_triplet(complement, s)) is not None]
        if len(shifts := {abs(s) for s, _ in entries}) > 2:
            raise RuntimeError(f"diagonal {diag} admits {len(shifts)} shifts, expected at most 2")
        table[diag] = tuple(entries)
    return table


def possible_shifts(diagonal: Iterable[int]) -> frozenset[int]:
    """All positive shifts the complement of this diagonal can be paired by."""
    entries = shift_match_table()[_check_diagonal(diagonal)]
    return frozenset(shift for shift, _ in entries if shift > 0)


@dataclass(frozen=True)
class DiagonalClass:
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
    return DiagonalClass(diagonal=frozenset(diag), shifts=possible_shifts(diag))


def build_shift_table() -> dict[tuple[int, int, int], frozenset[int]]:
    """Admissible positive shifts for every 3-subset of 1..9, in lex order,
    as a fresh dict projected from `shift_match_table()`."""
    return {diag: possible_shifts(diag) for diag in shift_match_table()}


@cache
def rigid_diagonals() -> tuple[tuple[int, int, int], ...]:
    """The diagonals admitting no shift, in lex order."""
    return tuple(d for d, entries in shift_match_table().items() if not entries)


def shift_table_to_csv(table: Mapping[tuple[int, int, int], frozenset[int]]) -> str:
    """CSV with header `diagonal,shifts`, rows ordered lexicographically."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["diagonal", "shifts"])
    for diag in sorted(table):
        shifts = ",".join(str(c) for c in sorted(table[diag]))
        writer.writerow([",".join(str(v) for v in diag), shifts])
    return out.getvalue()


def shift_cells(cells: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """Apply the shift pattern to flat row-major cells; no validity check."""
    out = list(cells)
    for i in PLUS_FLAT:
        out[i] += shift
    for i in MINUS_FLAT:
        out[i] -= shift
    return tuple(out)


def is_valid_shift(grid: Grid, shift: int) -> bool:
    """Whether shifting produces a second legal grid with the same clues.

    Checked directly from the definition: the six shifted off-diagonal
    entries must form exactly the original off-diagonal value set.
    """
    _check_shift(shift)
    cells = grid.cells
    original = grid.off_diagonal_values()
    shifted = {cells[i] + shift for i in PLUS_FLAT}
    shifted.update(cells[i] - shift for i in MINUS_FLAT)
    return shifted == original


@cache
def _ordered_matches() -> _Matches:
    """shift_match_table() under all six orderings of each diagonal, so a
    grid's diagonal is looked up as it stands."""
    table = shift_match_table()
    return {ordered: table[diag] for diag in table for ordered in permutations(diag)}


def companion_cells(cells: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All other cell tuples sharing this grid's diagonal and line sums."""
    entries = _ordered_matches()[cells[0], cells[4], cells[8]]
    if not entries:  # rigid diagonal: 35 of 84, no companion to match
        return []
    plus = tuple(sorted((cells[1], cells[5], cells[6])))
    return [shift_cells(cells, shift) for shift, required in entries if plus == required]


def companion_solutions(grid: Grid) -> list[Grid]:
    """All grids other than this one that answer its full-diagonal puzzle.

    Computed structurally from the shift table; the constructor re-validates
    each emitted grid. At most one companion can exist.
    """
    return [Grid(c) for c in companion_cells(grid.cells)]
