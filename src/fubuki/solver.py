"""Exhaustive solving for arbitrary clue sets.

This is the ground truth the structural machinery is validated against.
Row 1 is drawn from the ordered triples of distinct digits that reach its
sum, keeping those that agree with its prescribed cells. Rows 2 and 3 are
then filled column by column. Below row 1, column 1 and column 2 each hold
two distinct digits outside row 1 that make up the column's sum less row
1's cell, so the search takes column 1's ordered pairs and then column 2's
pairs that share no digit with them. Row 2's sum forces its third cell and
column 3's sum the cell below it, and a grid is kept when those two are the
two digits still unused and agree with column 3's prescribed cells. Once
the line sums total 45 twice, row 3 always meets its sum. Row 1, column 1's
pairs and column 2's pairs are each tried in order, and they fix every
other cell, so solutions come out in lexicographic order of the row-major
cells.

`solve` checks the bare cells of each solution it returns twice, with real
raises, before it builds any grid: they must be a permutation of 1..9, and
they must satisfy the clues by `ClueSet._holds`, the cell-level check that
`ClueSet.satisfied_by` makes too. It then builds each `Grid` once, through
`core._grid_of_permutation`, rather than through `Grid(...)`, whose
validation would repeat the first check cell by cell; `Grid(...)` still
checks every input from outside the program.

The triples of row 1 that agree with one prescribed cell depend only on
its sum, that cell's column and its digit, so they are memoised on first
use, by one `functools.cache`, as views: `_view(s, col, digit)` is the
triples of line sum s with that digit in 1-based column col, in order.
`_view(s, 0, 0)` holds all of s's triples, the view of a row 1 with no
prescribed cell, and every other view of s filters it. ClueSet bounds the
sums, columns and digits, so there are at most 19 sums x (1 + 3 x 9) = 532
keys and no input can grow the memo past that. A second or third
prescribed cell in row 1 narrows the view of its first at call time.

The pairs a column can take below row 1 depend only on row 1's digit set:
`_pairs(m)` maps a pair sum to the ordered pairs of digits outside row-1
mask m that reach it, in order of top. The six orderings of a digit set
share its line sum, so they all sit in one base view, which builds the
set's table once and gives it to each of them as the triple's fifth field;
the other views of the sum filter those triples and so share their tables.
`_view` is thus the one memo: there are 84 digit sets and so 84 tables, and
every table holds the same 72 pair tuples, so all 84 take about 0.10 MB.
`_search` looks up no table per row 1. A prescribed cell below row 1 in
column 1 or 2 fixes the column's one pair, which `_narrow` looks up per
row 1 instead of reading the table.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple

from .core import ClueSet, Grid, _bad, _grid_of_permutation, _is_int

_ALL_DIGITS = 0b1111111110  # bit d set for each digit 1..9
_DIGIT_SET = frozenset(range(1, 10))  # the cells of every grid

_Pair = tuple[int, int, int]  # (top, bottom, mask); see _pairs
_Table = dict[int, tuple[_Pair, ...]]  # pair sum -> pairs; see _pairs
_Triple = tuple[int, int, int, int, _Table]  # (a, b, c, mask, table); see _view

# (top, bottom) -> (top, bottom, mask) for the 72 ordered pairs of distinct
# digits, by top and then bottom; every table of _pairs holds these tuples
_PAIR = {(t, u): (t, u, 1 << t | 1 << u) for t, u in permutations(range(1, 10), 2)}


class SolveResult(NamedTuple):
    """Solutions are deduplicated by construction and lexicographically ordered.

    When `truncated` is true the enumeration stopped at `limit` with more
    solutions confirmed to remain, and `count` equals the limit. Only
    `solve` builds one; its fields are not checked.
    """

    solutions: list[Grid]
    truncated: bool

    @property
    def count(self) -> int:
        return len(self.solutions)


@cache
def _view(s: int, col: int, digit: int) -> tuple[_Triple, ...]:
    """The ordered triples of distinct digits summing to line sum `s` with
    `digit` in 1-based column `col`, in lexicographic order; `col == 0`
    keeps them all. A triple is `(a, b, c, mask, pairs)`, with bit d of
    `mask` set for each of its digits d and `pairs` its mask's `_pairs(mask)`,
    so `_search` reads row 1's pair table without a call.

    Memoised on first use, so importing the package builds none. Views are
    immutable, so every search can share them, and two threads that fill
    one key at once store equal views holding equal tables.
    """
    if col:
        return tuple(t for t in _view(s, 0, 0) if t[col - 1] == digit)
    view = []
    for digits in combinations(range(1, 10), 3):
        if sum(digits) == s:
            m = sum(1 << d for d in digits)
            pairs = _pairs(m)  # built once, for all six orderings of the digits
            view += [(*t, m, pairs) for t in permutations(digits)]
    # any two triples differ in their digits, so sorting compares no table
    return tuple(sorted(view))


def _pairs(m: int) -> _Table:
    """Pair sum -> the ordered pairs `(top, bottom, mask)` of distinct digits
    outside digit mask `m` that reach it, in order of top. `_view` builds
    one per row-1 digit set, shared by the set's six orderings, and nothing
    changes a table once built."""
    by_sum: dict[int, list[_Pair]] = {}
    for pair in _PAIR.values():
        if not pair[2] & m:
            by_sum.setdefault(pair[0] + pair[1], []).append(pair)
    return {s: tuple(pairs) for s, pairs in by_sum.items()}


def _narrow(m: int, s: int, top: int, bottom: int) -> tuple[_Pair, ...]:
    """The pairs of sum `s` outside digit mask `m` that agree with a
    column's prescribed top cell, bottom cell or both (0 where none is
    prescribed). There is at most one, since either cell fixes the other.
    """
    top = top or s - bottom
    pair = _PAIR.get((top, s - top))
    if pair is None or pair[2] & m or (bottom and pair[1] != bottom):
        return ()
    return (pair,)


def _search(clues: ClueSet, limit: int | None) -> list[tuple[int, ...]]:
    """Every satisfying grid's cells in lexicographic order, or the first `limit + 1`.

    Row 1 is (a, b, c), row 2 (d, e, f) and row 3 (g, h, i). Once the
    column sums total 45, f + i is the sum of the two digits that the other
    seven leave, so f being one of those two makes i the other; and once
    the row sums total 45 too, row 3 always meets its sum.
    """
    if not isinstance(clues, ClueSet):  # inline: every solve and count runs this
        raise _bad("clues", "a ClueSet", clues)
    row_sums, col_sums = clues.row_sums, clues.col_sums
    if sum(row_sums) != 45 or sum(col_sums) != 45:
        return []
    # row 1's triples, less those that disagree with its prescribed cells:
    # the memoised view of its first one, narrowed here by any others; and
    # each lower cell's prescribed digit, 0 for none
    first = None
    lower = [0] * 6  # d, e, f, g, h, i
    for r, c, v in clues.prescribed:
        if r > 1:
            lower[3 * r - 7 + c] = v
        elif first is None:
            first = _view(row_sums[0], c, v)
        else:
            first = tuple(t for t in first if t[c - 1] == v)
    if first is None:
        first = _view(row_sums[0], 0, 0)
    top1, top2, top3, bottom1, bottom2, bottom3 = lower
    r2 = row_sums[1]
    s1, s2, s3 = col_sums
    found: list[tuple[int, ...]] = []
    for a, b, c, m, pairs in first:
        # columns 2 and 1 below row 1: digits outside it that make up the
        # column's sum, narrowed by their prescribed cells; column 2 first,
        # as a prescribed cell there often leaves it no pair
        if top2 or bottom2:
            middles = _narrow(m, s2 - b, top2, bottom2)
        else:
            middles = pairs.get(s2 - b, ())
        if not middles:
            continue
        if top1 or bottom1:
            lefts = _narrow(m, s1 - a, top1, bottom1)
        else:
            lefts = pairs.get(s1 - a, ())
        for d, g, p in lefts:
            left = _ALL_DIGITS ^ m ^ p  # the four digits columns 2 and 3 share
            for e, h, q in middles:
                if p & q:
                    continue
                f = r2 - d - e
                # f > 0 keeps the shift legal; the two digits still unused
                # have no bit 0 and none above 9
                if f > 0 and (left ^ q) >> f & 1:
                    i = s3 - c - f
                    if (not top3 or f == top3) and (not bottom3 or i == bottom3):
                        found.append((a, b, c, d, e, f, g, h, i))
                        if limit is not None and len(found) > limit:
                            return found
    return found


def solve(clues: ClueSet, limit: int | None = None) -> SolveResult:
    """Enumerate every grid satisfying the clues, optionally capped at `limit`.

    Unsatisfiable clues (including sums that cannot total 45) yield an empty
    result rather than an error. `limit` must be None or a positive int.

    The cells of every returned grid are checked to be a permutation of
    1..9 and to satisfy the clues before any grid is built, and either
    failure raises RuntimeError. The first check is the one `Grid(...)`
    would make, so each grid is built without making it again.
    """
    if limit is not None and not (_is_int(limit) and limit >= 1):
        raise _bad("limit", "positive", limit)
    found = _search(clues, limit)
    # _search stops at limit + 1 solutions, the last only to show that more remain
    truncated = limit is not None and len(found) > limit
    if truncated:
        del found[limit:]
    covers, holds = _DIGIT_SET.issubset, clues._holds
    for f in found:
        # _search builds its cells by int arithmetic, so they are exact ints,
        # and nine of them make 1..9 exactly when each digit is among them
        if not (len(f) == 9 and covers(f)):
            raise RuntimeError(f"solver emitted {f}, which is not a permutation of 1..9")
        if not holds(f):
            raise RuntimeError(f"solver emitted {f}, which does not satisfy the clues")
    # positional: a NamedTuple built from keywords costs more per call
    return SolveResult(list(map(_grid_of_permutation, found)), truncated)


def count_solutions(clues: ClueSet) -> int:
    """Same search as solve, counting cell tuples without building grids."""
    return len(_search(clues, None))
