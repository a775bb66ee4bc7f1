"""Exhaustive solving for arbitrary clue sets.

This is the ground truth the structural machinery is validated against. The
search works a whole row at a time. Rows 1 and 2 are drawn from the ordered
triples of distinct digits that reach their sums, keeping those that agree
with the row's prescribed cells, and then the column sums force row 3: each
of its cells is its column's sum less the two cells above. A grid is kept
only if row 3 is a triple of digits that agrees with its own prescribed
cells and the three rows use all of 1..9. A line sum has at most 48
triples, and row 2's are paired only with the row 1s they share no digit
with. Both rows are tried in lexicographic order and row 3 is a function of
them, so solutions come out in lexicographic order of the row-major cells.

`solve` checks each solution it returns twice, with real raises: its cells
must be a permutation of 1..9 and the grid must satisfy the clues. Having
checked the first, it builds the `Grid` once, through
`core._grid_of_permutation`, rather than through `Grid(...)`, whose
validation would repeat that check cell by cell; `Grid(...)` still checks
every input from outside the program.

The triples of a row that agree with one prescribed cell depend only on
the row's sum, that cell's column and its digit, so they are memoised on
first use, by one `functools.cache`, as views: `_view(s, col, digit)` is
the triples of line sum s with that digit in 1-based column col, in order,
and their frozenset, which answers row 3's lookup. `_view(s, 0, 0)` holds
all of s's triples, the view of a row with no prescribed cell, and every
other view of s filters it. ClueSet bounds the sums, columns and digits,
so there are at most 19 sums x (1 + 3 x 9) = 532 keys and no input can
grow the memo past that. A row with a second or third prescribed cell
narrows the view of its first at call time.

Which row 2s share no digit with a row 1 depends, when row 2 has no
prescribed cell, only on row 2's sum and row 1's digit set, so those lists
are memoised too, by one more `functools.cache`: `_disjoint(s)` is a dict
from row-1 mask to the row 2s of sum s that it leaves, filled by the
search for the masks it reaches. That is at most 19 sums x 84 digit sets =
1,596 entries, about 0.17 MB when all are filled. A row 2 with a prescribed
cell works its lists out per call, for the row 1s the search reaches: a
memo of those would be keyed by sum, view and row-1 digit set, up to 19 x
28 x 84 lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .core import ClueSet, Grid, _bad, _grid_of_permutation, _is_int

_ALL_DIGITS = 0b1111111110  # bit d set for each digit 1..9
_DIGITS = list(range(1, 10))  # the sorted cells of every grid

_Triple = tuple[int, int, int, int]  # (a, b, c, mask); see _view


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


@cache
def _disjoint(s: int) -> dict[int, tuple[_Triple, ...]]:
    """The memo of row 2s for a row 2 of line sum `s` with no prescribed
    cell: row-1 mask -> the triples of `_view(s, 0, 0)` that share no digit
    with it, in order. `_search` fills it one mask at a time as its row 1s
    reach them; a row 1 is three distinct digits, so it holds at most 84.
    Each list is stored as a tuple, which takes less memory than a list.

    Memoised on first use, so importing the package builds none. Two threads
    that fill one mask at once both store equal tuples, so whichever lands
    is right, and a reader never sees a partly built entry.
    """
    return {}


@cache
def _view(s: int, col: int, digit: int) -> tuple[tuple[_Triple, ...], frozenset[_Triple]]:
    """The ordered triples of distinct digits summing to line sum `s` with
    `digit` in 1-based column `col`, in lexicographic order, and their
    frozenset; `col == 0` keeps them all. A triple is `(a, b, c, mask)`, with
    bit d of `mask` set for each of its digits d.

    Memoised on first use, so importing the package builds none. Views are
    immutable, so every search can share them, and two threads that fill
    one key at once store equal views.
    """
    if col:
        triples = tuple(t for t in _view(s, 0, 0)[0] if t[col - 1] == digit)
    else:
        triples = tuple(
            (a, b, c, 1 << a | 1 << b | 1 << c)
            for a, b, c in permutations(range(1, 10), 3)
            if a + b + c == s
        )
    return triples, frozenset(triples)


def _search(clues: ClueSet, limit: int | None) -> list[tuple[int, ...]]:
    """Every satisfying grid's cells in lexicographic order, or the first `limit + 1`.

    Row 3's sum is the 45 that the column sums total less rows 1 and 2, so
    once both totals are 45 a row 3 of digits always meets its row sum.
    """
    if not isinstance(clues, ClueSet):  # inline: every solve and count runs this
        raise _bad("clues", "a ClueSet", clues)
    row_sums, col_sums = clues.row_sums, clues.col_sums
    if sum(row_sums) != 45 or sum(col_sums) != 45:
        return []
    # each row's triples, less those that disagree with its prescribed cells:
    # the memoised view of its first one, narrowed here by any others
    views: list = [None, None, None]
    for r, c, v in clues.prescribed:
        view = views[r - 1]
        if view is None:
            views[r - 1] = _view(row_sums[r - 1], c, v)
        else:
            triples = tuple(t for t in view[0] if t[c - 1] == v)
            views[r - 1] = (triples, frozenset(triples))
    first = (views[0] or _view(row_sums[0], 0, 0))[0]
    second = (views[1] or _view(row_sums[1], 0, 0))[0]
    third = (views[2] or _view(row_sums[2], 0, 0))[1]
    # row-1 mask -> the row 2s it leaves; they depend only on row 2's sum
    # when it has no prescribed cell, so that case reads the shared memo
    disjoint = _disjoint(row_sums[1]) if views[1] is None else {}
    # one lookup in `third` checks that row 3 is digits that agree with its
    # prescribed cells and are the three that rows 1 and 2 leave
    s1, s2, s3 = col_sums
    found: list[tuple[int, ...]] = []
    for a, b, c, m in first:
        seconds = disjoint.get(m)
        if seconds is None:
            seconds = disjoint[m] = tuple([t for t in second if not t[3] & m])
        for d, e, f, n in seconds:
            g, h, i = s1 - a - d, s2 - b - e, s3 - c - f
            if (g, h, i, _ALL_DIGITS ^ m ^ n) in third:
                found.append((a, b, c, d, e, f, g, h, i))
                if limit is not None and len(found) > limit:
                    return found
    return found


def solve(clues: ClueSet, limit: int | None = None) -> SolveResult:
    """Enumerate every grid satisfying the clues, optionally capped at `limit`.

    Unsatisfiable clues (including sums that cannot total 45) yield an empty
    result rather than an error. `limit` must be None or a positive int.

    Every returned grid is checked to be a permutation of 1..9 and to
    satisfy the clues, and either failure raises RuntimeError. The first
    check is the one `Grid(...)` would make, so the grid is built without
    making it again.
    """
    if limit is not None and not (_is_int(limit) and limit >= 1):
        raise _bad("limit", "positive", limit)
    found = _search(clues, limit)
    solutions = []
    for f in found[:limit]:
        # _search builds its cells by int arithmetic, so they are exact ints
        if sorted(f) != _DIGITS:
            raise RuntimeError(f"solver emitted {f}, which is not a permutation of 1..9")
        g = _grid_of_permutation(f)
        if not clues.satisfied_by(g):
            raise RuntimeError(f"solver emitted {f}, which does not satisfy the clues")
        solutions.append(g)
    return SolveResult(solutions=solutions, truncated=len(found) > len(solutions))


def count_solutions(clues: ClueSet) -> int:
    """Same search as solve, counting cell tuples without building grids."""
    return len(_search(clues, None))
