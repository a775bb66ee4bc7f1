"""Seeded puzzle generation, optionally with a guaranteed-unique solution.

Every puzzle but a full-diagonal unique one comes from one draw loop. The
loop reads its draws, each a shuffle of 1..9, from `SplitMix64._shuffles`,
the stream of repeated `shuffle` calls mixed eight draws at a time (see
`rng.py`). It rejects a weaker regime's draw when the draw's key is among
the multi-grid buckets of the draw's first row sum, counted by
`_group_counts`. The loop asks only whether a key is there, never a
bucket's size, so `_GROUPS` holds each counted group as bitmasks: a dict
from `key >> _LOW` to an int whose bit `key & _LOW_MASK` is set for each
multi-grid key. A group is counted on the first draw that lands there and
kept for the process; its bits are set for the keys that `census._MULTI`,
the one definition of a multi-grid bucket, picks from its sizes, and no
`{key: size}` dict is built, so the 57 groups hold 14,425 ints where they
would hold 206,382.

`_group_counts` is the dict count, which the tests also read as the
reference for the census's lane counts. The key is linear in the cells
(see `census.py`), so a grid's key is a first-row key plus a lower-rows
key. For each digit set of the group's first row it
builds the 720 keys of the rows below once, per split of the other six
digits into rows 2 and 3: 6 row-2 keys plus 6 row-3 keys, read from two
tables of the 504 ordered triples (built on first use) and added in C.
Then for each of the set's 6 row orderings it counts head + tail over all
720 tails in C (`collections._count_elements`), each key (head >> drop) +
(tail >> drop) built as (cap + head) - (cap - tail), cap being above every
key, for the reason `_count_group` gives. r1 leads every key, so a group's
counts are final. A bucket of 256 grids or more does not fit a byte, and
raises RuntimeError naming the regime and r1.
"""

from __future__ import annotations

from collections import _count_elements
from functools import cache
from itertools import combinations, compress, permutations, product, repeat, starmap
from math import factorial
from operator import add, mul, sub

from .census import _DROP, _MULTI, _WEIGHTS, _fault
from .core import MAX_LINE_SUM, MIN_LINE_SUM, ClueSet, Grid, PrescriptionRegime
from .core import _bad, _check_type, _is_int
from .rng import SplitMix64
from .solver import count_solutions
from .theory import build_shift_table

_TOP = 9 * sum(_WEIGHTS)  # at least every full-diagonal key


@cache
def _row_keys() -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """The full-diagonal keys of rows 2 and 3 alone, by their cells: one
    table each over the 504 ordered triples of distinct digits."""
    triples = list(permutations(range(1, 10), 3))
    return tuple(
        {row: sum(map(mul, row, weights)) for row in triples}
        for weights in (_WEIGHTS[3:6], _WEIGHTS[6:])
    )


def _group_rows(r1: int) -> list[tuple[list[int], list[int]]]:
    """Full-diagonal keys of the first rows and of the rows below, per
    first-row digit set summing to `r1`: the 6 orderings of the set as heads
    and the 720 fillings of the other six digits as tails, in order of their
    split into rows 2 and 3. A tail's key is its row 2's key plus its row 3's."""
    second, third = _row_keys()
    rows = []
    for first in combinations(range(1, 10), 3):
        if sum(first) != r1:
            continue
        rest = [d for d in range(1, 10) if d not in first]
        tails: list[int] = []
        for pick in combinations(rest, 3):
            row3 = list(map(third.__getitem__, permutations(d for d in rest if d not in pick)))
            tails += starmap(add, product(map(second.__getitem__, permutations(pick)), row3))
        rows.append(([sum(map(mul, row, _WEIGHTS[:3])) for row in permutations(first)], tails))
    return rows


def _count_group(drop: int, rows: list[tuple[list[int], list[int]]]) -> dict[int, int]:
    """Signature counts under one key drop over the grids of a group's rows."""
    counts: dict[int, int] = {}
    cap = _TOP >> drop
    # refilled in place: a new 720-slot list per digit set, alive while the dict
    # grows, would sit in the holes it frees and keep those from coalescing
    lowers = [0] * factorial(6)
    for heads, tails in rows:
        # key = (cap + head) - (cap - tail): CPython's int + int allocates a
        # spare digit that a two-digit key keeps, int - int does not
        lowers[:] = [cap - (tail >> drop) for tail in tails]
        for head in heads:
            _count_elements(counts, map(sub, repeat(cap + (head >> drop)), lowers))
    return counts


def _group_counts(regime: PrescriptionRegime, r1: int) -> tuple[dict[int, int], bytes]:
    """`regime`'s signature counts of the grids of first row sum `r1`, and
    their sizes as bytes, one per key in order. r1 leads every key, so these
    are the counts of their keys over all 9! grids.

    Raises ValueError, before counting, for a non-regime or unless `r1` is an
    int in MIN_LINE_SUM..MAX_LINE_SUM, and RuntimeError for a bucket of 256
    grids or more, or unless the group was counted over all of its grids,
    4,320 per first-row digit set summing to `r1`.
    """
    _check_type(regime, PrescriptionRegime, "regime")
    if not (_is_int(r1) and MIN_LINE_SUM <= r1 <= MAX_LINE_SUM):
        raise _bad("r1", f"an integer in {MIN_LINE_SUM}..{MAX_LINE_SUM}", r1)
    counts = _count_group(_DROP[regime], _group_rows(r1))
    group = f"group of first row sum {r1}"
    try:
        vals = bytes(counts.values())
    except ValueError:
        raise _fault(regime, group, "has a bucket of 256 grids or more") from None
    digit_sets = sum(sum(first) == r1 for first in combinations(range(1, 10), 3))
    # each digit set gives 3! first rows, each over the 6! fillings below
    grids, wanted = sum(vals), factorial(3) * factorial(6) * digit_sets
    if grids != wanted:
        raise _fault(regime, group, f"holds {grids} grids, expected {wanted}")
    return counts, vals


# Flat indices the off-diagonal values fill, in row-major reading order.
_OFF_DIAGONAL_FLAT = (1, 2, 3, 5, 6, 7)
_DIGITS = tuple(range(1, 10))
_LOW = 10
_LOW_MASK = (1 << _LOW) - 1

# a weaker regime's multi-grid keys by first row sum, as the bitmasks above;
# r1 leads every key, so a grid whose key's bit is clear in its sum's group
# is the only solution of its puzzle
_GROUPS: dict[PrescriptionRegime, dict[int, dict[int, int]]] = {
    regime: {} for regime in PrescriptionRegime if regime is not PrescriptionRegime.FULL_DIAGONAL
}


def _hold_group(regime: PrescriptionRegime, r1: int) -> dict[int, int]:
    """Count `regime`'s group of first row sum `r1`, hold its multi-grid keys
    in `_GROUPS` as bitmasks, and return those."""
    masks: dict[int, int] = {}
    counts, vals = _group_counts(regime, r1)
    for key in compress(counts, vals.translate(_MULTI)):
        high = key >> _LOW
        masks[high] = masks.get(high, 0) | 1 << (key & _LOW_MASK)
    _GROUPS[regime][r1] = masks
    return masks


def _rigid_diagonal_grid(rng: SplitMix64, diagonals: tuple[tuple[int, int, int], ...]) -> Grid:
    """A grid whose diagonal, one of `diagonals`, admits no shift, hence a
    unique-solution puzzle."""
    diagonal = list(rng.choice(diagonals))
    rng.shuffle(diagonal)
    rest = sorted(set(range(1, 10)) - set(diagonal))
    rng.shuffle(rest)
    cells = [0] * 9
    cells[0], cells[4], cells[8] = diagonal
    for idx, v in zip(_OFF_DIAGONAL_FLAT, rest):
        cells[idx] = v
    return Grid(tuple(cells))


def generate_puzzles(
    regime: PrescriptionRegime, require_unique: bool, seed: int, count: int
) -> list[ClueSet]:
    """Emit `count` puzzles; identical arguments give identical output.

    With uniqueness required under the full-diagonal regime, the diagonal is
    sampled from the 35 sets admitting no shift, read once per call, which
    forces uniqueness by construction (existence is witnessed by the sampled
    grid itself). Every other puzzle comes from the draw loop. Under the
    weaker regimes with uniqueness required, grids are rejection-sampled
    until the induced puzzle's signature is not among the multi-grid buckets
    of the draw's first row sum, so a run counts only the groups its draws
    need; each such puzzle is then re-verified with the brute-force solver
    rather than trusted. Only the accepted draw is built and validated as a
    `Grid`. The seed-7 output of every regime, with and without uniqueness,
    is pinned by a test, so a change here must keep the stream
    byte-identical.
    """
    _check_type(regime, PrescriptionRegime, "regime")
    _check_type(require_unique, bool, "require_unique")
    # bounded by the stream it seeds, so no two seeds alias one stream
    rng = SplitMix64(seed)
    if not (_is_int(count) and count >= 1):
        raise _bad("count", "an int of at least 1", count)
    if require_unique and regime is PrescriptionRegime.FULL_DIAGONAL:
        diagonals = tuple(d for d, shifts in build_shift_table().items() if not shifts)
        return [
            ClueSet.from_grid(_rigid_diagonal_grid(rng, diagonals), regime)
            for _ in range(count)
        ]
    # resolved through fubuki.census at each call, not bound at import, so
    # a wrapper installed on that module's name sees every rejection draw
    from .census import signature_key
    groups = _GROUPS[regime] if require_unique else None
    draws = rng._shuffles(_DIGITS)  # each draw a shuffle of 1..9 afresh
    puzzles: list[ClueSet] = []
    for _ in range(count):
        for cells in draws:
            if groups is None:
                break
            r1 = cells[0] + cells[1] + cells[2]
            masks = groups.get(r1)
            if masks is None:
                masks = _hold_group(regime, r1)
            key = signature_key(cells, regime)
            if not masks.get(key >> _LOW, 0) >> (key & _LOW_MASK) & 1:
                break
        clue = ClueSet.from_grid(Grid(cells), regime)
        if groups is not None and count_solutions(clue) != 1:
            raise RuntimeError(f"generator produced a non-unique puzzle for {cells}")
        puzzles.append(clue)
    return puzzles
