"""Seeded puzzle generation, optionally with a guaranteed-unique solution.

Every puzzle but a full-diagonal unique one comes from one draw loop. The
loop reads its draws, each a shuffle of 1..9, from `SplitMix64._shuffles`,
the stream of repeated `shuffle` calls mixed eight draws at a time (see
`rng.py`). It rejects a weaker regime's draw when the draw's bucket holds
two or more grids, which it reads as one byte, a flag. The flags are the
census's own lane counts (see `census.py`), one byte per lane passed
through `census._MULTI`, the one definition of a multi-grid bucket, and
they are held by group, each built when a draw first lands there and kept
for the process:

- `top-left` and `none` by first row sum r1, from the dense count's ints,
  one slot of 9,145 lanes per top-left digit a (slot 0 alone under
  `none`), so a draw reads byte a*9145 + r2*361 + c1*19 + c2;
- `first-two-diagonal` by the pair {a, e} of its first two cells, from the
  diagonal count's lanes of the pair, one row of 15 x 15 flags per key of
  (b, c, h), fixed by b+c and b+h, so a draw reads flag 15*(d+f-3) + d+g-3
  of its row.

A group checks that its lanes hold all of its grids, 4,320 per first-row
digit set or 5,040 per pair, and raises RuntimeError naming the regime and
the group unless they do: a lane that carried took 255 off that total, or
left its int from the top lane. The loop reads a draw's group and flag
from the fields of its signature key, one call per draw.
"""

from __future__ import annotations

import importlib
from functools import cache
from itertools import combinations, repeat
from math import factorial

from .census import _DENSE_LANES, _LANES, _MULTI, _SUMS, _WEIGHTS
from .core import ClueSet, Grid, PrescriptionRegime
from .core import _bad, _check_type, _is_int
from .rng import SplitMix64
from .solver import count_solutions
from .theory import build_shift_table

# the module, which the package's census() hides: its functions are read
# through it at each call, so a wrapper installed on one is seen
census = importlib.import_module(".census", __package__)

_TWO = PrescriptionRegime.FIRST_TWO_DIAGONAL
# Flat indices the off-diagonal values fill, in row-major reading order.
_OFF_DIAGONAL_FLAT = (1, 2, 3, 5, 6, 7)
_DIGITS = tuple(range(1, 10))


@cache
def _polynomials(diagonal: bool) -> dict[tuple[int, ...], int]:
    """The row polynomials of the diagonal count if `diagonal`, else of the
    dense count: built on first use, and shared by every group."""
    return census._sum_polynomials() if diagonal else census._row_polynomials()


def _dense_flags(regime: PrescriptionRegime, r1: int) -> bytes:
    """The flags of `top-left`'s or `none`'s group of first row sum `r1`:
    the dense count's slots end to end, slot a for top-left digit a (slot
    0 under `none`), `_DENSE_LANES` flags each."""
    tails = census._group_tails(r1, _polynomials(False))
    lanes = census._dense_lanes(regime, tails)
    slots = map(lanes.get, range(max(lanes) + 1), repeat(0))
    wanted = factorial(3) * factorial(6) * len(tails)
    group = f"group of first row sum {r1}"
    return census._lane_bytes(slots, regime, group, wanted, _DENSE_LANES)[0].translate(_MULTI)


def _pair_flags(pair: tuple[int, int]) -> dict[int, bytes]:
    """The flags of `first-two-diagonal`'s group of the first two diagonal
    digits `pair` (sorted): per key of (b, c, h), as the diagonal count
    keys the lanes of its 7 diagonal digit sets, 15 x 15 flags, one per
    (d+f, d+g)."""
    sets = {
        diagonal: census._diagonal_lanes(diagonal, _polynomials(True))
        for diagonal in combinations(_DIGITS, 3)
        if set(pair) <= set(diagonal)
    }
    lanes = census._pair_lanes(pair, sets)
    blob, _ = census._lane_bytes(lanes.values(), _TWO, f"diagonal pair {pair}", 7 * factorial(6))
    flags = blob.translate(_MULTI)
    return {key: flags[i : i + _LANES] for key, i in zip(lanes, range(0, len(flags), _LANES))}


class _Groups(dict):
    """A weaker regime's flags by group, each built when a draw first lands
    in it and kept for the process."""

    def __init__(self, regime: PrescriptionRegime) -> None:
        self.regime = regime

    def __missing__(self, group):
        flags = _pair_flags(group) if self.regime is _TWO else _dense_flags(self.regime, group)
        self[group] = flags
        return flags


_GROUPS = {r: _Groups(r) for r in PrescriptionRegime if r is not PrescriptionRegime.FULL_DIAGONAL}


# A draw's flag, read from its signature key under its regime: the key's
# fields are its line sums r1, r2, c1, c2, 5 bits each, then its prescribed
# cells, 4 bits each (see `census.py`).


def _none_flag(groups: _Groups, key: int) -> int:
    return groups[key >> 15][(key >> 10 & 31) * 361 + (key >> 5 & 31) * 19 + (key & 31)]


def _top_left_flag(groups: _Groups, key: int) -> int:
    lane = (key >> 14 & 31) * 361 + (key >> 9 & 31) * 19 + (key >> 4 & 31)
    return groups[key >> 19][(key & 15) * _DENSE_LANES + lane]


def _pair_flag(groups: _Groups, key: int) -> int:
    # b+c = r1 - a and b+h = c2 - e pick the row, d+f = r2 - e and d+g = c1 - a its flag
    a, e = key >> 4 & 15, key & 15
    rows = groups[(a, e) if a < e else (e, a)]
    row = rows[((key >> 23) - a) * _WEIGHTS[2] + ((key >> 8 & 31) - e) * _WEIGHTS[7]]
    return row[_SUMS * ((key >> 18 & 31) - e - 3) + (key >> 13 & 31) - a - 3]


_FLAG = {
    _TWO: _pair_flag,
    PrescriptionRegime.TOP_LEFT: _top_left_flag,
    PrescriptionRegime.NONE: _none_flag,
}


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
    until the draw's flag shows that its bucket holds no other grid, and a
    run builds only the groups of flags its draws land in; each such puzzle
    is then re-verified with the brute-force solver rather than trusted.
    Only the accepted draw is built and validated as a `Grid`. The seed-7
    output of every regime, with and without uniqueness, is pinned by a
    test, so a change here must keep the stream byte-identical.
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
    # one key per draw, read through the module at each call
    signature_key = census.signature_key
    groups = _GROUPS[regime] if require_unique else None
    flag = _FLAG.get(regime)
    draws = rng._shuffles(_DIGITS)  # each draw a shuffle of 1..9 afresh
    puzzles: list[ClueSet] = []
    for _ in range(count):
        for cells in draws:
            if groups is None or not flag(groups, signature_key(cells, regime)):
                break
        clue = ClueSet.from_grid(Grid(cells), regime)
        if groups is not None and count_solutions(clue) != 1:
            raise RuntimeError(f"generator produced a non-unique puzzle for {cells}")
        puzzles.append(clue)
    return puzzles
