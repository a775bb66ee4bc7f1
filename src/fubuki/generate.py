"""Seeded puzzle generation, optionally with a guaranteed-unique solution.

Every puzzle but a full-diagonal unique one comes from one draw loop. The
loop reads its draws, each a shuffle of 1..9, from `SplitMix64._shuffles`,
the stream of repeated `shuffle` calls mixed eight draws at a time (see
`rng.py`). It rejects a weaker regime's draw when the draw's key is among
the multi-grid buckets of the draw's first row sum, counted by
`census._group_counts`.
The loop asks only whether a key is there, never a bucket's size, so
`_GROUPS` holds each counted group as bitmasks: a dict from `key >> _LOW`
to an int whose bit `key & _LOW_MASK` is set for each multi-grid key. A
group is counted on the first draw that lands there and kept for the
process; its bits are set from its counts, and no `{key: size}` dict is
built, so the 57 groups hold 14,425 ints where they would hold 206,382.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import le

from .census import _group_counts
from .core import ClueSet, Grid, PrescriptionRegime, _bad, _check_type, _is_int
from .rng import SplitMix64
from .solver import count_solutions
from .theory import build_shift_table

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
    counts = _group_counts(regime, r1)
    for key in compress(counts, map(le, repeat(2), counts.values())):
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
