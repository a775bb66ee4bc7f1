"""Seeded puzzle generation, optionally with a guaranteed-unique solution.

Every puzzle but a full-diagonal unique one comes from one draw loop. The
multi-grid buckets it rejects a weaker regime's draws by sit in `_GROUPS`,
a plain dict per regime from first row sum to the buckets that
`census.group_multi_buckets` counts for that sum, filled on the first draw
that lands there and kept for the process.
"""

from __future__ import annotations

from .census import group_multi_buckets
from .core import ClueSet, Grid, PrescriptionRegime, _bad, _check_type, _is_int
from .rng import SplitMix64
from .solver import count_solutions
from .theory import build_shift_table

# Flat indices the off-diagonal values fill, in row-major reading order.
_OFF_DIAGONAL_FLAT = (1, 2, 3, 5, 6, 7)
_DIGITS = range(1, 10)

# a weaker regime's multi-grid buckets by first row sum; r1 leads every key,
# so a grid whose key is missing from its sum's group is the only solution
# of its puzzle
_GROUPS: dict[PrescriptionRegime, dict[int, dict[int, int]]] = {
    regime: {} for regime in PrescriptionRegime if regime is not PrescriptionRegime.FULL_DIAGONAL
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
    values = list(_DIGITS)
    shuffle = rng.shuffle
    puzzles: list[ClueSet] = []
    for _ in range(count):
        while True:
            values[:] = _DIGITS  # each draw shuffles 1..9 afresh
            shuffle(values)
            cells = tuple(values)
            if groups is None:
                break
            r1 = cells[0] + cells[1] + cells[2]
            multi = groups.get(r1)
            if multi is None:
                multi = groups[r1] = group_multi_buckets(regime, r1)
            if signature_key(cells, regime) not in multi:
                break
        clue = ClueSet.from_grid(Grid(cells), regime)
        if groups is not None and count_solutions(clue) != 1:
            raise RuntimeError(f"generator produced a non-unique puzzle for {cells}")
        puzzles.append(clue)
    return puzzles
