"""Seeded puzzle generation, optionally with a guaranteed-unique solution."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .census import group_multi_buckets
from .core import ClueSet, Grid, PrescriptionRegime, _bad, _check_type, _is_int
from .rng import SplitMix64
from .solver import count_solutions
from .theory import rigid_diagonals

# Flat indices the off-diagonal values fill, in row-major reading order.
_OFF_DIAGONAL_FLAT = (1, 2, 3, 5, 6, 7)
_DIGITS = range(1, 10)


@dataclass(frozen=True)
class GeneratorConfig:
    regime: PrescriptionRegime
    require_unique: bool
    seed: int
    count: int

    def __post_init__(self) -> None:
        _check_type(self.regime, PrescriptionRegime, "regime")
        _check_type(self.require_unique, bool, "require_unique")
        # bounded here, by the stream it seeds, so no two seeds alias one stream
        SplitMix64(self.seed)
        if not (_is_int(self.count) and self.count >= 1):
            raise _bad("count", "an int of at least 1", self.count)


def _random_grid(rng: SplitMix64) -> Grid:
    values = list(_DIGITS)
    rng.shuffle(values)
    return Grid(tuple(values))


def _rigid_diagonal_grid(rng: SplitMix64) -> Grid:
    """A grid whose diagonal admits no shift, hence a unique-solution puzzle."""
    diagonal = list(rng.choice(rigid_diagonals()))
    rng.shuffle(diagonal)
    rest = sorted(set(range(1, 10)) - set(diagonal))
    rng.shuffle(rest)
    cells = [0] * 9
    cells[0], cells[4], cells[8] = diagonal
    for idx, v in zip(_OFF_DIAGONAL_FLAT, rest):
        cells[idx] = v
    return Grid(tuple(cells))


class _BucketGroups(dict):
    """One weaker regime's multi-grid buckets by first row sum. A group is
    counted on the first lookup of its sum and kept; r1 leads every key, so
    a grid whose key is missing from its sum's group is the only solution of
    its puzzle."""

    def __init__(self, regime: PrescriptionRegime) -> None:
        super().__init__()
        self.regime = regime

    def __missing__(self, r1: int) -> dict[int, int]:
        group = self[r1] = group_multi_buckets(self.regime, r1)
        return group


@cache
def _bucket_groups(regime: PrescriptionRegime) -> _BucketGroups:
    return _BucketGroups(regime)


def generate_puzzles(config: GeneratorConfig) -> list[ClueSet]:
    """Emit `count` puzzles; identical config gives identical output.

    With uniqueness required under the full-diagonal regime, the diagonal is
    sampled from the 35 sets admitting no shift, which forces uniqueness by
    construction (existence is witnessed by the sampled grid itself). Under
    the weaker regimes, grids are rejection-sampled until the induced
    puzzle's signature is not among the multi-grid buckets of the draw's
    first row sum. The buckets of a first row sum are counted by
    `census.group_multi_buckets` on the first draw that lands there and are
    kept for the process, so a run counts only the groups its draws need. A
    draw is a bare cell tuple, a shuffle of 1..9 and so a valid grid by
    construction; only the accepted draw is built and validated as a `Grid`.
    Every emitted puzzle is then re-verified with the brute-force solver
    rather than trusted. The seed-7 output of every regime is pinned by a
    test, so a change here must keep the stream byte-identical.
    """
    # resolved through fubuki.census at each call, not bound at import, so
    # a wrapper installed on that module's name sees every rejection draw
    from .census import signature_key

    _check_type(config, GeneratorConfig, "config")
    rng = SplitMix64(config.seed)
    values = list(_DIGITS)
    puzzles: list[ClueSet] = []
    for _ in range(config.count):
        if config.require_unique and config.regime is PrescriptionRegime.FULL_DIAGONAL:
            clue = ClueSet.from_grid(_rigid_diagonal_grid(rng), config.regime)
        elif config.require_unique:
            groups = _bucket_groups(config.regime)
            while True:
                values[:] = _DIGITS  # each draw shuffles 1..9 afresh
                rng.shuffle(values)
                cells = tuple(values)
                multi = groups[cells[0] + cells[1] + cells[2]]
                if signature_key(cells, config.regime) not in multi:
                    break
            clue = ClueSet.from_grid(Grid(cells), config.regime)
            if count_solutions(clue) != 1:
                raise RuntimeError(
                    f"generator produced a non-unique puzzle for {cells}"
                )
        else:
            clue = ClueSet.from_grid(_random_grid(rng), config.regime)
        puzzles.append(clue)
    return puzzles
