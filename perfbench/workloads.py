"""Seeded inputs of the benchmark workloads.

Standard library only: the harness imports this module to rebuild the inputs
it checks, and the worker imports it to build the inputs it runs, so both
see the same stream for the same seed.
"""

from __future__ import annotations

import random
from typing import Iterator

# The four prescription regimes, by their CLI names, with the number of
# leading diagonal cells each one prescribes.
REGIMES = ("full-diagonal", "first-two-diagonal", "top-left", "none")
PRESCRIBED = {"full-diagonal": 3, "first-two-diagonal": 2, "top-left": 1, "none": 0}
DIAGONAL_FLAT = (0, 4, 8)

# Label of the stream's share of clue sets with random legal sums.
RANDOM_SUMS = "random-sums"
# solve(clue, limit=...) as the CLI calls it by default.
SOLVE_LIMIT = 1000
# Each shuffled block of the solve stream holds this many puzzles of each
# regime and this many random-sum clue sets: equal shares, one fifth each.
SOLVE_BLOCK_SHARE = 20
# Puzzles per `generate` call; every regime gets the same count.
GENERATE_COUNT = 100
# Solves timed between two host-speed calibrations (about 20 ms of work).
SOLVE_BATCH = 200
# Host-speed slices (hostspeed.py, 4-8 ms each) timed between operations:
# before every solve batch, every generate call and every verify call.
# A verify call lasts seconds, so its calibration is longer.
CAL_SLICES = {"verify": 60, "solve": 2, "generate": 3}

# Work done by the fixed (traced) pass of each workload.
FIXED_SOLVES = 6000
FIXED_GENERATE_ROUNDS = 5
# Smoke mode shrinks the work so the benchmark's own tests run quickly.
SMOKE = {"solves": 300, "generate_rounds": 1, "generate_count": 3}


def line_sums(cells: tuple[int, ...]) -> tuple[int, ...]:
    """Row sums then column sums of flat row-major cells."""
    c = cells
    return (
        c[0] + c[1] + c[2], c[3] + c[4] + c[5], c[6] + c[7] + c[8],
        c[0] + c[3] + c[6], c[1] + c[4] + c[7], c[2] + c[5] + c[8],
    )


def solve_stream(seed: int) -> Iterator[tuple]:
    """Endless stream of solve inputs `(label, regime, cells, sums)`.

    A regime puzzle is the clue set of a random grid `cells` under `regime`
    (`label == regime`, `sums is None`). A random-sum clue set prescribes the
    regime's diagonal cells of `cells` but takes six random legal line sums
    (`label == RANDOM_SUMS`); most of them have no solution. Blocks hold
    equal shares of the five kinds in shuffled order.
    """
    rnd = random.Random(f"solve:{seed}")
    digits = list(range(1, 10))
    while True:
        block = []
        for label in REGIMES + (RANDOM_SUMS,):
            for _ in range(SOLVE_BLOCK_SHARE):
                rnd.shuffle(digits)
                if label == RANDOM_SUMS:
                    regime = rnd.choice(REGIMES)
                    sums = tuple(rnd.randint(6, 24) for _ in range(6))
                else:
                    regime, sums = label, None
                block.append((label, regime, tuple(digits), sums))
        rnd.shuffle(block)
        yield from block


def generate_seeds(seed: int) -> Iterator[int]:
    """Endless stream of `generate --seed` values: the first is for set-up."""
    rnd = random.Random(f"generate:{seed}")
    while True:
        yield rnd.getrandbits(32)
