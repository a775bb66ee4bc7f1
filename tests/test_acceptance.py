"""Acceptance suite: every exit criterion, one test each, at full scale.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in captured
output). The exhaustive checks really do sweep all 362,880 grids; the time
asserts hold with two orders of magnitude to spare on commodity hardware.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations, permutations

import pytest

from fubuki import (
    ClueSet,
    Grid,
    PrescriptionRegime,
    build_shift_table,
    count_solutions,
    generate_puzzles,
    solve,
)
from fubuki.cli import verify_routes
from fubuki.theory import shift_match_table

R = PrescriptionRegime


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS")


# Expected admissible shifts for every 3-element diagonal, transcribed
# entry-for-entry; keys in lexicographic order.
KNOWN_SHIFT_TABLE = {
    (1, 2, 3): (1, 3), (1, 2, 4): (2,), (1, 2, 5): (1,), (1, 2, 6): (4,),
    (1, 2, 7): (1,), (1, 2, 8): (2,), (1, 2, 9): (1, 3), (1, 3, 4): (),
    (1, 3, 5): (2,), (1, 3, 6): (), (1, 3, 7): (4,), (1, 3, 8): (3,),
    (1, 3, 9): (2,), (1, 4, 5): (1,), (1, 4, 6): (), (1, 4, 7): (1,),
    (1, 4, 8): (4,), (1, 4, 9): (1,), (1, 5, 6): (5,), (1, 5, 7): (),
    (1, 5, 8): (), (1, 5, 9): (4,), (1, 6, 7): (1,), (1, 6, 8): (2,),
    (1, 6, 9): (1,), (1, 7, 8): (), (1, 7, 9): (2,), (1, 8, 9): (1, 3),
    (2, 3, 4): (), (2, 3, 5): (), (2, 3, 6): (), (2, 3, 7): (3,),
    (2, 3, 8): (), (2, 3, 9): (), (2, 4, 5): (2,), (2, 4, 6): (),
    (2, 4, 7): (), (2, 4, 8): (), (2, 4, 9): (2,), (2, 5, 6): (),
    (2, 5, 7): (5,), (2, 5, 8): (2,), (2, 5, 9): (), (2, 6, 7): (),
    (2, 6, 8): (), (2, 6, 9): (4,), (2, 7, 8): (), (2, 7, 9): (3,),
    (2, 8, 9): (2,), (3, 4, 5): (1,), (3, 4, 6): (), (3, 4, 7): (1,),
    (3, 4, 8): (), (3, 4, 9): (1,), (3, 5, 6): (), (3, 5, 7): (),
    (3, 5, 8): (5,), (3, 5, 9): (), (3, 6, 7): (1,), (3, 6, 8): (),
    (3, 6, 9): (1,), (3, 7, 8): (3,), (3, 7, 9): (4,), (3, 8, 9): (1,),
    (4, 5, 6): (6,), (4, 5, 7): (), (4, 5, 8): (), (4, 5, 9): (5,),
    (4, 6, 7): (), (4, 6, 8): (), (4, 6, 9): (), (4, 7, 8): (),
    (4, 7, 9): (), (4, 8, 9): (4,), (5, 6, 7): (1,), (5, 6, 8): (2,),
    (5, 6, 9): (1,), (5, 7, 8): (), (5, 7, 9): (2,), (5, 8, 9): (1,),
    (6, 7, 8): (), (6, 7, 9): (), (6, 8, 9): (2,), (7, 8, 9): (1, 3),
}

# The 35 diagonals guaranteeing uniqueness, as an independent fixture.
KNOWN_RIGID_DIAGONALS = (
    (1, 3, 4), (1, 3, 6), (1, 4, 6), (1, 5, 7), (1, 5, 8), (1, 7, 8),
    (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 3, 8), (2, 3, 9), (2, 4, 6),
    (2, 4, 7), (2, 4, 8), (2, 5, 6), (2, 5, 9), (2, 6, 7), (2, 6, 8),
    (2, 7, 8), (3, 4, 6), (3, 4, 8), (3, 5, 6), (3, 5, 7), (3, 5, 9),
    (3, 6, 8), (4, 5, 7), (4, 5, 8), (4, 6, 7), (4, 6, 8), (4, 6, 9),
    (4, 7, 8), (4, 7, 9), (5, 7, 8), (6, 7, 8), (6, 7, 9),
)


def timed_routes(regimes: list[PrescriptionRegime]) -> tuple[float, list[str], list[str]]:
    """`verify_routes(regimes)`'s seconds, lines without their verdicts, and mismatches."""
    start = time.monotonic()
    routes = verify_routes(regimes)
    elapsed = time.monotonic() - start
    return elapsed, [r.line.format(r.value, r.expected) for r in routes], [
        m for r in routes for m in r.mismatches
    ]


@pytest.fixture(scope="module")
def all_routes():
    """What the routes of `verify --all` give, as `timed_routes` says."""
    return timed_routes(list(R))


def test_criterion_1_full_diagonal_count_three_routes():
    with criterion(1, "full-diagonal count, three independent routes, <60s"):
        elapsed, lines, mismatches = timed_routes([R.FULL_DIAGONAL])
        assert mismatches == []
        assert lines[:3] == [
            "regime full-diagonal: solvable puzzles: 351432 (expected 351432)",
            "closed form 151200 + 184680 + 15552: 351432 (expected 351432)",
            "companion scan: solvable puzzles: 351432 (expected 351432)",
        ]
        assert elapsed < 60.0, f"verify took {elapsed:.1f}s"


def test_criterion_2_weak_regime_counts(all_routes):
    with criterion(2, "weak-regime counts from one combined sweep, <120s"):
        elapsed, lines, mismatches = all_routes
        assert mismatches == []
        assert lines[:4] == [
            "regime full-diagonal: solvable puzzles: 351432 (expected 351432)",
            "regime first-two-diagonal: solvable puzzles: 281304 (expected 281304)",
            "regime top-left: solvable puzzles: 163387 (expected 163387)",
            "regime none: solvable puzzles: 46147 (expected 46147)",
        ]
        assert elapsed < 120.0, f"verify --all took {elapsed:.1f}s"


def test_criterion_3_shift_table_fidelity():
    with criterion(3, "84-row shift table matches fixture entry-for-entry"):
        table = build_shift_table()
        assert len(table) == len(KNOWN_SHIFT_TABLE) == 84
        for diag, expected in KNOWN_SHIFT_TABLE.items():
            assert table[diag] == frozenset(expected), f"diagonal {diag}"
        sizes = [len(s) for s in table.values()]
        assert (sizes.count(0), sizes.count(1), sizes.count(2)) == (35, 45, 4)
        empty_rows = tuple(d for d in table if not table[d])
        assert empty_rows == KNOWN_RIGID_DIAGONALS


def test_criterion_4_at_most_two_solutions(census_reports):
    with criterion(4, "full-diagonal buckets never exceed 2 grids"):
        report = census_reports[R.FULL_DIAGONAL]
        assert report.max_solutions == 2
        assert set(report.sizes) == {1, 2}


def test_criterion_5_companion_oracle_equivalence(all_routes):
    with criterion(5, "structural companions equal brute-force buckets, all grids"):
        _, lines, mismatches = all_routes
        assert mismatches == []
        assert lines[-1] == "companion oracle: 362880/362880 grids match brute force"
        # and the solver proper agrees at the solution-set level on a
        # seeded sample, tying the bucket grouping back to solve()
        from fubuki import companion_solutions
        from fubuki.rng import SplitMix64

        rng = SplitMix64(1234)
        values = list(range(1, 10))
        for _ in range(2000):
            rng.shuffle(values)
            g = Grid(tuple(values))
            solved = solve(ClueSet.from_grid(g, R.FULL_DIAGONAL)).solutions
            assert sorted([g, *companion_solutions(g)]) == solved


def test_criterion_6_showcase_golden(grid_two_a, grid_two_b, grid_unique):
    with criterion(6, "showcase puzzles solve to the printed grids in order"):
        clue = ClueSet.from_grid(grid_two_a, R.FULL_DIAGONAL)
        assert solve(clue).solutions == [grid_two_a, grid_two_b]
        clue = ClueSet.from_grid(grid_unique, R.FULL_DIAGONAL)
        assert solve(clue).solutions == [grid_unique]


def test_criterion_7_shift_structure_exhaustive():
    all_shifts = tuple(range(1, 9)) + tuple(range(-8, 0))
    complements = {
        diag: frozenset(range(1, 10)) - frozenset(diag)
        for diag in combinations(range(1, 10), 3)
    }

    table = shift_match_table()

    with criterion(7, "shift structure facts, exhaustive over grids and value sets"):
        # triplet uniqueness: the pairing equation never has two solutions,
        # checked against all C(6,3) subsets for every set and shift, and
        # the shift table holds exactly the one that exists
        assert list(table) == list(complements)
        for diag, values in complements.items():
            for a in all_shifts:
                matching = [
                    t
                    for t in combinations(sorted(values), 3)
                    if set(t) | {v + a for v in t} == values
                ]
                assert len(matching) <= 1
                assert matching == [req for s, req in table[diag] if s == a]

        # opposite shifts stand or fall together, bases displaced by the step
        for diag in complements:
            found = dict(table[diag])
            for a in range(1, 9):
                assert (a in found) == (-a in found)
                if a in found:
                    assert found[-a] == tuple(v + a for v in found[a])

        # distinct shifts always produce distinct triplets on the same set
        for diag in complements:
            existing = [req for _, req in table[diag]]
            assert len(existing) == len(set(existing))

        # every grid, every shift: validity from the raw set-equality
        # definition must match the triplet condition, and valid shifts
        # never mix signs
        for p in permutations(range(1, 10)):
            d = sorted((p[0], p[4], p[8]))
            x = frozenset((p[1], p[2], p[3], p[5], p[6], p[7]))
            naive = set()
            for a in all_shifts:
                shifted = {p[1] + a, p[5] + a, p[6] + a, p[2] - a, p[3] - a, p[7] - a}
                if shifted == x:
                    naive.add(a)
            plus = tuple(sorted((p[1], p[5], p[6])))
            structural = {a for a, req in table[(d[0], d[1], d[2])] if req == plus}
            assert naive == structural, f"grid {p}"
            assert not (
                any(a > 0 for a in naive) and any(a < 0 for a in naive)
            ), f"grid {p} mixes shift signs {naive}"


def test_criterion_8_generator_soundness():
    with criterion(8, "1000 seeded unique puzzles per regime, reproducible"):
        for regime in R:
            args = dict(regime=regime, require_unique=True, seed=20260810, count=1000)
            puzzles = generate_puzzles(**args)
            assert len(puzzles) == 1000
            for clue in puzzles:
                assert count_solutions(clue) == 1, f"{regime.value}: {clue.to_dict()}"
            again = generate_puzzles(**args)
            assert again == puzzles
            first = "\n".join(json.dumps(c.to_dict()) for c in puzzles)
            second = "\n".join(json.dumps(c.to_dict()) for c in again)
            assert first == second
