"""Property tests for the algebraic facts the solver relies on and for the parsers.

Derandomized and without an example database, so every run draws the same
examples; `conftest.py` keeps Hypothesis's other caches out of the working
tree.
"""

from collections import defaultdict
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fubuki import (
    ClueSet,
    Grid,
    PrescriptionRegime,
    PuzzleFormatError,
    count_solutions,
    solve,
)
from fubuki.theory import companion_solutions

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)
FUZZ = settings(PROPERTY, max_examples=500)

grids = st.permutations(range(1, 10)).map(Grid)

# the first solution of the two-solution showcase puzzle
SHOWCASE = Grid.from_rows([(1, 4, 5), (7, 2, 6), (8, 9, 3)])


# 0-9 distinct (row, col) positions
cell_positions = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), unique=True, max_size=9
)


@st.composite
def clue_sets(draw) -> ClueSet:
    positions = draw(cell_positions)
    values = draw(st.permutations(range(1, 10)))
    line_sums = st.tuples(*[st.integers(6, 24)] * 3)
    prescribed = tuple((r, c, v) for (r, c), v in zip(positions, values))
    return ClueSet(prescribed, draw(line_sums), draw(line_sums))


@st.composite
def solvable_clue_sets(draw) -> ClueSet:
    """A random grid's line sums with 0-9 of its cells prescribed.

    `clue_sets()` draws random sums, which almost never total 45, so its
    clue sets almost never have a solution.
    """
    grid = draw(grids)
    prescribed = tuple((r, c, grid.rows[r - 1][c - 1]) for r, c in draw(cell_positions))
    return ClueSet(prescribed, grid.row_sums(), grid.col_sums())


@st.composite
def grids_and_clue_sets(draw) -> tuple[Grid, ClueSet]:
    """A grid and a clue set whose prescribed cells, row sums and column sums
    each come from that grid or from another, so that every mix of right
    and wrong parts is drawn."""
    grid, other = draw(grids), draw(grids)
    cells, rows, cols = (draw(st.sampled_from((grid, other))) for _ in range(3))
    prescribed = tuple((r, c, cells.rows[r - 1][c - 1]) for r, c in draw(cell_positions))
    return grid, ClueSet(prescribed, rows.row_sums(), cols.col_sums())


@st.composite
def grids_and_near_clue_sets(draw) -> tuple[Grid, ClueSet]:
    """A grid and its own clue set with at most one line sum moved to another
    legal value, so that a check skipping any one line sum is caught."""
    grid = draw(grids)
    prescribed = tuple((r, c, grid.rows[r - 1][c - 1]) for r, c in draw(cell_positions))
    sums = list(grid.row_sums() + grid.col_sums())
    k = draw(st.integers(0, 6))  # 6 moves none
    if k < 6:
        sums[k] = 6 + (sums[k] - 6 + draw(st.integers(1, 18))) % 19
    return grid, ClueSet(prescribed, sums[:3], sums[3:])


def showcase_row_clues(row: int, cols: tuple[int, ...]) -> ClueSet:
    """The showcase grid's line sums with cells `cols` of `row` prescribed."""
    prescribed = tuple((row, c, SHOWCASE.rows[row - 1][c - 1]) for c in cols)
    return ClueSet(prescribed, SHOWCASE.row_sums(), SHOWCASE.col_sums())


@pytest.fixture(scope="module")
def grids_by_line_sums() -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """All 9! cell tuples, in lexicographic order, keyed by their six line sums.

    Module-scoped, so its memory is freed once this file's tests are done.
    """
    index = defaultdict(list)
    for c in permutations(range(1, 10)):
        sums = (c[0] + c[1] + c[2], c[3] + c[4] + c[5], c[6] + c[7] + c[8],
                c[0] + c[3] + c[6], c[1] + c[4] + c[7], c[2] + c[5] + c[8])
        index[sums].append(c)
    return index


# any value json.loads can return, with the document field names mixed in
leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
field_names = st.sampled_from(
    ["prescribed", "row_sums", "col_sums", "cells", "row", "col", "value"]
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(field_names | st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)

# documents of nearly the right shape, so fuzzing reaches past the shape
# checks into the value checks
small = st.integers(0, 25)


def lines(n: int):
    return st.lists(small, min_size=n, max_size=n) | st.lists(small | leaves, max_size=n + 1)


cell_docs = st.fixed_dictionaries({"row": small | leaves, "col": small, "value": small})
puzzle_docs = st.fixed_dictionaries(
    {"row_sums": lines(3), "col_sums": lines(3)},
    optional={"prescribed": st.lists(cell_docs, max_size=4) | json_values},
)
grid_docs = st.fixed_dictionaries({"cells": st.lists(lines(3), min_size=3, max_size=3)})
documents = json_values | puzzle_docs | grid_docs


@PROPERTY
@given(grids)
@example(SHOWCASE)
def test_grid_solves_its_own_clues(grid):
    for regime in PrescriptionRegime:
        assert grid in solve(ClueSet.from_grid(grid, regime)).solutions


@PROPERTY
@given(grids)
@example(SHOWCASE)
def test_companions_share_the_clues_and_number_at_most_one(grid):
    companions = companion_solutions(grid)
    assert len(companions) <= 1
    clues = ClueSet.from_grid(grid, PrescriptionRegime.FULL_DIAGONAL)
    for companion in companions:
        assert companion != grid
        assert clues.satisfied_by(companion)


@PROPERTY
@given(clue_sets() | solvable_clue_sets())
@example(ClueSet.from_grid(SHOWCASE, PrescriptionRegime.NONE))
@example(ClueSet.from_grid(SHOWCASE, PrescriptionRegime.FULL_DIAGONAL))
# two and three prescribed cells in one row: the solver narrows the row's
# view of its first cell by the others at call time
@example(showcase_row_clues(1, (1, 3)))
@example(showcase_row_clues(1, (1, 2, 3)))
@example(showcase_row_clues(2, (2, 3)))
@example(showcase_row_clues(2, (1, 2, 3)))
@example(showcase_row_clues(3, (1, 2)))
@example(showcase_row_clues(3, (1, 2, 3)))
def test_solver_finds_exactly_the_reference_solutions(grids_by_line_sums, clues):
    # the reference shares no code with the solver: it filters the index
    reference = [
        Grid(c)
        for c in grids_by_line_sums.get(clues.row_sums + clues.col_sums, [])
        if all(c[(r - 1) * 3 + (col - 1)] == v for r, col, v in clues.prescribed)
    ]
    assert solve(clues).solutions == reference
    assert count_solutions(clues) == len(reference)


@PROPERTY
@given(grids, cell_positions)
@example(SHOWCASE, [(3, 1), (3, 2), (3, 3)])
def test_solutions_are_sorted_distinct_and_include_the_grid(grid, positions):
    clues = ClueSet(
        tuple((r, c, grid.rows[r - 1][c - 1]) for r, c in positions),
        grid.row_sums(),
        grid.col_sums(),
    )
    solutions = solve(clues).solutions
    assert solutions == sorted(set(solutions))
    assert grid in solutions
    assert all(clues.satisfied_by(g) for g in solutions)


@PROPERTY
@given(grids_and_clue_sets() | st.tuples(grids, clue_sets()))
@example((SHOWCASE, ClueSet.from_grid(SHOWCASE, PrescriptionRegime.FULL_DIAGONAL)))
def test_satisfied_by_matches_its_definition(grid_and_clues):
    grid, clues = grid_and_clues
    expected = (
        all(grid.rows[r - 1][c - 1] == v for r, c, v in clues.prescribed)
        and grid.row_sums() == clues.row_sums
        and grid.col_sums() == clues.col_sums
    )
    assert clues.satisfied_by(grid) is expected


@PROPERTY
@given(grids_and_clue_sets() | grids_and_near_clue_sets() | st.tuples(grids, clue_sets()))
@example((SHOWCASE, ClueSet.from_grid(SHOWCASE, PrescriptionRegime.FULL_DIAGONAL)))
def test_cell_level_clue_check_matches_its_definition(grid_and_clues):
    grid, clues = grid_and_clues
    c = grid.cells
    expected = (
        all(c[3 * (r - 1) + (col - 1)] == v for r, col, v in clues.prescribed)
        and tuple(sum(c[3 * i : 3 * i + 3]) for i in range(3)) == clues.row_sums
        and tuple(sum(c[i::3]) for i in range(3)) == clues.col_sums
    )
    assert clues.satisfied_by(grid) is expected


@PROPERTY
@given(clue_sets())
def test_clue_set_round_trips_through_dict(clues):
    assert ClueSet.from_dict(clues.to_dict()) == clues


@FUZZ
@given(documents)
# JSON only makes str keys; a Python caller can pass any key
@example({1: 2})
@example({"row_sums": [6, 15, 24], 2: 3})
def test_parsers_raise_only_their_error(data):
    for parse in (ClueSet.from_dict, Grid.from_dict):
        try:
            parse(data)
        except PuzzleFormatError:
            pass
