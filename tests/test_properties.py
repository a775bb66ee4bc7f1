"""Property tests for the algebraic facts the solver relies on and for the parsers.

Derandomized and without an example database, so every run draws the same
examples; `conftest.py` keeps Hypothesis's other caches out of the working
tree.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fubuki import ClueSet, Grid, PrescriptionRegime, PuzzleFormatError, solve
from fubuki.theory import companion_solutions

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)
FUZZ = settings(PROPERTY, max_examples=500)

grids = st.permutations(range(1, 10)).map(Grid)

# the first solution of the two-solution showcase puzzle
SHOWCASE = Grid.from_rows([(1, 4, 5), (7, 2, 6), (8, 9, 3)])


@st.composite
def clue_sets(draw) -> ClueSet:
    cells = st.tuples(st.integers(1, 3), st.integers(1, 3))
    positions = draw(st.lists(cells, unique=True, max_size=9))
    values = draw(st.permutations(range(1, 10)))
    line_sums = st.tuples(*[st.integers(6, 24)] * 3)
    prescribed = tuple((r, c, v) for (r, c), v in zip(positions, values))
    return ClueSet(prescribed, draw(line_sums), draw(line_sums))


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
@given(clue_sets())
def test_clue_set_round_trips_through_dict(clues):
    assert ClueSet.from_dict(clues.to_dict()) == clues


@FUZZ
@given(documents)
def test_parsers_raise_only_their_error(data):
    for parse in (ClueSet.from_dict, Grid.from_dict):
        try:
            parse(data)
        except PuzzleFormatError:
            pass
