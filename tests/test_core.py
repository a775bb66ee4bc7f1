import copy
import json
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubuki import (
    CensusReport,
    ClueSet,
    Grid,
    PrescriptionRegime,
    PuzzleFormatError,
    SolveResult,
    classify_diagonal,
    closed_form_puzzle_count,
    solve,
)
from fubuki.rng import SplitMix64


def random_grids(n: int, seed: int = 99) -> list[Grid]:
    rng = SplitMix64(seed)
    out = []
    values = list(range(1, 10))
    for _ in range(n):
        rng.shuffle(values)
        out.append(Grid(tuple(values)))
    return out


class TestGrid:
    def test_row_sums(self, grid_two_a, grid_unique):
        assert grid_two_a.row_sums() == (10, 15, 20)
        assert grid_unique.row_sums() == (11, 14, 20)

    def test_col_sums(self, grid_two_a, grid_unique):
        assert grid_two_a.col_sums() == (16, 15, 14)
        assert grid_unique.col_sums() == (14, 15, 16)

    def test_sums_total_45(self):
        for g in random_grids(500):
            assert sum(g.row_sums()) == 45
            assert sum(g.col_sums()) == 45

    def test_diagonal_and_accessors(self, grid_two_a):
        assert grid_two_a.cells[::4] == (1, 2, 3)
        assert grid_two_a.rows[1][0] == 7
        assert grid_two_a.rows[2][1] == 9

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Grid((1, 1, 2, 3, 4, 5, 6, 7, 8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="1..9"):
            Grid((0, 1, 2, 3, 4, 5, 6, 7, 8))
        with pytest.raises(ValueError, match="1..9"):
            Grid((10, 1, 2, 3, 4, 5, 6, 7, 8))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="9 cells"):
            Grid((1, 2, 3))

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2, 3, 4, 5], [6, 7], [8, 9]],  # nine digits, split 5 / 2 / 2
            [[1, 2, 3], [4, 5, 6], [7, 8, 9], []],
            [[1, 2, 3], [4, 5, 6]],
            [],
        ],
        ids=["uneven-rows", "four-rows", "two-rows", "no-rows"],
    )
    def test_from_rows_rejects_a_shape_other_than_3_by_3(self, rows):
        with pytest.raises(ValueError, match=r"^rows must be 3 rows of 3 integers"):
            Grid.from_rows(rows)

    def test_ordering_is_row_major_lexicographic(self, grid_two_a, grid_two_b):
        assert grid_two_a < grid_two_b

    def test_json_round_trip(self, grid_two_a):
        data = json.loads(json.dumps(grid_two_a.to_dict()))
        assert data == {"cells": [[1, 4, 5], [7, 2, 6], [8, 9, 3]]}
        assert Grid.from_dict(data) == grid_two_a

    def test_from_dict_rejects_bad_shape(self):
        with pytest.raises(PuzzleFormatError, match="3x3"):
            Grid.from_dict({"cells": [[1, 2], [3, 4]]})
        with pytest.raises(PuzzleFormatError, match="cells"):
            Grid.from_dict({"rows": []})


class TestClueSet:
    def test_from_grid_full_diagonal(self, grid_two_a, clue_two):
        assert clue_two.prescribed == ((1, 1, 1), (2, 2, 2), (3, 3, 3))
        assert clue_two.row_sums == (10, 15, 20)
        assert clue_two.col_sums == (16, 15, 14)

    def test_from_grid_top_left(self, grid_unique):
        clue = ClueSet.from_grid(grid_unique, PrescriptionRegime.TOP_LEFT)
        assert clue.prescribed == ((1, 1, 1),)
        assert clue.row_sums == (11, 14, 20)
        assert clue.col_sums == (14, 15, 16)

    def test_from_grid_none(self, grid_two_a):
        clue = ClueSet.from_grid(grid_two_a, PrescriptionRegime.NONE)
        assert clue.prescribed == ()

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(st.permutations(range(1, 10)).map(Grid))
    def test_from_grid_is_the_validated_clue_set(self, grid):
        # from_grid skips __init__, so it must build what the validating
        # constructor builds, down to the types of its fields
        for regime in PrescriptionRegime:
            n = len(regime.cells)
            clue = ClueSet.from_grid(grid, regime)
            validated = ClueSet(
                tuple((i, i, grid.cells[4 * i - 4]) for i in range(1, n + 1)),
                grid.row_sums(),
                grid.col_sums(),
            )
            assert clue == validated
            assert hash(clue) == hash(validated)
            fields = (clue.row_sums, clue.col_sums, *clue.prescribed)
            assert type(clue.prescribed) is tuple
            assert all(type(f) is tuple for f in fields)
            assert all(type(v) is int for f in fields for v in f)

    def test_satisfied_by(self, grid_two_a, grid_two_b, grid_unique, clue_two):
        assert clue_two.satisfied_by(grid_two_a)
        assert clue_two.satisfied_by(grid_two_b)
        assert not clue_two.satisfied_by(grid_unique)

    def test_every_grid_satisfies_its_own_clues(self):
        for g in random_grids(100):
            for regime in PrescriptionRegime:
                assert ClueSet.from_grid(g, regime).satisfied_by(g)

    def test_rejects_duplicate_position(self):
        with pytest.raises(ValueError, match="prescribed twice"):
            ClueSet(((1, 1, 1), (1, 1, 2)), (10, 15, 20), (16, 15, 14))

    def test_rejects_duplicate_value(self):
        with pytest.raises(ValueError, match="prescribed twice"):
            ClueSet(((1, 1, 5), (2, 2, 5)), (10, 15, 20), (16, 15, 14))

    def test_rejects_out_of_range_sum(self):
        with pytest.raises(ValueError, match="out of range"):
            ClueSet((), (5, 20, 20), (15, 15, 15))
        with pytest.raises(ValueError, match="out of range"):
            ClueSet((), (15, 15, 15), (25, 10, 10))

    def test_mismatched_totals_are_accepted(self):
        # representable but unsatisfiable; the solver reports zero solutions
        clue = ClueSet((), (10, 15, 19), (16, 15, 14))
        assert sum(clue.row_sums) != 45

    def test_prescribed_any_cell_allowed(self):
        clue = ClueSet(((2, 3, 9), (3, 1, 1)), (15, 15, 15), (15, 15, 15))
        assert clue.prescribed == ((2, 3, 9), (3, 1, 1))

    def test_json_round_trip(self, clue_two):
        data = json.loads(json.dumps(clue_two.to_dict()))
        assert ClueSet.from_dict(data) == clue_two

    def test_from_dict_diagnostics_name_the_field(self):
        with pytest.raises(PuzzleFormatError, match="row_sums"):
            ClueSet.from_dict({"row_sums": [10, 15], "col_sums": [16, 15, 14]})
        with pytest.raises(PuzzleFormatError, match=r"prescribed\[0\]"):
            ClueSet.from_dict(
                {"prescribed": [{"row": 1}], "row_sums": [10, 15, 20], "col_sums": [16, 15, 14]}
            )
        with pytest.raises(PuzzleFormatError, match="unknown field"):
            ClueSet.from_dict({"row_sums": [10, 15, 20], "col_sums": [16, 15, 14], "hint": 1})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Grid(5), "cells"),
        (lambda: Grid(None), "cells"),
        (lambda: Grid.from_rows([1, 2, 3]), "rows"),
        (lambda: ClueSet((), 5, (6, 15, 24)), "row_sums"),
        (lambda: ClueSet((), (6, 15, 24), None), "col_sums"),
        (lambda: ClueSet(5, (6, 15, 24), (6, 15, 24)), "prescribed"),
        (lambda: ClueSet((5,), (6, 15, 24), (6, 15, 24)), "prescribed"),
        (lambda: ClueSet((), ("a", "b", "c"), (6, 15, 24)), "row_sums"),
        (lambda: ClueSet(((4, 1, 1),), (6, 15, 24), (6, 15, 24)), "prescribed row"),
        (lambda: CensusReport(PrescriptionRegime.NONE, {1: "x"}, None), "sizes"),
        (lambda: CensusReport(PrescriptionRegime.NONE, {1: 362880}, {1: "x"}), "multi"),
    ],
    ids=[
        "grid-int",
        "grid-none",
        "grid-rows-of-ints",
        "row-sums-int",
        "col-sums-none",
        "prescribed-int",
        "prescribed-entry-int",
        "row-sums-of-str",
        "prescribed-row-4",
        "report-sizes-of-str",
        "report-multi-of-str",
    ],
)
def test_a_field_that_is_not_iterable_raises_value_error(build, field):
    # all but the prescribed cases used to raise TypeError, not the documented
    # error; the last four are iterables holding an entry of the wrong kind
    with pytest.raises(ValueError, match=f"^{field} must (be|contain)"):
        build()


class TestPrescriptionRegime:
    def test_cells(self):
        assert PrescriptionRegime.FULL_DIAGONAL.cells == ((1, 1), (2, 2), (3, 3))
        assert PrescriptionRegime.FIRST_TWO_DIAGONAL.cells == ((1, 1), (2, 2))
        assert PrescriptionRegime.TOP_LEFT.cells == ((1, 1),)
        assert PrescriptionRegime.NONE.cells == ()

    def test_parse_accepts_both_separators(self):
        assert PrescriptionRegime.parse("full-diagonal") is PrescriptionRegime.FULL_DIAGONAL
        assert PrescriptionRegime.parse("first_two_diagonal") is (
            PrescriptionRegime.FIRST_TWO_DIAGONAL
        )

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown regime"):
            PrescriptionRegime.parse("diagonal")

    @pytest.mark.parametrize("text", [None, 3, b"none", ["none"], PrescriptionRegime.NONE])
    def test_parse_rejects_a_value_that_is_not_a_str(self, text):
        # these used to raise AttributeError or TypeError, not the documented error
        with pytest.raises(ValueError, match="regime must be a str"):
            PrescriptionRegime.parse(text)


SHOWCASE = Grid((1, 4, 5, 7, 2, 6, 8, 9, 3))
SHOWCASE_CLUE = ClueSet.from_grid(SHOWCASE, PrescriptionRegime.FULL_DIAGONAL)


def values() -> dict:
    """One value of each public value type, built afresh."""
    return {
        "Grid": Grid(SHOWCASE.cells),
        "ClueSet": ClueSet.from_grid(SHOWCASE, PrescriptionRegime.FULL_DIAGONAL),
        "DiagonalClass": classify_diagonal((1, 2, 3)),
        "SolveResult": solve(SHOWCASE_CLUE),
        # one two-grid bucket, so `multi` holds a key
        "CensusReport": CensusReport(
            PrescriptionRegime.FULL_DIAGONAL, {1: 362878, 2: 1}, {5: 2}
        ),
        "ClosedFormCount": closed_form_puzzle_count(),
    }


HASHABLE = ["ClosedFormCount", "ClueSet", "DiagonalClass", "Grid"]


def copies(value) -> list:
    """`value` pickled under every protocol, copied and deep-copied."""
    return [
        *(pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy(value),
        copy.deepcopy(value),
    ]


class TestValueTypes:
    """What each value type promises beyond its fields: equality, hashing,
    repr, pickling and copying, and which of them can change."""

    @pytest.mark.parametrize("name", sorted(values()))
    def test_pickle_and_copy_give_an_equal_value_of_the_same_type(self, name):
        value = values()[name]
        others = copies(value)
        for other in others:
            assert type(other) is type(value)
            assert other == value
        if name in HASHABLE:
            # equal values built apart hash alike
            assert {hash(other) for other in others} == {hash(value)}
        else:
            with pytest.raises(TypeError):
                hash(value)

    @pytest.mark.parametrize(
        "value, text",
        [
            (SHOWCASE, "Grid(cells=(1, 4, 5, 7, 2, 6, 8, 9, 3))"),
            (
                SHOWCASE_CLUE,
                "ClueSet(prescribed=((1, 1, 1), (2, 2, 2), (3, 3, 3)), "
                "row_sums=(10, 15, 20), col_sums=(16, 15, 14))",
            ),
            (
                classify_diagonal((1, 3, 4)),
                "DiagonalClass(diagonal=frozenset({1, 3, 4}), shifts=frozenset())",
            ),
            (
                CensusReport(PrescriptionRegime.NONE, {1: 362880}, None),
                "CensusReport(regime=<PrescriptionRegime.NONE: 'none'>, sizes={1: 362880})",
            ),
        ],
        ids=["Grid", "ClueSet", "DiagonalClass", "CensusReport"],
    )
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_keywords_build_what_positions_build(self):
        built = values()
        assert Grid(cells=SHOWCASE.cells) == built["Grid"]
        assert ClueSet(
            prescribed=SHOWCASE_CLUE.prescribed,
            row_sums=SHOWCASE_CLUE.row_sums,
            col_sums=SHOWCASE_CLUE.col_sums,
        ) == built["ClueSet"]
        result = built["SolveResult"]
        assert SolveResult(solutions=result.solutions, truncated=result.truncated) == result
        report = built["CensusReport"]
        assert CensusReport(regime=report.regime, sizes=report.sizes, multi=report.multi) == report

    def test_equality_reads_every_field_and_the_type(self):
        report = values()["CensusReport"]
        assert report != CensusReport(report.regime, report.sizes, {6: 2})
        # a value equals no tuple of its fields
        assert SHOWCASE != SHOWCASE.cells
        assert SHOWCASE_CLUE != (
            SHOWCASE_CLUE.prescribed, SHOWCASE_CLUE.row_sums, SHOWCASE_CLUE.col_sums
        )

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_a_grid_orders_only_against_a_grid(self, compare):
        assert compare(SHOWCASE, Grid(SHOWCASE.cells)) == compare(SHOWCASE.cells, SHOWCASE.cells)
        for left, right in [(SHOWCASE, SHOWCASE.cells), (SHOWCASE.cells, SHOWCASE)]:
            with pytest.raises(TypeError):
                compare(left, right)

    @pytest.mark.parametrize(
        "name, field",
        [
            ("Grid", "cells"),
            ("ClueSet", "row_sums"),
            ("DiagonalClass", "shifts"),
            ("CensusReport", "sizes"),
            ("CensusReport", "multi"),
        ],
    )
    def test_frozen_fields_can_be_neither_set_nor_deleted(self, name, field):
        value = values()[name]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before

    def test_a_census_report_holds_read_only_copies_of_its_buckets(self):
        # the checks made at construction hold for the report's life
        sizes, multi = {2: 1, 1: 362878}, {5: 2}
        report = CensusReport(PrescriptionRegime.FULL_DIAGONAL, sizes, multi)
        equal = values()["CensusReport"]
        sizes[1] = 0
        del sizes[2]
        multi[6] = 2
        assert report.sizes == {1: 362878, 2: 1} and report.multi == {5: 2}
        assert report == equal
        assert list(report.sizes) == [1, 2]  # kept in increasing k
        for value in [report, *copies(report)]:
            for field in (value.sizes, value.multi):
                with pytest.raises(TypeError):
                    field[1] = 0
                with pytest.raises(TypeError):
                    del field[next(iter(field))]
            assert value == equal
