import csv
import io
from fractions import Fraction
from itertools import combinations

import pytest

from fubuki import (
    ClueSet,
    Grid,
    PrescriptionRegime,
    SplitMix64,
    build_shift_table,
    classify_diagonal,
    closed_form_puzzle_count,
    companion_solutions,
    shift_table_to_csv,
    solve,
)
from fubuki.theory import MINUS_FLAT, PLUS_FLAT, companion_cells, shift_cells, shift_match_table
import internals

# flat row-major indices of the three rows and the three columns
LINES = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]
OFF_DIAGONAL = (1, 2, 3, 5, 6, 7)


def null_space(rows):
    """The rank of a matrix of Fractions and a basis of its null space, by
    reduction to row echelon form."""
    rows, pivots = [list(row) for row in rows], []
    width = len(rows[0])
    for col in range(width):
        pivot = next((k for k in range(len(pivots), len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        r = len(pivots)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                rows[k] = [a - rows[k][col] * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vector = [Fraction(c == free) for c in range(width)]
        for row, col in zip(rows, pivots):
            vector[col] = -row[free]
        basis.append(vector)
    return len(pivots), basis


# every reader of the shift table, each as a call that reads it
READERS = {
    "build_shift_table": build_shift_table,
    "classify_diagonal": lambda: classify_diagonal((1, 2, 3)),
    "companion_cells": lambda: companion_cells((1, 4, 5, 7, 2, 6, 8, 9, 3)),
}


@pytest.fixture
def fresh_table():
    """No shift table cached before the test, and none left over after it."""
    internals.clear_shift_tables()
    yield
    internals.clear_shift_tables()


def brute_force_triplets(values: frozenset, shift: int) -> list[tuple[int, int, int]]:
    """All 3-subsets satisfying the pairing equation, by trying every one."""
    return [
        t
        for t in combinations(sorted(values), 3)
        if set(t) | {v + shift for v in t} == values
    ]


class TestShiftGrid:
    def test_showcase_shift(self, grid_two_a, grid_two_b):
        assert shift_cells(grid_two_a.cells, 1) == grid_two_b.cells

    def test_shifts_cancel(self, grid_two_a, grid_two_b):
        assert shift_cells(grid_two_b.cells, -1) == grid_two_a.cells
        # +a then -a is the identity even through candidates that are not
        # legal grids
        cells = grid_two_a.cells
        for a in range(1, 9):
            assert shift_cells(shift_cells(cells, a), -a) == cells

    def test_invalid_candidate_from_unique_grid(self, grid_unique, clue_unique):
        candidate = shift_cells(grid_unique.cells, 1)
        assert candidate == (1, 5, 5, 4, 2, 8, 9, 8, 3)  # collides: two 5s
        assert candidate not in companion_cells(grid_unique.cells)
        # brute force over the 720 fillings of that diagonal confirms
        # the puzzle has no other solution
        assert solve(clue_unique).solutions == [grid_unique]


class TestDegreeOfFreedom:
    def test_line_sums_leave_the_off_diagonal_cells_one_direction(self):
        # with the diagonal fixed, the six line sums are six equations on the
        # six off-diagonal cells; these form one 6-cycle between the rows and
        # the columns, so the equations have rank 5 and their solutions are one
        # line, with signs alternating around the cycle
        equations = [[Fraction(i in line) for i in OFF_DIAGONAL] for line in LINES]
        rank, basis = null_space(equations)
        assert rank == 5 and len(basis) == 1
        (vector,) = basis
        assert all(sum(map(Fraction.__mul__, row, vector)) == 0 for row in equations)
        scale = vector[OFF_DIAGONAL.index(PLUS_FLAT[0])]
        direction = dict(zip(OFF_DIAGONAL, (v / scale for v in vector)))
        assert direction == {**dict.fromkeys(PLUS_FLAT, 1), **dict.fromkeys(MINUS_FLAT, -1)}

    def test_a_shift_moves_the_cells_along_that_direction(self):
        # so shift_cells is the only way to keep the diagonal and the line
        # sums: each shift s adds s times the direction above
        direction = [(i in PLUS_FLAT) - (i in MINUS_FLAT) for i in range(9)]
        rng = SplitMix64(2013)
        for _ in range(50):
            cells = list(range(1, 10))
            rng.shuffle(cells)
            for s in range(-8, 9):
                moved = [a - b for a, b in zip(shift_cells(tuple(cells), s), cells)]
                assert moved == [s * d for d in direction]


class TestPairings:
    """The table's entries, each a split of a complement that meets the pairing condition."""

    def test_examples(self):
        # complement {4, ..., 9}: pairs (4,5),(6,7),(8,9) by 1, (4,7),(5,8),(6,9) by 3
        assert shift_match_table()[(1, 2, 3)] == (
            (1, (4, 6, 8)),
            (-1, (5, 7, 9)),
            (3, (4, 5, 6)),
            (-3, (7, 8, 9)),
        )
        # complement {2, 5, 6, 7, 8, 9}: 2 pairs with nothing by one step
        assert shift_match_table()[(1, 3, 4)] == ()

    def test_negative_shift_bases_are_pair_maxima(self):
        for diag, entries in shift_match_table().items():
            rest = frozenset(range(1, 10)) - set(diag)
            found = dict(entries)
            assert len(found) == len(entries)  # one entry per shift
            for shift, plus in entries:
                assert set(plus) | {v + shift for v in plus} == rest
                assert found[-shift] == tuple(v + shift for v in plus)

    def test_agrees_with_brute_force_for_every_complement(self):
        table = shift_match_table()
        for diag in combinations(range(1, 10), 3):
            values = frozenset(range(1, 10)) - set(diag)
            for a in (*range(1, 9), *range(-8, 0)):
                expected = brute_force_triplets(values, a)
                assert len(expected) <= 1
                assert expected == [plus for shift, plus in table[diag] if shift == a]


class TestPossibleShifts:
    def test_examples(self):
        assert classify_diagonal((1, 2, 3)).shifts == {1, 3}
        assert classify_diagonal((4, 5, 6)).shifts == {6}
        assert classify_diagonal((2, 3, 4)).shifts == frozenset()

    def test_classify(self):
        dc = classify_diagonal((1, 3, 4))
        assert dc.rigid and not dc.shifts and dc.max_solutions == 1
        dc = classify_diagonal((1, 2, 3))
        assert not dc.rigid and dc.shifts == {1, 3} and dc.max_solutions == 2
        assert classify_diagonal((7, 8, 9)).shifts == {1, 3}

    def test_classify_rejects_duplicates(self):
        with pytest.raises(ValueError):
            classify_diagonal((1, 1, 2))

    @pytest.mark.parametrize("read", [classify_diagonal])
    @pytest.mark.parametrize("diagonal", [5, None, ("a", 1, 2), (1, 2, None), ([1], 2, 3)])
    def test_rejects_what_is_not_three_digits(self, read, diagonal):
        # a non-iterable or a value that does not sort used to raise TypeError
        with pytest.raises(ValueError, match="3 distinct"):
            read(diagonal)

    @pytest.mark.parametrize("read", [classify_diagonal])
    def test_rejects_bools(self, read):
        with pytest.raises(ValueError, match="3 distinct"):
            read((True, 2, 3))


class TestShiftTable:
    def test_size_and_partition(self):
        table = build_shift_table()
        assert len(table) == 84
        sizes = sorted(len(s) for s in table.values())
        assert sizes.count(0) == 35
        assert sizes.count(1) == 45
        assert sizes.count(2) == 4

    def test_double_shift_diagonals(self):
        table = build_shift_table()
        doubles = {d: s for d, s in table.items() if len(s) == 2}
        assert doubles == {
            (1, 2, 3): {1, 3},
            (1, 2, 9): {1, 3},
            (1, 8, 9): {1, 3},
            (7, 8, 9): {1, 3},
        }

    def test_csv_round_trip(self):
        table = build_shift_table()
        text = shift_table_to_csv(table)
        lines = text.splitlines()
        assert lines[0] == "diagonal,shifts"
        assert len(lines) == 85
        assert '"1,2,3","1,3"' in lines
        rows = list(csv.reader(io.StringIO(text)))
        parsed = {
            tuple(int(v) for v in diag.split(",")): frozenset(int(c) for c in shifts.split(",") if c)
            for diag, shifts in rows[1:]
        }
        assert parsed == table

    @pytest.mark.parametrize(
        "table",
        [{"abc": frozenset()}, {(1, 2, 3): frozenset({"x"})}, {(1, 1, 2): frozenset()},
         {(0, 1, 2): frozenset()}, {(1, 2, 3): frozenset({True})}, {(1, 2, 3): "13"},
         {(3, 2, 1): frozenset({1}), (1, 2, 3): frozenset()}, {(1, 2, 3): frozenset({-5, 0, 99})}],
        ids=["str-key", "str-shift", "repeated-digit", "not-a-digit", "bool-shift", "str-shifts",
             "unsorted-key", "shift-out-of-range"],
    )
    def test_csv_rejects_a_malformed_table(self, table):
        # these were written as rows '"a,b,c",' and '"1,2,3",x', as two rows
        # '"1,2,3",' and '"3,2,1",1' for one diagonal, and as '"1,2,3","-5,0,99"'
        with pytest.raises(ValueError) as error:
            shift_table_to_csv(table)
        assert str(error.value) == f"table must be a mapping of diagonals to shifts, got {table!r}"

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_more_than_two_shifts_raises(self, fresh_table, monkeypatch, reader):
        def three_shifts(real, rest):
            # diagonal (1, 2, 3) admits 1 and 3; claim 2 as well
            if rest == (4, 5, 6, 7, 8, 9):
                return [*real(rest), (2, (4, 5, 8))]
            return real(rest)

        internals.wrap_pairings(monkeypatch, three_shifts)
        with pytest.raises(RuntimeError, match=r"\(1, 2, 3\) admits 3 shifts"):
            READERS[reader]()

    def test_table_is_built_once(self, fresh_table, monkeypatch):
        calls = []

        def counted(real, rest):
            calls.append(rest)
            return real(rest)

        internals.wrap_pairings(monkeypatch, counted)
        grid = Grid((1, 4, 5, 7, 2, 6, 8, 9, 3))
        per_pass = []
        for _ in range(2):
            calls.clear()
            for read in READERS.values():
                read()
            companion_solutions(grid)
            closed_form_puzzle_count()
            per_pass.append(len(calls))
        assert per_pass == [84, 0]  # every diagonal's complement, once

    def test_import_builds_no_table(self):
        # a table built at import would be timed as set-up by every command
        assert internals.memos_at_import("theory") == {"theory.shift_match_table": 0}


class TestCompanions:
    def test_showcase_pair(self, grid_two_a, grid_two_b):
        assert companion_solutions(grid_two_a) == [grid_two_b]
        assert companion_solutions(grid_two_b) == [grid_two_a]

    def test_companions_are_exactly_the_valid_shifts(self, grid_two_a, grid_unique):
        # a shift is valid when its candidate is a legal grid answering the
        # same full-diagonal puzzle; 9 off the diagonal rules out |shift| 8
        nine_off = Grid.from_rows([(2, 9, 4), (7, 1, 6), (5, 8, 3)])
        for grid in (grid_two_a, grid_unique, nine_off):
            clue = ClueSet.from_grid(grid, PrescriptionRegime.FULL_DIAGONAL)
            valid = []
            for a in (s for c in range(1, 9) for s in (c, -c)):
                candidate = shift_cells(grid.cells, a)
                try:
                    if clue.satisfied_by(Grid(candidate)):
                        valid.append(candidate)
                except ValueError:
                    pass
            assert companion_cells(grid.cells) == valid

    def test_unique_grid_has_none(self, grid_unique):
        assert companion_solutions(grid_unique) == []

    def test_rigid_diagonal_grids_have_none(self):
        g = Grid.from_rows([(1, 2, 5), (9, 3, 6), (7, 8, 4)])  # diagonal {1, 3, 4}
        assert classify_diagonal(g.cells[::4]).rigid
        assert companion_solutions(g) == []

    def test_companions_solve_the_same_puzzle(self, grid_two_a):
        clue = ClueSet.from_grid(grid_two_a, PrescriptionRegime.FULL_DIAGONAL)
        for companion in companion_solutions(grid_two_a):
            assert clue.satisfied_by(companion)
