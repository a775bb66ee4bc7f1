import subprocess
import sys
import threading
from itertools import combinations, permutations

import pytest

from fubuki import ClueSet, Grid, PrescriptionRegime, count_solutions, solve
from fubuki.rng import SplitMix64
import internals


class TestShowcasePuzzles:
    def test_two_solution_puzzle(self, clue_two, grid_two_a, grid_two_b):
        result = solve(clue_two)
        assert result.count == 2
        assert not result.truncated
        assert result.solutions == [grid_two_a, grid_two_b]

    def test_unique_puzzle(self, clue_unique, grid_unique):
        result = solve(clue_unique)
        assert result.count == 1
        assert result.solutions == [grid_unique]

    def test_counts(self, clue_two, clue_unique):
        assert count_solutions(clue_two) == 2
        assert count_solutions(clue_unique) == 1


class TestEdges:
    def test_mismatched_totals_yield_zero(self):
        clue = ClueSet(((1, 1, 1),), (10, 15, 19), (16, 15, 14))
        result = solve(clue)
        assert result.count == 0 and result.solutions == [] and not result.truncated

    def test_limit_truncates(self, clue_two):
        result = solve(clue_two, limit=1)
        assert result.count == 1 and result.truncated

    def test_limit_equal_to_count_is_not_truncated(self, clue_two):
        result = solve(clue_two, limit=2)
        assert result.count == 2 and not result.truncated

    def test_limit_must_be_positive(self, clue_two):
        # the CLI prints this text for --limit 0
        with pytest.raises(ValueError, match="^limit must be positive, got 0$"):
            solve(clue_two, limit=0)

    @pytest.mark.parametrize("limit", [True, 1.5, "3"])
    def test_limit_must_be_a_positive_int(self, clue_two, limit):
        with pytest.raises(ValueError, match="limit must be positive"):
            solve(clue_two, limit=limit)

    def test_fully_prescribed_grid(self, grid_two_a):
        prescribed = tuple(
            (r, c, grid_two_a.rows[r - 1][c - 1]) for r in (1, 2, 3) for c in (1, 2, 3)
        )
        clue = ClueSet(prescribed, grid_two_a.row_sums(), grid_two_a.col_sums())
        assert solve(clue).solutions == [grid_two_a]

    def test_non_diagonal_prescription(self, grid_two_a):
        clue = ClueSet(
            ((1, 2, 4), (2, 3, 6), (3, 1, 8)),
            grid_two_a.row_sums(),
            grid_two_a.col_sums(),
        )
        result = solve(clue)
        assert grid_two_a in result.solutions
        assert all(clue.satisfied_by(g) for g in result.solutions)

    @pytest.mark.parametrize(
        "cells, col_sums, message",
        [
            # grid_unique: a permutation, but not a solution
            ((1, 4, 6, 5, 2, 7, 8, 9, 3), None, "does not satisfy"),
            ((1, 1, 2, 3, 4, 5, 6, 7, 8), None, "not a permutation"),
            ((0, 4, 5, 7, 2, 6, 8, 9, 3), None, "not a permutation"),
            ((1, 4, 5, 7, 2, 6, 8, 10, 3), None, "not a permutation"),
            ((1, 4, 5, 7, 2, 6, 8, 9), None, "not a permutation"),
            # every digit, and one more
            ((1, 4, 5, 7, 2, 6, 8, 9, 3, 1), None, "not a permutation"),
            # grid_two_b: every line sum and the diagonal right, cell (1, 2) wrong
            ((1, 5, 4, 6, 2, 7, 9, 8, 3), None, "does not satisfy"),
            # grid_two_a under a third column sum it does not meet
            ((1, 4, 5, 7, 2, 6, 8, 9, 3), (16, 15, 15), "does not satisfy"),
        ],
        ids=[
            "not-a-solution",
            "not-a-permutation",
            "a-zero",
            "a-ten",
            "eight-cells",
            "ten-cells",
            "off-diagonal-cell-wrong",
            "one-column-sum-wrong",
        ],
    )
    def test_post_check_rejects_a_wrong_grid(
        self, monkeypatch, grid_two_a, cells, col_sums, message
    ):
        # grid_two_a's full-diagonal clues with cell (1, 2) prescribed too
        clue = ClueSet(
            ((1, 1, 1), (1, 2, 4), (2, 2, 2), (3, 3, 3)),
            grid_two_a.row_sums(),
            col_sums or grid_two_a.col_sums(),
        )
        internals.emit_from_search(monkeypatch, cells)
        with pytest.raises(RuntimeError, match=message):
            solve(clue)


class TestSolutionGrids:
    def test_grids_match_validated_grids(self, clue_two):
        solutions = solve(clue_two).solutions
        rebuilt = [Grid(g.cells) for g in solutions]
        assert len(solutions) == 2
        for g, h in zip(solutions, rebuilt):
            assert type(g) is Grid and type(g.cells) is tuple
            assert g == h and hash(g) == hash(h)
            assert repr(g) == repr(h) and g.to_dict() == h.to_dict()
        assert solutions[0] < solutions[1] and solutions[0] < rebuilt[1]
        assert rebuilt[0] < solutions[1] and not solutions[1] < rebuilt[0]

    def test_solve_runs_no_grid_validation(self, monkeypatch, clue_two):
        calls = []
        post_init = Grid.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(Grid, "__post_init__", counted)
        assert solve(clue_two).count == 2
        assert calls == []


class TestCompleteness:
    def test_grid_appears_in_its_own_solutions(self):
        rng = SplitMix64(5)
        values = list(range(1, 10))
        for _ in range(25):
            rng.shuffle(values)
            g = Grid(tuple(values))
            for regime in PrescriptionRegime:
                result = solve(ClueSet.from_grid(g, regime))
                assert g in result.solutions

    def test_max_two_solutions_with_full_diagonal(self):
        rng = SplitMix64(6)
        values = list(range(1, 10))
        for _ in range(200):
            rng.shuffle(values)
            clue = ClueSet.from_grid(
                Grid(tuple(values)), PrescriptionRegime.FULL_DIAGONAL
            )
            assert count_solutions(clue) in (1, 2)


def random_clue_sets(n: int, seed: int) -> list[ClueSet]:
    """Seeded clue sets with 2..6 prescribed cells at arbitrary positions.

    Prescription counts lean high because the brute-force reference tries
    all (9 - k)! fillings per clue set. A slice of them gets a corrupted sum
    so the unsatisfiable path is exercised too.
    """
    rng = SplitMix64(seed)
    clue_sets = []
    positions = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]
    values = list(range(1, 10))
    for i in range(n):
        rng.shuffle(values)
        grid = Grid(tuple(values))
        k = (2, 3, 3, 4, 4, 5, 5, 6)[rng.below(8)]
        rng.shuffle(positions)
        prescribed = tuple(
            (r, c, grid.rows[r - 1][c - 1]) for r, c in sorted(positions[:k])
        )
        row_sums = list(grid.row_sums())
        if i % 10 == 0:
            # corrupt one sum, keeping it in range; usually unsatisfiable
            which = rng.below(3)
            row_sums[which] = max(6, min(24, row_sums[which] + 1))
        clue_sets.append(ClueSet(prescribed, tuple(row_sums), grid.col_sums()))
    return clue_sets


def reference_solutions(clue: ClueSet) -> list[Grid]:
    """Every grid satisfying `clue`, sorted, found with no pruning at all.

    Shares no code with the solver's search: it puts every permutation of
    the unused values on the free cells and keeps the grids the clue set
    accepts.
    """
    cells = [0] * 9
    for r, c, v in clue.prescribed:
        cells[(r - 1) * 3 + (c - 1)] = v
    free = [pos for pos in range(9) if not cells[pos]]
    grids = []
    for values in permutations(sorted(set(range(1, 10)) - set(cells))):
        for pos, v in zip(free, values):
            cells[pos] = v
        grid = Grid(tuple(cells))
        if clue.satisfied_by(grid):
            grids.append(grid)
    return sorted(grids)


class TestPruneSoundness:
    def test_solutions_equal_the_reference_at_limits_none_1_and_2(self):
        for clue in random_clue_sets(1000, seed=424242):
            reference = reference_solutions(clue)
            assert solve(clue).solutions == reference
            for limit in (1, 2):
                result = solve(clue, limit=limit)
                assert result.solutions == reference[:limit]
                assert result.truncated == (len(reference) > limit)


# the cells below row 1, which rows 2 and 3 fill column by column
LOWER_CELLS = [(r, c) for r in (2, 3) for c in (1, 2, 3)]


class TestRowSearch:
    """The cases the search handles apart: rows 2 and 3 are filled column
    by column from the column sums, and clue sets whose totals are not both
    45 are never searched.
    """

    def test_prescriptions_only_in_row_3(self, grid_two_a):
        row_3 = [(3, c) for c in (1, 2, 3)]
        grids = [grid_two_a] + random_grids(4, seed=31)
        for n, grid in enumerate(grids):
            # a single prescribed cell leaves 8! fillings to the reference
            for k in (1, 2, 3) if n == 0 else (2, 3):
                for cells in combinations(row_3, k):
                    clue = ClueSet(
                        tuple((r, c, grid.rows[r - 1][c - 1]) for r, c in cells),
                        grid.row_sums(),
                        grid.col_sums(),
                    )
                    reference = reference_solutions(clue)
                    assert grid in reference
                    assert solve(clue).solutions == reference
                    for limit in (1, 2):
                        result = solve(clue, limit=limit)
                        assert result.solutions == reference[:limit]
                        assert result.truncated == (len(reference) > limit)

    @pytest.mark.parametrize(
        "cells",
        [cells for k in (1, 2) for cells in combinations(LOWER_CELLS, k)],
        ids=lambda cells: "+".join(f"r{r}c{c}" for r, c in cells),
    )
    def test_prescriptions_in_rows_2_and_3(self, cells):
        # a prescribed cell in column 1 or 2 narrows that column's pairs and
        # one in column 3 is checked on the forced cell, so each must keep
        # exactly the solutions of the sums alone that agree with it
        for grid in random_grids(200, seed=37):
            sums = grid.row_sums(), grid.col_sums()
            clue = ClueSet(tuple((r, c, grid.rows[r - 1][c - 1]) for r, c in cells), *sums)
            wanted = [g for g in solve(ClueSet((), *sums)).solutions if clue.satisfied_by(g)]
            assert grid in wanted
            assert solve(clue).solutions == wanted
            assert count_solutions(clue) == len(wanted)
            result = solve(clue, limit=1)
            assert result.solutions == wanted[:1]
            assert result.truncated == (len(wanted) > 1)

    @pytest.mark.parametrize(
        "row_sums, col_sums",
        [((10, 15, 20), (16, 15, 15)), ((10, 15, 21), (16, 15, 14))],
        ids=["rows-total-45", "cols-total-45"],
    )
    def test_only_one_set_of_sums_totals_45(self, grid_two_a, row_sums, col_sums):
        cells = ((1, 1), (1, 2), (2, 2), (3, 3))
        clue = ClueSet(
            tuple((r, c, grid_two_a.rows[r - 1][c - 1]) for r, c in cells), row_sums, col_sums
        )
        assert reference_solutions(clue) == []
        result = solve(clue)
        assert result.solutions == [] and not result.truncated
        assert count_solutions(clue) == 0

    @pytest.mark.parametrize("limit", [1, 2])
    def test_fully_prescribed_grid_with_a_limit(self, grid_unique, limit):
        prescribed = tuple(
            (r, c, grid_unique.rows[r - 1][c - 1]) for r in (1, 2, 3) for c in (1, 2, 3)
        )
        clue = ClueSet(prescribed, grid_unique.row_sums(), grid_unique.col_sums())
        assert reference_solutions(clue) == [grid_unique]
        result = solve(clue, limit=limit)
        assert result.solutions == [grid_unique] and not result.truncated


# 19 line sums, each with its whole list and one view per (column, digit)
VIEW_KEYS = 19 * (1 + 3 * 9)


def brute_force_triples(s: int) -> list[tuple[int, int, int, int]]:
    """Every ordered triple of distinct digits summing to s, with its digit mask."""
    return [
        (a, b, c, 1 << a | 1 << b | 1 << c)
        for a in range(1, 10)
        for b in range(1, 10)
        for c in range(1, 10)
        if len({a, b, c}) == 3 and a + b + c == s
    ]


# one pair table per row-1 digit set
ROW_1_MASKS = [1 << a | 1 << b | 1 << c for a, b, c in combinations(range(1, 10), 3)]


def brute_force_pairs(m: int) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Pair sum -> every ordered pair of distinct digits outside mask m that
    reaches it, with its digit mask, in order of top."""
    pairs: dict = {}
    for top in range(1, 10):
        for bottom in range(1, 10):
            if top != bottom and not (1 << top | 1 << bottom) & m:
                pairs.setdefault(top + bottom, []).append((top, bottom, 1 << top | 1 << bottom))
    return {s: tuple(ps) for s, ps in pairs.items()}


def view_keys():
    """Every key the view memo can hold."""
    for s in range(6, 25):
        yield s, 0, 0
        for col in (1, 2, 3):
            for digit in range(1, 10):
                yield s, col, digit


def check_held_tables() -> None:
    """Fill every view the memo lacks, and check that each pair table a view
    triple holds, stored before or now, is the brute-force one of its mask."""
    brute = {m: brute_force_pairs(m) for m in ROW_1_MASKS}
    for key in view_keys():
        for t in internals.view(*key):
            assert t[4] == brute[t[3]]


def regime_clue_sets(n: int, seed: int, regime: PrescriptionRegime) -> list[ClueSet]:
    return [ClueSet.from_grid(g, regime) for g in random_grids(n, seed)]


class TestRowTable:
    def test_import_builds_no_table(self):
        # a view built at import would be timed as set-up by every command
        assert internals.memos_at_import("solver") == {"solver._view": 0}

    def test_one_search_builds_every_ordered_triple(self, clue_unique):
        internals.clear_views()
        solve(clue_unique)
        # one whole list for row 1's sum and one view for its prescribed cell
        built = internals.views_held()
        assert 0 < built <= 2
        triples = [t for s in range(6, 25) for t in internals.view(s)]
        assert len(triples) == 504
        assert sorted(t[:3] for t in triples) == list(permutations(range(1, 10), 3))

    def test_views_are_ordered_sublists_of_the_table(self):
        internals.clear_views()
        for s in range(6, 25):
            ts = brute_force_triples(s)
            assert [t[:4] for t in internals.view(s)] == ts
            for col in (1, 2, 3):
                for digit in range(1, 10):
                    assert [t[:4] for t in internals.view(s, col, digit)] == [
                        t for t in ts if t[col - 1] == digit
                    ]
        assert internals.views_held() == VIEW_KEYS

    def test_view_triples_hold_the_memoised_pair_tables(self):
        # the base view of a sum builds one table per digit set; its six
        # orderings hold that one table, and every other view of the sum
        # holds the base view's tables
        internals.clear_views()
        tables = {}
        for s in range(6, 25):
            by_mask: dict = {}
            for t in internals.view(s):
                by_mask.setdefault(t[3], []).append(t[4])
            for m, held in by_mask.items():
                assert len(held) == 6 and all(table is held[0] for table in held)
                tables[m] = held[0]
        assert sorted(tables) == sorted(ROW_1_MASKS)
        assert len({id(table) for table in tables.values()}) == 84
        for m, table in tables.items():
            assert table == brute_force_pairs(m)
        for key in view_keys():
            for t in internals.view(*key):
                assert t[4] is tables[t[3]]

    @pytest.fixture(scope="class")
    def memo_after_solves(self):
        """One pass of 1000 solves, then every valid key filled: the views
        held after each step, and each pair table held, by id, with its mask."""
        # 2..6 cells prescribed anywhere, so rows with several prescribed
        # cells and unsatisfiable sums are among them
        internals.clear_views()
        for clue in random_clue_sets(1000, seed=424242):
            solve(clue)
        after_solves = internals.views_held()
        held = {id(t[4]): (t[3], t[4]) for key in view_keys() for t in internals.view(*key)}
        return after_solves, internals.views_held(), held

    def test_memo_stays_within_its_key_bound(self, memo_after_solves):
        after_solves, after_filling, _ = memo_after_solves
        assert 0 < after_solves <= VIEW_KEYS
        # filling every valid key adds the rest: the solves stored no other key
        assert after_filling == VIEW_KEYS

    def test_pair_memo_stays_within_its_key_bound(self, memo_after_solves):
        # the views the solves stored, and the rest filled after them, hold
        # one table per row-1 digit set between them and no other
        held = memo_after_solves[2]
        assert sorted(mask for mask, _ in held.values()) == sorted(ROW_1_MASKS)
        for mask, table in held.values():
            assert table == brute_force_pairs(mask)

    def test_pair_tables_are_the_brute_force_ones(self):
        internals.clear_views()
        tables = {t[3]: t[4] for s in range(6, 25) for t in internals.view(s)}
        assert len(tables) == 84
        for m, table in tables.items():
            assert table == brute_force_pairs(m)
        # the 72 ordered pairs, each in the 35 tables of the row-1 digit
        # sets that avoid both its digits
        stored = [p for table in tables.values() for ps in table.values() for p in ps]
        assert len(stored) == 84 * 30 and len(set(stored)) == 72
        # every table holds the same 72 tuples, not copies of them
        assert len({id(p) for p in stored}) == 72

    @pytest.mark.parametrize(
        "regime", [PrescriptionRegime.NONE, PrescriptionRegime.TOP_LEFT], ids=["none", "top-left"]
    )
    def test_results_do_not_depend_on_what_the_pair_memo_holds(self, regime):
        clues = regime_clue_sets(100, 41, regime)
        cold = []
        for clue in clues:
            internals.clear_views()
            cold.append([solve(clue), solve(clue, limit=1)])
        internals.clear_views()
        check_held_tables()
        assert [[solve(clue), solve(clue, limit=1)] for clue in clues] == cold

    def test_threads_filling_the_pair_memo_at_once_match_serial_solves(self):
        clues = regime_clue_sets(100, 43, PrescriptionRegime.NONE)
        serial = [solve(clue) for clue in clues]
        internals.clear_views()
        start = threading.Barrier(4, timeout=60)
        results: list = [None] * 4

        def run(k: int) -> None:
            start.wait()
            results[k] = [solve(clue) for clue in clues]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so the threads' fills interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 4
        check_held_tables()  # and every table they stored is the brute-force one


class TestSolveMemory:
    def test_solver_retains_little_after_many_solves(self):
        # tracemalloc in a fresh process, started once the clue sets are
        # built: what solver.py's allocations still hold after 10,000
        # solves, the view memo and the pair tables it holds included. It reads
        # 0.20 MB. The 19 whole views read 0.14 MB, as they hold all 84 pair
        # tables: 0.04 MB of triples and 0.10 MB of tables; the other 513
        # views add 0.03 MB
        code = (
            "import gc, random, tracemalloc\n"
            "from fubuki import ClueSet, Grid, solve, solver\n"
            "rnd = random.Random(17)\n"
            "positions = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]\n"
            "clues = []\n"
            "for i in range(10000):\n"
            "    grid = Grid(tuple(rnd.sample(range(1, 10), 9)))\n"
            "    cells = rnd.sample(positions, rnd.randint(0, 6))\n"
            "    prescribed = tuple((r, c, grid.rows[r - 1][c - 1]) for r, c in cells)\n"
            "    rows = grid.row_sums() if i % 5 else [rnd.randint(6, 24) for _ in range(3)]\n"
            "    clues.append(ClueSet(prescribed, rows, grid.col_sums()))\n"
            "tracemalloc.start()\n"
            "for clue in clues:\n"
            "    solve(clue)\n"
            "gc.collect()  # empties the free lists, which hold freed tuples\n"
            "snapshot = tracemalloc.take_snapshot()\n"
            "traces = snapshot.filter_traces([tracemalloc.Filter(True, solver.__file__)])\n"
            "print(sum(stat.size for stat in traces.statistics('filename')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) <= 0.5 * 10**6


def random_grids(n: int, seed: int) -> list[Grid]:
    rng = SplitMix64(seed)
    values = list(range(1, 10))
    grids = []
    for _ in range(n):
        rng.shuffle(values)
        grids.append(Grid(tuple(values)))
    return grids
