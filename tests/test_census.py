import re
import subprocess
import sys
from collections import Counter
from itertools import combinations, islice, permutations
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fubuki import (
    EXPECTED_PUZZLE_COUNTS,
    TOTAL_GRIDS,
    CensusReport,
    ClueSet,
    Grid,
    PrescriptionRegime,
    census,
    census_all,
    closed_form_puzzle_count,
    companion_oracle_mismatches,
    companion_scan,
    count_solutions,
)
from fubuki.census import signature_key
from fubuki.core import MAX_LINE_SUM, MIN_LINE_SUM
from fubuki.rng import SplitMix64
from fubuki.theory import companion_cells, shift_cells
import internals

R = PrescriptionRegime
FIRST_ROW_SUMS = range(MIN_LINE_SUM, MAX_LINE_SUM + 1)

# regression pins from exhaustive runs (no published reference values)
MAX_SOLUTIONS = {R.FULL_DIAGONAL: 2, R.FIRST_TWO_DIAGONAL: 6, R.TOP_LEFT: 18, R.NONE: 80}
SINGLE_SOLUTION_PUZZLES = {
    R.FULL_DIAGONAL: 339984,
    R.FIRST_TWO_DIAGONAL: 216016,
    R.TOP_LEFT: 65704,
    R.NONE: 2736,
}
MULTI_GRID_BUCKETS = {
    R.FULL_DIAGONAL: 11448,
    R.FIRST_TWO_DIAGONAL: 65288,
    R.TOP_LEFT: 97683,
    R.NONE: 43411,
}


def digit_sets(r1):
    """The first-row digit sets of the group of first row sum `r1`."""
    return [first for first in combinations(range(1, 10), 3) if sum(first) == r1]


def no_group(group):
    raise AssertionError(f"counted the group {group} for a bad argument")


@pytest.fixture(scope="module")
def all_reports():
    """The fused four-regime sweep, as `verify --all` runs it."""
    return census_all()


class TestCensusReports:
    def test_solvable_puzzle_counts(self, census_reports):
        for regime, report in census_reports.items():
            assert report.solvable_puzzles == EXPECTED_PUZZLE_COUNTS[regime]

    def test_grand_totals(self, census_reports):
        for report in census_reports.values():
            assert sum(k * n for k, n in report.sizes.items()) == TOTAL_GRIDS
            # the histogram is kept in increasing number of solutions
            assert list(report.sizes) == sorted(report.sizes)

    def test_full_diagonal_histograms(self, census_reports):
        report = census_reports[R.FULL_DIAGONAL]
        assert report.sizes == {1: 339984, 2: 11448}
        assert {k: k * n for k, n in report.sizes.items()} == {1: 339984, 2: 22896}
        # exactly as many two-solution puzzles as grids lost to sharing
        assert report.sizes[2] == TOTAL_GRIDS - report.solvable_puzzles

    def test_max_solutions_pins(self, census_reports):
        for regime, report in census_reports.items():
            assert report.max_solutions == MAX_SOLUTIONS[regime]

    def test_single_solution_pins(self, census_reports):
        for regime, report in census_reports.items():
            assert report.single_solution_puzzles == SINGLE_SOLUTION_PUZZLES[regime]

    def test_ratios_to_grid_count(self, census_reports):
        ratios = {
            R.FULL_DIAGONAL: 0.9685,
            R.FIRST_TWO_DIAGONAL: 0.7752,
            R.TOP_LEFT: 0.4503,
            R.NONE: 0.1272,
        }
        for regime, report in census_reports.items():
            assert report.solvable_puzzles / TOTAL_GRIDS == pytest.approx(
                ratios[regime], abs=5e-5
            )

    def test_multi_grid_bucket_counts(self, census_reports, group_buckets):
        assert len(census_reports[R.FULL_DIAGONAL].multi) == MULTI_GRID_BUCKETS[R.FULL_DIAGONAL]
        for regime, union in group_buckets.items():
            assert len(union) == MULTI_GRID_BUCKETS[regime]

    def test_census_all_matches_each_census(self, census_reports, all_reports):
        for regime in R:
            assert all_reports[regime].sizes == census_reports[regime].sizes

    def test_census_all_keeps_only_the_full_diagonal_buckets(self, census_reports, all_reports):
        # the companion oracle reads the full diagonal's; the generator counts
        # the others' one group at a time, so no sweep keeps them
        assert all_reports[R.FULL_DIAGONAL].multi == census_reports[R.FULL_DIAGONAL].multi
        for regime in (R.FIRST_TWO_DIAGONAL, R.TOP_LEFT, R.NONE):
            assert all_reports[regime].multi is None
            assert census_reports[regime].multi is None


class TestMaxSolutionsObserved:
    def test_full_diagonal(self, census_reports):
        assert census_reports[R.FULL_DIAGONAL].max_solutions == 2


class TestSweepMechanics:
    def test_iteration_order_does_not_matter(self, census_reports):
        counts: Counter[int] = Counter()
        perms = list(permutations(range(1, 10)))
        for p in reversed(perms):
            counts[signature_key(p, R.TOP_LEFT)] += 1
        assert census_reports[R.TOP_LEFT].sizes == dict(Counter(counts.values()))

    def test_signature_separates_regimes(self, grid_two_a, grid_two_b, grid_unique):
        # the two-solution pair shares every signature; the unique grid none
        for regime in PrescriptionRegime:
            a = signature_key(grid_two_a.cells, regime)
            assert a == signature_key(grid_two_b.cells, regime)
            assert a != signature_key(grid_unique.cells, regime)

    @pytest.mark.parametrize("regime", ["none", None, []], ids=repr)
    def test_key_rejects_a_non_regime(self, grid_unique, regime):
        # "none" used to raise KeyError and [] TypeError from the drop lookup
        with pytest.raises(ValueError, match="regime must be a PrescriptionRegime"):
            signature_key(grid_unique.cells, regime)

    def test_key_matches_field_by_field_packing(self, grid_two_a, grid_two_b, grid_unique):
        def reference_key(cells, regime):
            # the module docstring's layout: 5-bit r1, r2, c1, c2, then one
            # 4-bit field appended per prescribed cell in regime order
            key = 0
            for line in ((0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7)):
                key = key << 5 | sum(cells[i] for i in line)
            for i in regime.flat_cells:
                key = key << 4 | cells[i]
            return key

        rng = SplitMix64(2024)
        values = list(range(1, 10))
        grids = [grid_two_a.cells, grid_two_b.cells, grid_unique.cells]
        for _ in range(20000):
            rng.shuffle(values)
            grids.append(tuple(values))
        for regime in PrescriptionRegime:
            for cells in grids:
                assert signature_key(cells, regime) == reference_key(cells, regime)

    def test_sweep_matches_naive_count(self):
        # the dict count, group by group: the reference both lane counts are
        # checked against (TestDenseCount, TestDiagonalCount)
        naive: dict[R, Counter[int]] = {r: Counter() for r in R}
        for cells in permutations(range(1, 10)):
            for regime, counts in naive.items():
                counts[signature_key(cells, regime)] += 1
        swept: dict[R, dict[int, int]] = {r: {} for r in R}
        for r1 in FIRST_ROW_SUMS:
            for regime in R:
                counts = internals.group_counts(regime, r1)
                assert type(counts) is dict
                assert swept[regime].keys().isdisjoint(counts)
                swept[regime].update(counts)
        for regime, want in naive.items():
            assert swept[regime] == dict(want), regime

    def test_key_is_weighted_cell_sum(self):
        # the key of each unit grid weighs its cell
        units = [tuple(int(i == j) for j in range(9)) for i in range(9)]
        weights = [signature_key(unit, R.FULL_DIAGONAL) for unit in units]
        for cells in permutations(range(1, 10)):
            assert signature_key(cells, R.FULL_DIAGONAL) == sum(map(mul, cells, weights))

    def test_row_tables_are_built_on_first_use(self):
        assert internals.memos_at_import("census") == {}
        assert internals.memos_at_import("generate") == {"generate._row_keys": 0}

    def test_report_rejects_a_short_sweep(self):
        # also when the multi-grid buckets were not kept
        for multi in ({}, None):
            with pytest.raises(RuntimeError, match="362879.*362880"):
                CensusReport(R.NONE, {1: TOTAL_GRIDS - 1}, multi)

    @pytest.mark.parametrize(
        "sizes",
        [{1: TOTAL_GRIDS, 5: 0}, {1: TOTAL_GRIDS + 2, -1: 2}, {1: TOTAL_GRIDS, 0: 3}],
        ids=["no-bucket", "negative-size", "no-grid"],
    )
    def test_report_rejects_a_size_or_count_below_one(self, sizes):
        # each of these holds 9! grids: the total alone would accept it
        with pytest.raises(ValueError) as error:
            CensusReport(R.NONE, sizes, None)
        assert str(error.value) == (
            f"sizes must be a dict of positive ints to positive ints, got {sizes!r}"
        )

    @pytest.mark.parametrize("regime", ["none", None, "full_diagonal", 3])
    def test_census_rejects_a_non_regime_before_sweeping(self, monkeypatch, regime):
        # "none" used to raise KeyError from the drop lookup
        internals.before_each_group(monkeypatch, no_group)
        with pytest.raises(ValueError, match="regime must be a PrescriptionRegime"):
            census(regime)

    def test_report_rejects_multi_buckets_that_disagree_with_sizes(self, census_reports):
        report = census_reports[R.FULL_DIAGONAL]
        multi = dict(report.multi)
        del multi[next(iter(multi))]
        with pytest.raises(RuntimeError, match=re.escape("are {2: 11447}, expected {2: 11448}")):
            CensusReport(R.FULL_DIAGONAL, report.sizes, multi)

    def test_report_rejects_a_single_grid_multi_bucket(self, census_reports):
        # sizes and total stay consistent: one single-grid bucket is also
        # listed among the multi-grid buckets
        report = census_reports[R.FULL_DIAGONAL]
        multi = {**report.multi, 0: 1}
        with pytest.raises(RuntimeError, match="include one of 1 grids"):
            CensusReport(R.FULL_DIAGONAL, report.sizes, multi)

    def test_report_checks_hold_under_optimize(self):
        # the checks are real exceptions, not asserts that -O strips
        code = (
            "from fubuki.census import CensusReport, TOTAL_GRIDS\n"
            "from fubuki.core import PrescriptionRegime as R\n"
            "for sizes, multi in [({1: TOTAL_GRIDS - 1}, {}), ({1: TOTAL_GRIDS - 1}, None),\n"
            "                     ({1: TOTAL_GRIDS}, {0: 1}), ({1: TOTAL_GRIDS - 2, 2: 1}, {})]:\n"
            "    try:\n"
            "        CensusReport(R.NONE, sizes, multi)\n"
            "    except RuntimeError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {sizes} {multi}')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("parts", [2, 3])
    def test_parts_share_no_key(self, census_reports, group_buckets, parts):
        # `none` has the coarsest keys, so a shared key would show there first
        for regime in (R.NONE, R.FULL_DIAGONAL):
            merged: dict[int, int] = {}
            for part in range(parts):
                counts: dict[int, int] = {}
                for r1 in FIRST_ROW_SUMS[part::parts]:
                    group = internals.group_counts(regime, r1)
                    assert counts.keys().isdisjoint(group)
                    counts.update(group)
                assert merged.keys().isdisjoint(counts)
                merged.update(counts)
            # the parts, merged by dict update, hold exactly the sweep's buckets
            assert dict(Counter(merged.values())) == census_reports[regime].sizes
            multi = census_reports[regime].multi
            if multi is None:
                multi = group_buckets[regime]
            assert {key: n for key, n in merged.items() if n >= 2} == multi

    def test_group_rows_hold_every_filling(self):
        # the tails are built per split of the six digits into rows 2 and 3:
        # the same keys as one filling at a time, in another order
        for r1 in FIRST_ROW_SUMS:
            rows = internals.group_rows(r1)
            reference = internals.tails_by_filling(r1)
            assert len(rows) == len(reference) == len(digit_sets(r1))
            for (heads, tails), by_filling, first in zip(rows, reference, digit_sets(r1)):
                assert heads == [signature_key(p + (0,) * 6, R.FULL_DIAGONAL)
                                 for p in permutations(first)]
                assert sorted(tails) == sorted(by_filling)

    def test_reports_fold_exactly_the_group_counts(self, monkeypatch):
        # stand-in lanes per diagonal digit set that hold its 720 grids, in
        # two ints of a pool of three dict keys: sizes 1, 2 and 3 + s % 4,
        # the rest in lanes of at most 30, so a pair's 7 sets sum to at most
        # 210 a lane; and stand-in dense counts per (regime, first row sum)
        # that hold the group's grids: a single-grid bucket, a bucket of r1
        # grids (r1 + 1 under `none`) and the rest in buckets of at most 255
        regimes = tuple(R)
        sets = list(combinations(range(1, 10), 3))
        pool = [signature_key((0, 0, 3 + i, 0, 0, 0, 0, 5 + i, 0), R.FULL_DIAGONAL)
                for i in range(3)]
        stub_lanes = {}
        for s, diagonal in enumerate(sets):
            sizes = [1, 2, 3 + s % 4]
            full, rest = divmod(720 - sum(sizes), 30)
            sizes += [30] * full + [rest] * (rest > 0)
            halves = [0] * (s % 5) + sizes[::2], [0] * (s % 3) + sizes[1::2]
            stub_lanes[diagonal] = {
                pool[(s + i) % 3]: int.from_bytes(bytes(half), "little")
                for i, half in enumerate(halves)
            }
        stub = {}
        for r1 in FIRST_ROW_SUMS:
            grids = 4320 * len(digit_sets(r1))
            for regime in regimes[2:]:
                sizes = [1, r1 + (regime is R.NONE)]
                full, rest = divmod(grids - sum(sizes), 255)
                sizes += [255] * full + [rest] * (rest > 0)
                stub[regime, r1] = {r1 << 12 | i: n for i, n in enumerate(sizes)}
        calls = []

        def lanes(diagonal):
            calls.append(diagonal)
            return dict(stub_lanes[diagonal])

        def group_rows(r1):
            calls.append(r1)
            return digit_sets(r1)  # a group's rows stand in as its first-row digit sets

        def count_group(regime, group):
            r1 = sum(group[0])
            calls.append((regime, r1))
            return dict(stub[regime, r1])

        internals.stub_groups(monkeypatch, lanes, group_rows, count_group)
        reports = census_all()
        # the diagonal count's sets, then per first row sum the dense
        # count's rows and regimes
        dense = regimes[2:]
        assert calls == sets + [
            c for r1 in FIRST_ROW_SUMS for c in (r1, *((r, r1) for r in dense))
        ]

        def lane_sizes(held):
            # {(dict key, lane): grids} of one set's or pair's lanes
            return {
                (key, i): n
                for key, packed in held.items()
                for i, n in enumerate(packed.to_bytes(internals.LANES, "little"))
                if n
            }

        # every ordering of a set folds its lanes, and every ordering of a
        # pair the sum of its 7 sets' lanes
        by_set = {diagonal: lane_sizes(held) for diagonal, held in stub_lanes.items()}
        by_pair = {}
        for pair in combinations(range(1, 10), 2):
            summed = Counter()
            for diagonal, held in by_set.items():
                if set(pair) <= set(diagonal):
                    summed.update(held)
            by_pair[pair] = summed
        want = {}
        for regime, held, orderings in (
            (R.FULL_DIAGONAL, by_set, 6), (R.FIRST_TWO_DIAGONAL, by_pair, 2)
        ):
            sizes = Counter(n for lanes_of in held.values() for n in lanes_of.values())
            want[regime] = {k: orderings * n for k, n in sizes.items()}
        for regime in dense:
            want[regime] = Counter(n for r1 in FIRST_ROW_SUMS for n in stub[regime, r1].values())
        for regime in regimes:
            assert reports[regime].sizes == want[regime], regime
        assert reports[R.NONE].multi is None
        # a multi-grid bucket's key is its ordering's, its dict key's and its lane's
        multi = {}
        for diagonal, held in by_set.items():
            for (key, i), n in held.items():
                df, dg = divmod(i, 15)
                lane = signature_key((0, 0, 0, 0, 0, df + 3, dg + 3, 0, 0), R.FULL_DIAGONAL)
                for a, e, k in permutations(diagonal):
                    head = signature_key((a, 0, 0, 0, e, 0, 0, 0, k), R.FULL_DIAGONAL)
                    if n >= 2:
                        multi[head + key + lane] = n
        assert reports[R.FULL_DIAGONAL].multi == multi
        # one regime's census builds only the groups of its own count
        for regime in regimes:
            calls.clear()
            assert census(regime).sizes == reports[regime].sizes
            if regime in dense:
                assert calls == [c for r1 in FIRST_ROW_SUMS for c in (r1, (regime, r1))]
            else:
                assert calls == sets


class TestDenseCount:
    @pytest.mark.parametrize("regime", [R.TOP_LEFT, R.NONE], ids=lambda r: r.name)
    def test_matches_the_dict_count(self, regime):
        for r1 in FIRST_ROW_SUMS:
            want = Counter(internals.group_counts(regime, r1).values())
            assert internals.dense_sizes(regime, r1) == want, r1

    @pytest.mark.parametrize(
        "fault, grids",
        [("drop_row_orderings", {"top_left": 3000, "none": 3000}),
         ("carry_dense_lanes", {"top_left": 3555, "none": 4065})],
    )
    def test_rejects_a_faulty_group_under_optimize(self, fault, grids):
        # a real raise, not an assert that -O strips. Dropping row orderings
        # loses grids; a carried lane keeps them all, but takes 255 off the
        # lanes' total per carry, once per top-left digit 1, 2, 3 under
        # `top-left`. First row sum 6 has one digit set, {1, 2, 3}
        code = (
            "import sys\n"
            f"sys.path.insert(0, {internals.HERE!r})\n"
            "import pytest, internals\n"
            "from fubuki.core import PrescriptionRegime as R\n"
            f"internals.{fault}(pytest.MonkeyPatch())\n"
            "for regime in (R.TOP_LEFT, R.NONE):\n"
            "    try:\n"
            "        internals.dense_sizes(regime, 6)\n"
            "    except RuntimeError as error:\n"
            "        print(error)\n"
            "    else:\n"
            "        raise SystemExit(f'accepted a faulty {regime.value} group')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "".join(
            f"{name} group of first row sum 6 holds {n} grids, expected 4320\n"
            for name, n in grids.items()
        )


class TestFold:
    @settings(deadline=None, database=None)
    @given(st.binary().map(lambda b: b.translate(None, b"\0")), st.binary(min_size=1, max_size=64))
    def test_matches_a_counter(self, vals, before):
        assert internals.fold({}, vals) == Counter(vals)
        # folding into a histogram adds to it, in place
        held = dict(Counter(before.translate(None, b"\0")))
        sizes = dict(held)
        assert internals.fold(sizes, vals) is sizes
        assert Counter(sizes) == Counter(held) + Counter(vals)

    @pytest.mark.parametrize("vals", [b"\0", b"\1\0\2", b"\2" * 9 + b"\0"], ids=repr)
    def test_rejects_an_empty_bucket(self, vals):
        sizes = {1: 3}
        with pytest.raises(RuntimeError, match="empty bucket"):
            internals.fold(sizes, vals)
        assert sizes == {1: 3}

    def test_rejects_an_oversized_bucket_under_optimize(self):
        # a real raise, not an assert that -O strips; bytes() alone would
        # raise a bare ValueError for a size of 256. Only the generator's
        # dict count can meet it: the sweep counts no group by dict, so
        # `verify` still passes
        code = (
            "import sys\n"
            f"sys.path.insert(0, {internals.HERE!r})\n"
            "import pytest, internals\n"
            "from fubuki import cli, generate_puzzles\n"
            "from fubuki.core import PrescriptionRegime as R\n"
            "internals.oversize_buckets(pytest.MonkeyPatch())\n"
            "for call in (lambda: internals.group_multi_buckets(R.FULL_DIAGONAL, 6),\n"
            "             lambda: generate_puzzles(R.NONE, True, 7, 1)):\n"
            "    try:\n"
            "        call()\n"
            "    except RuntimeError as error:\n"
            "        print(error)\n"
            "    else:\n"
            "        raise SystemExit('accepted an oversized bucket')\n"
            "print('exit', cli.main(['verify', '--all']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        oversized = "group of first row sum {} has a bucket of 256 grids or more"
        assert lines[0] == "full_diagonal " + oversized.format(6)
        assert re.fullmatch("none " + oversized.format(r"\d+"), lines[1])
        assert lines[-1] == "exit 0"


class TestDiagonalCount:
    @pytest.fixture(scope="class")
    def naive(self):
        return internals.naive_diagonal_counts()

    def test_set_lanes_match_a_naive_count(self, naive):
        want = naive[R.FULL_DIAGONAL]
        assert len(want) == 84
        for diagonal, counts in want.items():
            lanes = internals.diagonal_lanes(diagonal)
            got = internals.lane_counts(lanes, permutations(diagonal), R.FULL_DIAGONAL)
            assert got == counts, diagonal

    def test_pair_lanes_match_a_naive_count(self, naive):
        want = naive[R.FIRST_TWO_DIAGONAL]
        assert len(want) == 36
        for (a, e), counts in want.items():
            lanes = internals.pair_lanes((a, e))
            got = internals.lane_counts(lanes, [(a, e, 0), (e, a, 0)], R.FIRST_TWO_DIAGONAL)
            assert got == counts, (a, e)

    @pytest.mark.parametrize(
        "fault, grids",
        [("drop_sum_orderings", (600, 4200)), ("carry_diagonal_lanes", (465, 3255))],
    )
    def test_rejects_a_faulty_set_or_pair_under_optimize(self, fault, grids):
        # a real raise, not an assert that -O strips. Dropping an ordering
        # of every row polynomial loses one grid in 6; a carried lane keeps
        # every grid, but takes 255 off the lanes' total. The set (1, 2, 3)
        # is checked first, and the pair (1, 2) sums 7 sets
        code = (
            "import sys\n"
            f"sys.path.insert(0, {internals.HERE!r})\n"
            "import pytest, internals\n"
            "from fubuki import census\n"
            "from fubuki.core import PrescriptionRegime as R\n"
            f"internals.{fault}(pytest.MonkeyPatch())\n"
            "for regime in (R.FULL_DIAGONAL, R.FIRST_TWO_DIAGONAL):\n"
            "    try:\n"
            "        census(regime)\n"
            "    except RuntimeError as error:\n"
            "        print(error)\n"
            "    else:\n"
            "        raise SystemExit(f'accepted a faulty {regime.value} count')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            f"full_diagonal diagonal set (1, 2, 3) holds {grids[0]} grids, expected 720\n"
            f"first_two_diagonal diagonal pair (1, 2) holds {grids[1]} grids, expected 5040\n"
        )

    def test_a_carried_lane_fails_verify_under_optimize(self):
        # the sweep's fault is a route's: every regime line of `verify --all`
        # reads error, and it exits 3
        code = (
            "import sys\n"
            f"sys.path.insert(0, {internals.HERE!r})\n"
            "import pytest, internals\n"
            "from fubuki import cli\n"
            "internals.carry_diagonal_lanes(pytest.MonkeyPatch())\n"
            "print('exit', cli.main(['verify', '--all']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        error = "full_diagonal diagonal set (1, 2, 3) holds 465 grids, expected 720"
        lines = result.stdout.splitlines()
        assert lines[-1] == "exit 3"
        regimes = [line for line in lines if line.startswith("regime ")]
        assert regimes == [
            f"regime {name}: solvable puzzles: error (expected {EXPECTED_PUZZLE_COUNTS[r]}) FAIL"
            for r, name in zip(R, ("full-diagonal", "first-two-diagonal", "top-left", "none"))
        ]
        assert f"mismatch: regime full-diagonal: solvable puzzles: RuntimeError: {error}" in (
            result.stderr.splitlines()
        )


class TestGroupMultiBuckets:
    @pytest.mark.parametrize(
        "regime", [R.FIRST_TWO_DIAGONAL, R.TOP_LEFT, R.NONE], ids=lambda r: r.name
    )
    def test_groups_make_up_the_sweeps_buckets(self, census_reports, group_buckets, regime):
        union: dict[int, int] = {}
        for r1 in FIRST_ROW_SUMS:
            group = internals.group_multi_buckets(regime, r1)
            assert union.keys().isdisjoint(group)
            union.update(group)
        assert union == group_buckets[regime]
        # the groups hold exactly the buckets the sweep counts at k >= 2
        sizes = census_reports[regime].sizes
        assert Counter(union.values()) == {k: n for k, n in sizes.items() if k >= 2}
        assert sizes[1] + sum(union.values()) == TOTAL_GRIDS

    @pytest.mark.parametrize("regime", ["none", None, 3])
    def test_rejects_a_non_regime_before_counting(self, monkeypatch, regime):
        # "none" used to raise KeyError from the drop lookup
        internals.before_each_group(monkeypatch, no_group)
        with pytest.raises(ValueError, match="regime must be a PrescriptionRegime"):
            internals.group_multi_buckets(regime, 15)

    @pytest.mark.parametrize("r1", [5, 25, "6", True, 6.0, None], ids=repr)
    def test_rejects_a_non_line_sum_before_counting(self, monkeypatch, r1):
        # 5, "6" and True used to return {}, "every grid unique", and 6.0
        # sum 6's buckets
        internals.before_each_group(monkeypatch, no_group)
        with pytest.raises(ValueError, match="r1 must be an integer in 6..24"):
            internals.group_multi_buckets(R.NONE, r1)

    def test_rejects_a_group_short_of_grids_under_optimize(self):
        # a real raise, not an assert that -O strips; first row sum 6 has one
        # digit set, {1, 2, 3}, so 3! * 6! grids
        code = (
            "import sys\n"
            f"sys.path.insert(0, {internals.HERE!r})\n"
            "import pytest, internals\n"
            "from fubuki.core import PrescriptionRegime as R\n"
            "internals.short_groups(pytest.MonkeyPatch())\n"
            "try:\n"
            "    internals.group_multi_buckets(R.NONE, 6)\n"
            "except RuntimeError as error:\n"
            "    print(error)\n"
            "else:\n"
            "    raise SystemExit('accepted a short group')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert re.fullmatch(
            r"none group of first row sum 6 holds \d+ grids, expected 4320\n", result.stdout
        )


class TestClosedForm:
    def test_total_and_addends(self):
        cf = closed_form_puzzle_count()
        assert cf.addends == (151200, 184680, 15552)
        assert cf.total == 351432


class TestCompanionScan:
    def test_scan_totals(self, full_scan):
        assert len(full_scan) == 22896
        # every grid with a companion has exactly one
        assert len({pair[:9] for pair in full_scan}) == 22896
        smaller = {pair[:9] for pair in full_scan if pair[9:] < pair[:9]}
        assert TOTAL_GRIDS - len(smaller) == 351432

    def test_pairs_equal_a_walk_over_all_grids(self, full_scan):
        # two constructions that share only the shift table: the scan shifts
        # the grids its entries name, and this walk asks `companion_cells`
        # about every one of the 9! grids; they find the same pairs in order
        walked = [bytes(p + c) for p in permutations(range(1, 10)) for c in companion_cells(p)]
        assert full_scan == walked

    def test_scan_calls_no_companion_cells(self, full_scan, monkeypatch):
        # the routes stay independent: the walk above is the scan's check
        def refuse(cells):
            raise AssertionError("the scan called companion_cells")

        monkeypatch.setattr(internals.census, "companion_cells", refuse)
        assert companion_scan() == full_scan


# the scan's ends and the edges of the oracle's first two chunks of 2,048 pairs
EDGES = [0, 2047, 2048, 22895]
CORRUPTIONS = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 17), st.sampled_from([0, 10, 255])),
    st.tuples(st.just("swap"), st.sampled_from([0, 9]), st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.just("cut"), st.sampled_from([8, 17, 19])),
    st.tuples(st.just("grid")),
    st.tuples(st.just("other"), st.integers(0, 22895)),
)


def corrupt(pairs, index, corruption):
    """Break pair `index` of `pairs` in place: a byte set to a value, two
    bytes of one half swapped, the pair cut to a length (19 repeats its
    first byte), or its companion replaced by its own or another pair's grid."""
    pair = bytearray(pairs[index])
    kind, *args = corruption
    if kind == "byte":
        pair[args[0]] = args[1]
    elif kind == "swap":
        half, i, j = args
        pair[half + i], pair[half + j] = pair[half + j], pair[half + i]
    elif kind == "cut":
        pair = (pair + pair)[: args[0]]
    else:
        pair[9:] = pairs[args[0] if kind == "other" else index][:9]
    pairs[index] = bytes(pair)


class TestCompanionOracle:
    # the clean run is acceptance criterion 5; each case here breaks one input
    @pytest.mark.parametrize(
        "size, wrong, found",
        [
            (2, 1, "of 1 grids has 2 companion pairs"),
            # a multi-grid bucket that gets no pairs
            (1, 2, "of 2 grids has 0 companion pairs"),
            # pairs whose key is missing from multi
            (2, None, "has companion pairs but one grid in the census"),
        ],
        ids=["2-1", "1-2", "2-None"],
    )
    def test_detects_a_wrong_bucket_size(
        self, census_reports, full_scan, grid_unique, size, wrong, found
    ):
        multi = dict(census_reports[R.FULL_DIAGONAL].multi)
        if size == 1:  # a single-grid bucket, absent from multi
            key = signature_key(grid_unique.cells, R.FULL_DIAGONAL)
            assert key not in multi
        else:
            key = next(iter(multi))
        if wrong is None:
            del multi[key]
        else:
            multi[key] = wrong
        assert companion_oracle_mismatches(multi, full_scan) == [f"bucket {key:#x} {found}"]

    @pytest.mark.parametrize(
        "fault",
        [
            "dropped",
            "not-a-permutation",
            "short",
            "other-bucket",
            "equals-grid",
            "repeated",
            "swapped",
        ],
    )
    def test_detects_a_wrong_pair(self, census_reports, full_scan, fault):
        pairs = list(full_scan)
        p, c = tuple(pairs[0][:9]), tuple(pairs[0][9:])
        key = signature_key(p, R.FULL_DIAGONAL)
        if fault == "dropped":
            del pairs[0]
            found = f"bucket {key:#x} of 2 grids has 1 companion pairs"
        elif fault == "not-a-permutation":
            # same diagonal and line sums as p, digits repeated
            pairs[0] = bytes(p + shift_cells(p, 2))
            found = f"pair {p} -> {shift_cells(p, 2)}: not both permutations of 1..9"
        elif fault == "short":
            # 8 cells and no companion: refused before any pair is checked
            pairs.insert(0, bytes(range(1, 9)))
        elif fault == "other-bucket":
            grids = (pair[:9] for pair in pairs)
            q = tuple(next(g for g in grids if signature_key(g, R.FULL_DIAGONAL) != key))
            pairs[0] = bytes(p + q)
            found = f"pair {p} -> {q}: companion outside the grid's bucket"
        elif fault == "equals-grid":
            pairs[0] = bytes(p + p)
            found = f"pair {p} -> {p}: companion equals the grid"
        elif fault == "repeated":  # the reverse pair (c, p) becomes a second (p, c)
            pairs[pairs.index(bytes(c + p))] = pairs[0]
            found = "the (grid, companion) pairs are not strictly increasing"
        else:  # two neighbours trade places: out of order, but no pair repeats
            pairs[0], pairs[1] = pairs[1], pairs[0]
            assert len(set(pairs)) == len(pairs)
            found = "the (grid, companion) pairs are not strictly increasing"
        multi = census_reports[R.FULL_DIAGONAL].multi
        if fault == "short":
            with pytest.raises(ValueError, match="pairs must be a list of 18-byte bytes values"):
                companion_oracle_mismatches(multi, pairs)
        else:
            assert companion_oracle_mismatches(multi, pairs) == [found]

    def test_report_is_capped(self, full_scan):
        # an empty multi puts every one of the 11,448 two-grid buckets wrong
        assert len(companion_oracle_mismatches({}, full_scan)) == 5

    def test_flags_exactly_the_pairs_with_a_non_digit_cell(self, full_scan):
        # each byte value outside 1..9 takes the place of each digit in a
        # diagonal cell of both halves of a pair of its own; the halves keep
        # equal keys, so the permutation test alone must flag those pairs,
        # and no other, uncapped
        pairs = list(full_scan)
        # the pairs with each digit on the diagonal, in turn
        holding = {d: iter([i for i, p in enumerate(pairs) if d in p[:9:4]]) for d in range(1, 10)}
        wanted = set()
        for value in set(range(256)) - set(range(1, 10)):
            for digit in range(1, 10):
                index = next(i for i in holding[digit] if i not in wanted)
                cell = pairs[index][:9:4].index(digit) * 4
                corrupt(pairs, index, ("byte", cell, value))
                corrupt(pairs, index, ("byte", 9 + cell, value))
                wanted.add(index)
        # a half moved by a shift keeps its key; moved by 1 it is mostly no
        # permutation, so again the permutation test alone must flag it
        for half in (0, 9):
            for index in range(len(pairs)):
                moved = shift_cells(pairs[index][half : half + 9], 1)
                if index not in wanted and sorted(moved) != list(range(1, 10)):
                    break
            pairs[index] = pairs[index][:half] + bytes(moved) + pairs[index][half + 9 :]
            wanted.add(index)
        assert internals.flagged_pairs(pairs) == sorted(wanted)
        assert internals.flagged_pairs(full_scan) == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=12)
    @given(
        st.lists(
            st.tuples(st.sampled_from(EDGES) | st.integers(0, 22895), CORRUPTIONS),
            min_size=1,
            max_size=3,
        )
    )
    # a short pair and a long one side by side join to 36 bytes, as two pairs
    # do, and are still refused
    @example([(2046, ("cut", 17)), (2047, ("cut", 19))])
    @example([(0, ("byte", 17, 0)), (22895, ("grid",))])
    def test_agrees_with_the_pair_by_pair_check(self, census_reports, full_scan, faults):
        pairs = list(full_scan)
        for index, corruption in faults:
            corrupt(pairs, index, corruption)
        multi = census_reports[R.FULL_DIAGONAL].multi
        if set(map(len, pairs)) != {18}:  # a cut that no later fault mended
            with pytest.raises(ValueError, match="pairs must be a list of 18-byte bytes values"):
                companion_oracle_mismatches(multi, pairs)
            return
        wanted = list(islice(internals.reference_oracle(multi, pairs), 5))
        assert companion_oracle_mismatches(multi, pairs) == wanted

    @pytest.mark.parametrize("count", [0, 1])
    def test_a_scan_of_no_pair_or_one_agrees_with_the_pair_by_pair_check(
        self, census_reports, full_scan, count
    ):
        pairs = full_scan[:count]
        multi = census_reports[R.FULL_DIAGONAL].multi
        wanted = list(islice(internals.reference_oracle(multi, pairs), 5))
        assert companion_oracle_mismatches(multi, pairs) == wanted


class TestVerifyMemory:
    # tracemalloc in a fresh process, started after the imports; with four
    # regimes' group counts alive at once and pairs held as tuples, the
    # three figures read 7.0, 6.7 and 10.3 MB
    @pytest.mark.parametrize(
        "code, limit_mb",
        [
            # the peak while census_all() sweeps
            ("tracemalloc.start()\ncensus_all()\n", 4.5),
            # the peak of a weaker regime's sweep, as `verify --regime` runs it
            ("tracemalloc.start()\ncensus(R.TOP_LEFT)\n", 4),
            ("tracemalloc.start()\ncensus(R.FIRST_TWO_DIAGONAL)\n", 4),
            # what the scan holds once built
            ("tracemalloc.start()\nscan = companion_scan()\ntracemalloc.reset_peak()\n", 3),
            # the oracle's peak, the scan it reads included
            (
                "multi = census(R.FULL_DIAGONAL).multi\n"
                "tracemalloc.start()\n"
                "scan = companion_scan()\n"
                "tracemalloc.reset_peak()\n"
                "assert companion_oracle_mismatches(multi, scan) == []\n",
                5,
            ),
        ],
        ids=[
            "census_all",
            "census_top_left",
            "census_first_two_diagonal",
            "companion_scan",
            "companion_oracle",
        ],
    )
    def test_verify_route_memory(self, code, limit_mb):
        code = (
            "import tracemalloc\n"
            "from fubuki.census import census, census_all, companion_oracle_mismatches, "
            "companion_scan\n"
            "from fubuki.core import PrescriptionRegime as R\n"
            f"{code}"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) <= limit_mb * 10**6


def bucket_solver_mismatches(regime: R, multi: dict[int, int], sample: int) -> list[str]:
    """Seeded-random grids whose signature bucket size in `multi`, the
    regime's multi-grid buckets, differs from the solver's count of their
    clue set's solutions."""
    rng = SplitMix64(42)
    values = list(range(1, 10))
    mismatches = []
    for _ in range(sample):
        rng.shuffle(values)
        cells = tuple(values)
        bucket = multi.get(signature_key(cells, regime), 1)
        solved = count_solutions(ClueSet.from_grid(Grid(cells), regime))
        if bucket != solved:
            mismatches.append(f"grid {cells}: bucket size {bucket}, solver found {solved}")
    return mismatches


class TestCrossCheck:
    """The brute-force census against the solver it never imports."""

    def test_full_diagonal_sample(self, census_reports):
        multi = census_reports[R.FULL_DIAGONAL].multi
        assert bucket_solver_mismatches(R.FULL_DIAGONAL, multi, 1000) == []

    # the weaker regimes' buckets as the generator reads them
    def test_first_two_diagonal_sample(self, group_buckets):
        multi = group_buckets[R.FIRST_TWO_DIAGONAL]
        assert bucket_solver_mismatches(R.FIRST_TWO_DIAGONAL, multi, 1000) == []

    def test_top_left_sample(self, group_buckets):
        assert bucket_solver_mismatches(R.TOP_LEFT, group_buckets[R.TOP_LEFT], 1000) == []

    def test_none_sample(self, group_buckets):
        assert bucket_solver_mismatches(R.NONE, group_buckets[R.NONE], 100) == []
