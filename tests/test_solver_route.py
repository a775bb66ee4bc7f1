"""The solver as a second route to every regime's counts.

Every (row sums, column sums) pair with each line in 6..24 and each triple
totalling 45 is solved with no prescribed cell. Each regime's puzzle is such
a pair plus the regime's prescribed cells, so grouping a pair's solutions by
those cells gives each of its puzzles and the number of solutions each has.
The route, `solver_route`, reads only `fubuki.core` and `fubuki.solver`; the
tests compare it with the signature census, and
`test_route_reads_no_census` keeps the census out of the route.
"""

import ast
from collections import Counter
from itertools import product
from operator import itemgetter
from pathlib import Path

import pytest

from fubuki import census_all
from fubuki.census import signature_key
from fubuki.core import MAX_LINE_SUM, MIN_LINE_SUM, ClueSet, PrescriptionRegime
from fubuki.solver import solve

R = PrescriptionRegime
ROUTE_FUNCTIONS = ("line_sum_triples", "solver_route")
# the modules the route may read names from: fubuki.census is not one
ROUTE_IMPORTS = ("collections", "itertools", "operator", "fubuki.core", "fubuki.solver")


def line_sum_triples() -> list[tuple[int, int, int]]:
    """Every triple of line sums in 6..24 that totals 45."""
    sums = range(MIN_LINE_SUM, MAX_LINE_SUM + 1)
    return [t for t in product(sums, repeat=3) if sum(t) == 45]


def solver_route() -> tuple[int, dict, dict]:
    """Solve every pair of line-sum triples with no prescribed cell.

    Returns the number of solutions found, each regime's histogram of
    puzzles by number of solutions, and each regime's puzzles with two or
    more solutions, each as one of its solutions and their number.
    """
    found = 0
    sizes: dict = {regime: Counter() for regime in PrescriptionRegime}
    multi: dict = {regime: [] for regime in PrescriptionRegime}
    triples = line_sum_triples()
    for rows in triples:
        for cols in triples:
            solutions = [g.cells for g in solve(ClueSet((), rows, cols)).solutions]
            found += len(solutions)
            for regime in PrescriptionRegime:
                if regime.flat_cells:
                    groups: dict = {}
                    for cells in solutions:
                        groups.setdefault(itemgetter(*regime.flat_cells)(cells), []).append(cells)
                else:
                    groups = {(): solutions} if solutions else {}
                for group in groups.values():
                    sizes[regime][len(group)] += 1
                    if len(group) > 1:
                        multi[regime].append((group[0], len(group)))
    return found, sizes, multi


@pytest.fixture(scope="module")
def route():
    return solver_route()


def test_route_reads_no_census():
    # every module-level name the route's functions read is one of them or
    # is imported from ROUTE_IMPORTS, so no census name is among them
    tree = ast.parse(Path(__file__).read_text())
    allowed = set(ROUTE_FUNCTIONS)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in ROUTE_IMPORTS:
            allowed.update(alias.asname or alias.name for alias in node.names)
    route = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in ROUTE_FUNCTIONS]
    assert len(route) == len(ROUTE_FUNCTIONS)
    read = {n.id for f in route for n in ast.walk(f) if isinstance(n, ast.Name)}
    assert read & set(globals()) <= allowed


def test_every_grid_is_found_once(route):
    found, sizes, _ = route
    assert len(line_sum_triples()) ** 2 == 73441
    assert found == 362880
    for regime in R:
        assert sum(k * n for k, n in sizes[regime].items()) == 362880


def test_histograms_match_the_census(route):
    _, sizes, _ = route
    reports = census_all()
    for regime in R:
        assert dict(sizes[regime]) == reports[regime].sizes, regime.value


def test_every_multi_solution_puzzle_is_a_census_bucket(route, census_reports, group_buckets):
    _, _, multi = route
    for regime in R:
        if regime is R.FULL_DIAGONAL:
            buckets = census_reports[regime].multi
        else:
            buckets = group_buckets[regime]
        mismatches = [
            (cells, n) for cells, n in multi[regime] if buckets.get(signature_key(cells, regime)) != n
        ]
        assert mismatches == [], regime.value
        # the route's puzzles are distinct, so this makes the two sets equal
        assert len(multi[regime]) == len(buckets), regime.value
