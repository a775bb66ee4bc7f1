import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from fubuki import ClueSet, Grid, PrescriptionRegime, census, companion_scan
from fubuki.core import MAX_LINE_SUM, MIN_LINE_SUM
import internals

# Hypothesis caches the constants it finds in local sources under its home
# directory, ./.hypothesis by default, even with no example database
_hypothesis_home = tempfile.TemporaryDirectory()


def pytest_configure(config):
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _hypothesis_home.cleanup()


@pytest.fixture
def grid_two_a() -> Grid:
    """First solution of the two-solution showcase puzzle."""
    return Grid.from_rows([(1, 4, 5), (7, 2, 6), (8, 9, 3)])


@pytest.fixture
def grid_two_b() -> Grid:
    """Second solution of the same puzzle: the first shifted by 1."""
    return Grid.from_rows([(1, 5, 4), (6, 2, 7), (9, 8, 3)])


@pytest.fixture
def grid_unique() -> Grid:
    """Sole solution of the unique-solution showcase puzzle."""
    return Grid.from_rows([(1, 4, 6), (5, 2, 7), (8, 9, 3)])


@pytest.fixture
def clue_two(grid_two_a) -> ClueSet:
    return ClueSet.from_grid(grid_two_a, PrescriptionRegime.FULL_DIAGONAL)


@pytest.fixture
def clue_unique(grid_unique) -> ClueSet:
    return ClueSet.from_grid(grid_unique, PrescriptionRegime.FULL_DIAGONAL)


@pytest.fixture(scope="session")
def census_reports():
    """One sweep per regime, shared by the session. As in census_all, only
    the full diagonal's report keeps its multi-grid buckets; the weaker
    regimes' are in `group_buckets`."""
    return {regime: census(regime) for regime in PrescriptionRegime}


@pytest.fixture(scope="session")
def group_buckets():
    """Each weaker regime's multi-grid buckets, whose keys the generator
    holds as bitmasks: the union of `internals.group_multi_buckets(regime,
    r1)` over every first row sum."""
    return {
        regime: {
            key: n
            for r1 in range(MIN_LINE_SUM, MAX_LINE_SUM + 1)
            for key, n in internals.group_multi_buckets(regime, r1).items()
        }
        for regime in PrescriptionRegime
        if regime is not PrescriptionRegime.FULL_DIAGONAL
    }


@pytest.fixture(scope="session")
def full_scan():
    """One shared companion scan of all grids."""
    return companion_scan()
