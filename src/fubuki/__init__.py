"""Fubuki: solve, classify, enumerate, and generate 3x3 sum puzzles."""

from .census import (
    CensusReport,
    ClosedFormCount,
    EXPECTED_PUZZLE_COUNTS,
    TOTAL_GRIDS,
    census,
    census_all,
    closed_form_puzzle_count,
    companion_oracle_mismatches,
    companion_scan,
)
from .core import ClueSet, Grid, PrescriptionRegime, PuzzleFormatError
from .generate import generate_puzzles
from .rng import SplitMix64
from .solver import SolveResult, count_solutions, solve
from .theory import (
    DiagonalClass,
    build_shift_table,
    classify_diagonal,
    companion_solutions,
    shift_table_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CensusReport",
    "ClosedFormCount",
    "ClueSet",
    "DiagonalClass",
    "EXPECTED_PUZZLE_COUNTS",
    "Grid",
    "PrescriptionRegime",
    "PuzzleFormatError",
    "SolveResult",
    "SplitMix64",
    "TOTAL_GRIDS",
    "build_shift_table",
    "census",
    "census_all",
    "classify_diagonal",
    "closed_form_puzzle_count",
    "companion_oracle_mismatches",
    "companion_scan",
    "companion_solutions",
    "count_solutions",
    "generate_puzzles",
    "shift_table_to_csv",
    "solve",
]
