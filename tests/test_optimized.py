"""The package's checks are real raises, so they survive `python -O`."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_have_no_assert():
    sources = sorted((ROOT / "src" / "fubuki").glob("*.py"))
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert sources
    assert offenders == []


def test_unit_suites_pass_under_optimize():
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q",
         "tests/test_theory.py", "tests/test_core.py", "tests/test_solver.py",
         "tests/test_generate.py", "tests/test_contract.py",
         "tests/test_properties.py::test_cell_level_clue_check_matches_its_definition",
         "tests/test_census.py::TestSweepMechanics::test_key_rejects_a_non_regime",
         "tests/test_census.py::TestCompanionOracle",
         "tests/test_census.py::TestGroupMultiBuckets"
         "::test_rejects_a_non_line_sum_before_counting"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
