"""The public API is what the CLI and the paper's results need, and the
brute-force census stays independent of the solver it is checked against."""

import ast
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import fubuki

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fubuki").glob("*.py"))

PUBLIC_API = [
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


def test_all_is_pinned():
    assert sorted(fubuki.__all__) == PUBLIC_API


def test_star_import_binds_exactly_the_public_names():
    # raises AttributeError if a listed name does not resolve
    namespace: dict = {}
    exec("from fubuki import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_API


def imported_modules(path: Path):
    """Every module, or module attribute, that a fubuki source file imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["fubuki" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_census_imports_neither_solver_nor_rng():
    offenders = [
        name
        for name in imported_modules(ROOT / "src" / "fubuki" / "census.py")
        if name.split(".")[:2] in (["fubuki", "solver"], ["fubuki", "rng"])
    ]
    assert offenders == []


def test_no_module_imports_a_process_or_thread_pool():
    # the sweep runs in the calling process; importing concurrent.futures
    # would add its import time to every command
    offenders = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(path)
        if name.split(".")[0] in ("concurrent", "multiprocessing")
    ]
    assert offenders == []


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, and each decorated
    # class generates its methods at import: the bulk of every command's start
    offenders = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(path)
        if name.split(".")[0] == "dataclasses"
    ]
    assert offenders == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter, a bound on import time that timing noise cannot
    # fail; the standard library imports neither when it starts
    code = "import sys, fubuki.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout == "[]\n"


def test_no_module_imports_a_name_it_never_reads():
    # the project runs no linter; `from __future__` imports change the compiler,
    # and __init__.py imports to re-export
    unused = []
    for path in [*SOURCES, *sorted((ROOT / "tests").glob("*.py"))]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.parent.name}/{path.name}:{node.lineno}: {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []


# public methods and properties that no code in src/ reads, on purpose: the
# paper's statistics and the grid-level clue check, read by library users and
# tests (the solver checks bare cells), and argparse's hook. A method counts as read only where it is
# an attribute, so a bare name such as a parameter does not
UNREAD_METHODS = [
    "census.py: CensusReport.max_solutions",
    "census.py: CensusReport.single_solution_puzzles",
    "cli.py: _Parser.error",
    "core.py: ClueSet.satisfied_by",
    "theory.py: DiagonalClass.max_solutions",
]


def test_every_public_name_is_exported_or_read():
    # a public top-level name that is neither exported nor read anywhere in
    # src/ is dead code, and so is a public method or property of a class in
    # src/ that is read nowhere there as an attribute and not listed above
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    read = names | attributes
    dead = []
    unread_methods = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            dead += [
                f"{name}: {d}"
                for d in defined
                if not d.startswith("_") and d not in fubuki.__all__ and d not in read
            ]
            if isinstance(node, ast.ClassDef):
                unread_methods += [
                    f"{name}: {node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and method.name not in attributes
                ]
    assert dead == []
    assert sorted(unread_methods) == UNREAD_METHODS


# the functions in src/ memoised by functools.cache or lru_cache, each a
# table built on first use; a new memo is added here on purpose
MEMOS = [
    "generate._row_keys",
    "solver._view",
    "theory.shift_match_table",
]


def test_memos_are_pinned():
    memos = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = getattr(decorator, "id", getattr(decorator, "attr", None))
                if name in ("cache", "lru_cache"):
                    memos.append(f"{path.stem}.{node.name}")
    assert sorted(memos) == MEMOS


# a name with one leading underscore
PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def tokens(path: Path) -> list[tokenize.TokenInfo]:
    with path.open("rb") as f:
        return list(tokenize.tokenize(f.readline))


def test_tests_name_no_private_fubuki_name():
    # tests reach fubuki's internals through tests/internals.py alone, so a
    # refactor edits that file and not each test. Names are matched in code,
    # strings (monkeypatched names, code run in a fresh process) and
    # comments; the entries of MEMOS and UNREAD_METHODS pin private names on purpose
    private = {t.string for path in SOURCES for t in tokens(path) if PRIVATE.fullmatch(t.string)}
    pins = {f'"{pin}"' for pin in MEMOS + UNREAD_METHODS}
    offenders = [
        f"{path.name}:{t.start[0]}: {name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        if path.name != "internals.py"
        for t in tokens(path)
        if t.string not in pins
        for name in PRIVATE.findall(t.string)
        if name in private
    ]
    assert private and offenders == []
