"""Domain types for the Fubuki puzzle: grids, clue sets, prescription regimes.

A Fubuki grid is a 3x3 arrangement of the digits 1..9, each used once, and a
puzzle prescribes some cells plus the three row sums and three column sums.
All types here are immutable values that pickle and copy to equal values,
so they can be shared freely between threads and processes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

MIN_LINE_SUM = 6  # 1 + 2 + 3
MAX_LINE_SUM = 24  # 7 + 8 + 9

# Flat row-major indices of the main diagonal, in reading order.
DIAGONAL_FLAT = (0, 4, 8)


class PuzzleFormatError(ValueError):
    """A puzzle or grid document is malformed; the message names the field."""


class PrescriptionRegime(Enum):
    """Which diagonal cells a puzzle reveals in advance."""

    FULL_DIAGONAL = "full_diagonal"
    FIRST_TWO_DIAGONAL = "first_two_diagonal"
    TOP_LEFT = "top_left"
    NONE = "none"

    # members compare by identity, so hash by identity too: Enum's own
    # __hash__ runs in Python, once per regime-keyed lookup such as the
    # generator's one signature_key call per rejection draw
    __hash__ = object.__hash__

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """Prescribed (row, col) positions, 1-based."""
        n = _REGIME_CELL_COUNT[self]
        return tuple((i, i) for i in range(1, n + 1))

    @property
    def flat_cells(self) -> tuple[int, ...]:
        return DIAGONAL_FLAT[: _REGIME_CELL_COUNT[self]]

    @classmethod
    def parse(cls, text: str) -> "PrescriptionRegime":
        """Accepts the canonical name with either '-' or '_' separators.

        Raises ValueError for anything else, a value that is not a str included.
        """
        _check_type(text, str, "regime")
        try:
            return cls(text.strip().lower().replace("-", "_"))
        except ValueError:
            names = ", ".join(r.value.replace("_", "-") for r in cls)
            raise ValueError(f"unknown regime {text!r}; expected one of: {names}") from None


_REGIME_CELL_COUNT = {
    PrescriptionRegime.FULL_DIAGONAL: 3,
    PrescriptionRegime.FIRST_TWO_DIAGONAL: 2,
    PrescriptionRegime.TOP_LEFT: 1,
    PrescriptionRegime.NONE: 0,
}


# The argument contract (see README's Library section): a bad argument raises
# `_bad`'s ValueError; hot paths test inline and call `_bad` only to raise.
# The message cuts the rejected value's repr after 200 characters.
def _bad(name: str, domain: str, value: object) -> ValueError:
    shown = repr(value)
    if len(shown) > 200:
        shown = shown[:200] + "..."
    return ValueError(f"{name} must be {domain}, got {shown}")


def _check_type(value: object, cls: type, name: str) -> None:
    if not isinstance(value, cls):
        raise _bad(name, f"a {cls.__name__}", value)


def _is_int(value: object) -> bool:
    """An int that is not a bool: the integer test the validators share."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_cell_value(v: object, what: str) -> None:
    # spelled out, not `_is_int`: every Grid construction runs this per cell
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= 9:
        raise _bad(what, "an integer in 1..9", v)


class _Value:
    """A frozen value over the fields its class names in `__slots__`: equal
    and hashed by their tuple, shown as `Name(field=value, ...)`, pickled and
    copied by calling the class on them, and never assigned after `__init__`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return (type(self), self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Grid(_Value):
    """A completely filled board: the digits 1..9 in row-major order.

    Construction rejects any cell multiset other than exactly {1, ..., 9}.
    Ordering is lexicographic over the row-major cells, which is the
    deterministic order the solver emits; a Grid orders only against a Grid.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: tuple[int, ...]) -> None:
        object.__setattr__(self, "cells", cells)
        self.__post_init__()

    def __lt__(self, other: object) -> bool:
        return self.cells < other.cells if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other: object) -> bool:
        return self.cells <= other.cells if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other: object) -> bool:
        return self.cells > other.cells if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other: object) -> bool:
        return self.cells >= other.cells if other.__class__ is self.__class__ else NotImplemented

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "cells", tuple(self.cells))
        except TypeError:
            raise _bad("cells", "9 integers", self.cells) from None
        if len(self.cells) != 9:
            raise ValueError(f"a grid needs exactly 9 cells, got {self.cells!r}")
        mask = 0
        for v in self.cells:
            _check_cell_value(v, "cell")
            bit = 1 << v
            if mask & bit:
                raise ValueError(f"duplicate cell value {v}")
            mask |= bit

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Grid":
        try:
            split = [tuple(row) for row in rows]
        except TypeError:
            split = []
        if len(split) != 3 or any(len(row) != 3 for row in split):
            raise _bad("rows", "3 rows of 3 integers", rows)
        return cls(split[0] + split[1] + split[2])

    @property
    def rows(self) -> tuple[tuple[int, int, int], ...]:
        c = self.cells
        return (c[0:3], c[3:6], c[6:9])

    def row_sums(self) -> tuple[int, int, int]:
        c = self.cells
        return (c[0] + c[1] + c[2], c[3] + c[4] + c[5], c[6] + c[7] + c[8])

    def col_sums(self) -> tuple[int, int, int]:
        c = self.cells
        return (c[0] + c[3] + c[6], c[1] + c[4] + c[7], c[2] + c[5] + c[8])

    def to_dict(self) -> dict:
        return {"cells": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, data: object) -> "Grid":
        if not isinstance(data, dict) or "cells" not in data:
            raise PuzzleFormatError("grid document must be an object with a 'cells' field")
        rows = data["cells"]
        if not isinstance(rows, list) or len(rows) != 3 or any(
            not isinstance(r, list) or len(r) != 3 for r in rows
        ):
            raise PuzzleFormatError("'cells' must be a 3x3 array of integers")
        try:
            return cls.from_rows(rows)
        except ValueError as exc:
            raise PuzzleFormatError(f"'cells': {exc}") from None


def _grid_of_permutation(cells: tuple[int, ...]) -> Grid:
    """A Grid holding `cells` as given, built with `object.__new__` and the
    slot set directly, so neither `__init__` nor `__post_init__` runs and
    nothing is checked or copied.

    Precondition: `cells` is a tuple of exact ints already proved to be a
    permutation of 1..9. The solver calls this for its own output, which it
    checks first; every other input goes through `Grid(...)`.
    """
    grid = object.__new__(Grid)
    object.__setattr__(grid, "cells", cells)
    return grid


class ClueSet(_Value):
    """A puzzle: prescribed cells plus row and column sums.

    `prescribed` holds (row, col, value) triples with 1-based positions and is
    kept sorted by position. Any cell may be prescribed, not only the
    diagonal; the regimes are named presets over the diagonal. A clue set
    whose sums cannot total 45 is a legal value that simply has no solutions.
    """

    __slots__ = ("prescribed", "row_sums", "col_sums")

    def __init__(
        self,
        prescribed: tuple[tuple[int, int, int], ...],
        row_sums: tuple[int, int, int],
        col_sums: tuple[int, int, int],
    ) -> None:
        for name, sums in (("row_sums", row_sums), ("col_sums", col_sums)):
            try:
                sums = tuple(sums)
            except TypeError:
                pass  # not iterable; fails the length check below
            if not isinstance(sums, tuple) or len(sums) != 3:
                raise _bad(name, "a tuple of 3 integers", sums)
            for s in sums:
                if not _is_int(s):
                    raise ValueError(f"{name} must contain integers, got {s!r}")
                if not MIN_LINE_SUM <= s <= MAX_LINE_SUM:
                    raise ValueError(
                        f"{name} entry {s} out of range {MIN_LINE_SUM}..{MAX_LINE_SUM}"
                    )
            object.__setattr__(self, name, sums)
        try:
            entries = tuple(tuple(e) for e in prescribed)
        except TypeError:
            raise _bad("prescribed", "(row, col, value) triples", prescribed) from None
        seen_pos: set[tuple[int, int]] = set()
        seen_val = 0
        for entry in entries:
            if len(entry) != 3:
                raise _bad("prescribed entry", "(row, col, value)", entry)
            r, c, v = entry
            for name, x in (("row", r), ("col", c)):
                if not _is_int(x) or not 1 <= x <= 3:
                    raise _bad(f"prescribed {name}", "in 1..3", x)
            _check_cell_value(v, "prescribed value")
            if (r, c) in seen_pos:
                raise ValueError(f"cell ({r}, {c}) prescribed twice")
            seen_pos.add((r, c))
            if seen_val & (1 << v):
                raise ValueError(f"value {v} prescribed twice")
            seen_val |= 1 << v
        object.__setattr__(self, "prescribed", tuple(sorted(entries)))

    @classmethod
    def from_grid(cls, grid: Grid, regime: PrescriptionRegime) -> "ClueSet":
        """The puzzle this grid answers under the given regime.

        Built without running `__init__`, because every invariant it
        checks already holds for a `Grid`: the entries (i, i, cells[4i-4])
        are sorted by position, their values are distinct digits, and every
        sum of three distinct digits lies in MIN_LINE_SUM..MAX_LINE_SUM.
        The generator builds one clue set per emitted puzzle.
        """
        _check_type(grid, Grid, "grid")
        _check_type(regime, PrescriptionRegime, "regime")
        c = grid.cells
        clue = object.__new__(cls)
        object.__setattr__(
            clue,
            "prescribed",
            ((1, 1, c[0]), (2, 2, c[4]), (3, 3, c[8]))[: _REGIME_CELL_COUNT[regime]],
        )
        object.__setattr__(clue, "row_sums", grid.row_sums())
        object.__setattr__(clue, "col_sums", grid.col_sums())
        return clue

    def satisfied_by(self, grid: Grid) -> bool:
        """Whether `grid` has every prescribed cell and every line sum."""
        _check_type(grid, Grid, "grid")
        return self._holds(grid.cells)

    def _holds(self, c: tuple[int, ...]) -> bool:
        """Whether row-major cells `c` have every prescribed cell and every
        line sum: the one statement of the clue condition.

        Reads the cells by flat index: construction already checked that each
        prescribed position is in 1..3. Precondition: `c` holds nine ints.
        The solver runs this on the cells of every grid it returns, before
        it builds the grid.
        """
        for r, col, v in self.prescribed:
            if c[3 * r + col - 4] != v:
                return False
        c1, c2, c3, c4, c5, c6, c7, c8, c9 = c
        return (
            (c1 + c2 + c3, c4 + c5 + c6, c7 + c8 + c9) == self.row_sums
            and (c1 + c4 + c7, c2 + c5 + c8, c3 + c6 + c9) == self.col_sums
        )

    def to_dict(self) -> dict:
        return {
            "prescribed": [
                {"row": r, "col": c, "value": v} for r, c, v in self.prescribed
            ],
            "row_sums": list(self.row_sums),
            "col_sums": list(self.col_sums),
        }

    @classmethod
    def from_dict(cls, data: object) -> "ClueSet":
        if not isinstance(data, dict):
            raise PuzzleFormatError("puzzle document must be a JSON object")
        unknown = set(data) - {"prescribed", "row_sums", "col_sums"}
        if unknown:
            raise PuzzleFormatError(f"unknown field(s): {', '.join(sorted(map(str, unknown)))}")

        def sums(name: str) -> tuple[int, int, int]:
            raw = data.get(name)
            if not isinstance(raw, list) or len(raw) != 3 or not all(map(_is_int, raw)):
                raise PuzzleFormatError(f"'{name}' must be a list of 3 integers")
            return (raw[0], raw[1], raw[2])

        raw_prescribed = data.get("prescribed", [])
        if not isinstance(raw_prescribed, list):
            raise PuzzleFormatError("'prescribed' must be a list of cell objects")
        prescribed = []
        for i, item in enumerate(raw_prescribed):
            if not isinstance(item, dict) or set(item) != {"row", "col", "value"}:
                raise PuzzleFormatError(
                    f"'prescribed[{i}]' must be an object with row, col, value"
                )
            prescribed.append((item["row"], item["col"], item["value"]))
        try:
            return cls(tuple(prescribed), sums("row_sums"), sums("col_sums"))
        except ValueError as exc:
            raise PuzzleFormatError(str(exc)) from None
