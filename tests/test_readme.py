"""README's CLI transcripts are what the CLI prints, and its headline
numbers are what the library computes."""

import re
import shlex
from pathlib import Path

from fubuki import EXPECTED_PUZZLE_COUNTS, PrescriptionRegime, closed_form_puzzle_count
from fubuki.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# `$ fubuki ARGS`, perhaps piped through `head -N`, perhaps with a comment
COMMAND = re.compile(r"\$ fubuki (?P<args>[^|#]*?)(?: \| head -(?P<head>\d+))?\s*(?:#.*)?")


def transcripts() -> list[tuple[str, int | None, list[str]]]:
    """Each `$ fubuki` command of README, its `head` count and the lines shown below it."""
    found: list[tuple[str, int | None, list[str]]] = []
    shown = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if command := COMMAND.fullmatch(line):
            shown = []
            head = command["head"]
            found.append((command["args"], int(head) if head else None, shown))
        elif shown is not None and line and not line.startswith(("#", "```")):
            shown.append(line)
        else:
            shown = None
    return found


def test_transcripts_are_what_the_cli_prints(capsys):
    checked = []
    for args, head, shown in transcripts():
        # a command that shows no output, or reads a file README does not hold
        if not shown or args.startswith("solve "):
            continue
        assert main(shlex.split(args)) == 0, args
        assert capsys.readouterr().out.splitlines()[:head] == shown, args
        checked.append(args)
    assert checked == [
        "classify 1 3 4", "classify 1 2 3", "table", "verify --regime full-diagonal",
    ]


# README's headline table: each row's label, then its solvable and unique counts
TABLE_ROW = re.compile(r"\| (?P<label>[a-z -]+?) +\| (?P<solvable>[\d,]+) +\| (?P<unique>[\d,]+) +\|")
TABLE_LABELS = {
    "full diagonal": PrescriptionRegime.FULL_DIAGONAL,
    "first two of diagonal": PrescriptionRegime.FIRST_TWO_DIAGONAL,
    "top-left only": PrescriptionRegime.TOP_LEFT,
    "none": PrescriptionRegime.NONE,
}
# the closed form's three addends and their sum, as README writes them
CLOSED_FORM = re.compile(r"= ([\d,]+) \+ ([\d,]+) \+ ([\d,]+) = ([\d,]+)")


def number(text: str) -> int:
    return int(text.replace(",", ""))


def test_headline_numbers_are_what_the_library_computes(census_reports):
    text = README.read_text(encoding="utf-8")
    rows = {m["label"]: m for m in TABLE_ROW.finditer(text)}
    assert rows.keys() == TABLE_LABELS.keys()
    for label, regime in TABLE_LABELS.items():
        assert number(rows[label]["solvable"]) == EXPECTED_PUZZLE_COUNTS[regime], label
        assert number(rows[label]["unique"]) == census_reports[regime].sizes[1], label
    closed = CLOSED_FORM.findall(" ".join(text.split()))
    cf = closed_form_puzzle_count()
    assert [tuple(map(number, found)) for found in closed] == [(*cf.addends, cf.total)]
