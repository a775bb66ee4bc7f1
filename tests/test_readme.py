"""README's CLI transcripts are what the CLI prints."""

import re
import shlex
from pathlib import Path

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
