"""The size gate: `src/choiceless/` does not grow unnoticed.

`SRC_LINES` is the line count of `src/choiceless/*.py` as `wc -l` gives
it.  A change that shrinks the package lowers the number to the new
count.  A change that must grow the package raises it, and states the
lines and the reason in CHANGES.md.
"""

import pathlib

SRC_LINES = 5141

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "choiceless"


def test_src_lines_match_the_committed_count():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINES, (
        f"src/choiceless/*.py has {lines} lines, past the committed {SRC_LINES}: "
        "raise SRC_LINES only with a CHANGES.md line that gives the reason"
    )
    assert lines == SRC_LINES, f"src/choiceless/*.py shrank to {lines} lines: lower SRC_LINES to {lines}"
