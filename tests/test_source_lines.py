"""Source-tree rule: line counts are comparable only at one line width."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "catrep"
MAX_LINE = 100


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines
