"""The table reader's messages, pinned before its parsing changes."""

import pytest

from bck import tableio
from bck.cli import main

MALFORMED = [
    ("empty", "", "empty table file"),
    ("comments only", "# a comment\n\n   # another\n", "empty table file"),
    ("non-integer order", "three\n0 0 0\n", "first line must be the order, got 'three'"),
    ("order 0", "0\n", "order must be positive, got 0"),
    ("order 1025", "1025\n0\n", "order must be at most 1024, got 1025"),
    ("too few rows", "3\n0 0 0\n1 0 0\n", "expected 3 table rows, got 2"),
    ("too many rows", "2\n0 0\n1 0\n1 1\n", "expected 2 table rows, got 3"),
    ("non-integer entry", "2\n0 0\n1 x\n", "row 1: non-integer entry in '1 x'"),
    ("short row", "3\n0 0 0\n1 0\n2 1 0\n", "row 1 has 2 entries, expected 3"),
    ("long row", "2\n0 0 0\n1 0\n", "row 0 has 3 entries, expected 2"),
]


@pytest.mark.parametrize("text,message", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_loads_error_messages(text, message):
    with pytest.raises(tableio.TableFormatError) as exc:
        tableio.loads(text)
    assert str(exc.value) == message


def test_loads_skips_comments_and_blank_lines():
    text = "# order\n2\n\n0 0\n  # row 1 follows\n1 0\n"
    assert tableio.loads(text) == (2, [[0, 0], [1, 0]])


def test_verify_reports_table_format_error(capsys, tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n0 0\n1 x\n")
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: row 1: non-integer entry in '1 x'\n")
