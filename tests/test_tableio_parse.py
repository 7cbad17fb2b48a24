"""The table reader's one-conversion path against the line-by-line reader,
the writer against str() per entry, and the bounded file read."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bck import FAMILY_NAMES, chain, direct_product, family, tableio
from bck.algebra import MalformedTableError, _validate_shape
from bck.cli import main


def line_loop(text):
    """The reader as it was before the one-conversion path: ``loads``,
    then the shape check."""
    order, rows = tableio.loads(text)
    return order, _validate_shape(order, rows)


def outcome(read, text):
    try:
        order, table = read(text)
    except (tableio.TableFormatError, MalformedTableError) as exc:
        return type(exc), str(exc)
    assert isinstance(table, np.ndarray) and table.dtype == np.intp
    return order, table.tolist()


def old_dumps(order, table):
    return "\n".join([str(order)] + [" ".join(str(v) for v in row) for row in table]) + "\n"


def spell(order, rows, sep=" ", newline="\n", lead="", trail="", between="", head=None):
    lines = [head if head is not None else str(order)]
    lines += [lead + sep.join(map(str, row)) + trail for row in rows]
    return (newline + between).join(lines) + newline


# Spellings that the line loop reads as the canonical text.
VARIANTS = {
    "canonical": {},
    "tabs": {"sep": "\t"},
    "double spaces": {"sep": "  "},
    "leading spaces": {"lead": "  "},
    "trailing spaces": {"trail": " "},
    "CRLF": {"newline": "\r\n"},
    "comments between rows": {"between": "# a comment\n"},
    "blank lines between rows": {"between": "\n"},
    "padded order": {"head": " {order} "},
    "order with leading zero": {"head": "0{order}"},
}


def variant(name, order, rows):
    kw = dict(VARIANTS[name])
    if "head" in kw:
        kw["head"] = kw["head"].format(order=order)
    return spell(order, rows, **kw)


# Tokens the line loop and numpy's text parser may read differently.
HAZARDS = ["-", "+1", "-1", "01", "00", "١", "1_0", "1.0", "0x1", str(10**23), "9" * 5000,
           "18446744073709551617", "", "1 -", "- 1"]

# (order, rows) with entries in range, drawn by numpy from a seed: hypothesis
# itself is slow to draw a thousand cells
tables = st.tuples(st.integers(1, 40), st.integers(0, 2**32 - 1)).map(
    lambda ns: (ns[0], np.random.default_rng(ns[1]).integers(0, ns[0], (ns[0], ns[0])).tolist())
)


@settings(max_examples=100, deadline=None)
@given(tables, st.sampled_from(sorted(VARIANTS)))
def test_spellings_read_as_the_line_loop_reads_them(table, name):
    order, rows = table
    text = variant(name, order, rows)
    assert outcome(tableio._parse, text) == outcome(line_loop, text) == (order, rows)
    assert tableio.loads(text) == (order, rows)


@settings(max_examples=200, deadline=None)
@given(tables, st.data())
def test_hazards_read_as_the_line_loop_reads_them(table, data):
    order, rows = table
    lines = [[str(order)]] + [list(map(str, row)) for row in rows]
    x = data.draw(st.integers(0, order))
    y = data.draw(st.integers(0, len(lines[x]) - 1))
    lines[x][y] = data.draw(st.sampled_from(HAZARDS + [str(order), str(order + 7), "0" * 6 + "1"]))
    text = "\n".join(" ".join(line) for line in lines) + "\n"
    assert outcome(tableio._parse, text) == outcome(line_loop, text)


@pytest.mark.parametrize("text", [
    "2\n0 0\n1 -\n", "2\n0 0\n- 1\n", "2\n0 0\n+1 0\n", "2\n00 0\n1 000\n", "2\n0 0\n١ 0\n",
    "2\n0 0\n1_0 0\n", f"2\n0 0\n{10**23} 0\n", f"2\n0 0\n{'9' * 5000} 0\n", "2\n0 0\n-1 0\n",
    "2\n0 0\n2 0\n", "2\n0 0\n  \n1 0\n", "2\n0 0\n1 0", "2\n0 0\n1 0\n\n", "1\n\n", "1\n",
    "1\n0 \n", " 1\n0\n", "01\n0\n", "1" * 5000 + "\n0\n", "0\n", "1025\n0\n", "2\n0 0\n1\t0\n",
    "2\r\n0 0\r\n1 0\r\n", "2\n0 0\n1 0 \n", "2\n0 0\n 1 0\n", "2\n0  0\n1 0\n", "3\n0 0 0\n1 0\n2 1 0 0\n",
])
def test_listed_hazards_read_as_the_line_loop_reads_them(text):
    assert outcome(tableio._parse, text) == outcome(line_loop, text)


def test_writer_spelling_takes_one_conversion(monkeypatch):
    def no_line_loop(text):
        raise AssertionError("line loop used")

    monkeypatch.setattr(tableio, "loads", no_line_loop)
    algebra = family("B", 12)
    order, table = tableio._parse(tableio.dumps(12, algebra.table))
    assert order == 12 and (table == algebra.array).all()
    assert tableio._parse("1\n0")[1].tolist() == [[0]]


@pytest.mark.parametrize("text,message", [
    (f"2\n0 0\n{10**23} 0\n", f"entry (1,0) = {10**23} outside [0, 2)"),
    ("3\n0 0 0\n1 0 0\n2 -1 0\n", "entry (2,1) = -1 outside [0, 3)"),
    ("3\n0 0 0\n1 0 0\n2 3 0\n", "entry (2,1) = 3 outside [0, 3)"),
    ("3\n0 0 0\n1 0 0\n2 0003 0\n", "entry (2,1) = 3 outside [0, 3)"),
    ("2\n0 0\n9223372036854775808 0\n", "entry (1,0) = 9223372036854775808 outside [0, 2)"),
])
def test_malformed_entry_is_named_as_written(text, message):
    with pytest.raises(MalformedTableError) as exc:
        tableio._parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("algebra", [chain(3), family("B", 12), direct_product(chain(2), chain(3))],
                         ids=["C3", "B12", "C2xC3"])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_spellings_load_and_verify_alike(tmp_path, capsys, algebra, name):
    rows = [list(r) for r in algebra.table]
    bad = [r[:] for r in rows]
    bad[1][0] = 0  # x*0 = x fails at 1
    path = tmp_path / "t.tbl"
    for table in (rows, bad):
        reports = []
        for text in (tableio.dumps(algebra.order, table), variant(name, algebra.order, table)):
            path.write_bytes(text.encode())
            if table is rows:
                assert (tableio.load_algebra(path).array == algebra.array).all()
            reports.append((main(["verify", str(path), "--format", "json"]), capsys.readouterr()))
        assert reports[0] == reports[1]
        assert reports[0][0] == (0 if table is rows else 1)


def test_file_read_as_text_mode_reads_it(tmp_path):
    path = tmp_path / "t.tbl"
    for data in (b"2\r\n0 0\r1 0\r\n", b"2\n0 0\n1 0\n", b"\xef\xbb\xbf2\n0 0\n1 0\n", b"# \xc3\xa9\n1\n0"):
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh:
            assert tableio.read_text(path) == fh.read()
    path.write_bytes(b"2\n0 0\n1 \xff\n")
    with pytest.raises(UnicodeDecodeError) as text_mode, open(path, encoding="utf-8") as fh:
        fh.read()
    with pytest.raises(UnicodeDecodeError) as bounded:
        tableio.read_text(path)
    assert str(bounded.value) == str(text_mode.value)


# ------------------------------------------------------------------ writer

@pytest.mark.parametrize("table", [
    np.arange(16).reshape(4, 4) % 4,
    np.arange(144, dtype=np.uint8).reshape(12, 12) % 12,
    np.arange(144, dtype=np.int32).reshape(12, 12) % 12,
    [[np.int64(v) for v in row] for row in np.arange(144).reshape(12, 12) % 12],
    np.array([[0, 1023], [1024, 5000]]),
    np.array([[0, -1], [1, 0]]),
    np.array([[0, -1025], [-2048, 0]]),
    np.array([[0, 1], [1, 0]], dtype=bool),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[2**62, 0], [0, 0]]),
    [[0, True], [1, 0]],
    [[0, -1], [1, 0]],
    np.zeros((0, 0), dtype=np.intp),
    np.zeros((2, 0), dtype=np.intp),
    np.array([[5]]),
], ids=["int", "uint8", "int32", "numpy-int rows", "beyond labels", "negative", "below -order", "bool",
        "float", "huge", "Python bool", "Python negative", "empty", "empty rows", "order 1"])
def test_dumps_spells_every_entry_as_str(table):
    assert tableio.dumps(len(table), table) == old_dumps(len(table), table)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from([3, 1024, 1100]))
def test_dumps_array_matches_str_per_entry(n, seed, high):
    table = np.random.default_rng(seed).integers(-high, high, (n, n))
    assert tableio.dumps(n, table) == old_dumps(n, table.tolist())


# -------------------------------------------------------------- round trip

MEMBERS = [(name, n) for name in FAMILY_NAMES for n in range(2 if name == "C" else 3, 129)]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_members_round_trip(tmp_path, name):
    path = tmp_path / "t.tbl"
    for n in (m for fam, m in MEMBERS if fam == name):
        algebra = family(name, n)
        rows = [list(r) for r in algebra.table]
        text = tableio.dumps(algebra.order, algebra.array)
        assert text == old_dumps(algebra.order, algebra.table)
        assert tableio.loads(text) == (algebra.order, rows)
        tableio.dump_algebra(path, algebra)
        order, table = tableio.read_table(path)
        assert order == algebra.order and (table == algebra.array).all()
        if n <= 16 or n in (48, 128):  # the axiom check dominates above
            assert (tableio.load_algebra(path).array == algebra.array).all()


def test_order5_catalog_round_trips(tmp_path, catalog5):
    path = tmp_path / "t.tbl"
    for e in catalog5.entries:
        algebra = e.algebra
        text = tableio.dumps(5, algebra.array)
        assert tableio.loads(text) == (5, [list(r) for r in algebra.table])
        tableio.dump_algebra(path, algebra)
        assert (tableio.load_algebra(path).array == algebra.array).all()


# ----------------------------------------------------------- bounded read

@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_verify_dev_zero_exits_2(capsys):
    assert main(["verify", "/dev/zero"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: table file is larger than {tableio.MAX_FILE_BYTES} bytes\n")


def test_file_size_cap(tmp_path, capsys, monkeypatch):
    text = tableio.dumps(3, chain(3).array)
    path = tmp_path / "t.tbl"
    path.write_text(text)
    monkeypatch.setattr(tableio, "MAX_FILE_BYTES", len(text))
    assert main(["verify", str(path)]) == 0
    path.write_text("#" + text)
    assert main(["props", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: table file is larger than {len(text)} bytes\n"


def test_catalog_index_size_cap(tmp_path, capsys, monkeypatch):
    assert main(["enumerate", "--order", "3", "--out", str(tmp_path / "cat")]) == 0
    index = tmp_path / "cat" / "index.json"
    monkeypatch.setattr(tableio, "MAX_FILE_BYTES", index.stat().st_size - 1)
    capsys.readouterr()
    assert main(["spectrum", "--order", "3", "--kind", "cd", "--catalog", str(tmp_path / "cat")]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: catalog index is larger than {index.stat().st_size - 1} bytes\n")
