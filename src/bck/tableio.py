"""Plain-text Cayley table format.

First line: the order n. Then n lines of n space-separated integers;
line x, column y holds x*y. Lines starting with '#' are comments and are
ignored on read; blank lines are tolerated. The writer emits the format
byte-exactly with no comments.

A file is read whole, but at most :data:`MAX_FILE_BYTES` of it; a larger
one is a :class:`TableFormatError`. Text in the writer's own spelling
(the order, then rows of ASCII digits separated by single spaces, one
"\\n" after each line but perhaps the last, every entry in range) is
turned into the table array by one numpy conversion. Every other spelling
(comments, blank lines, tabs, CRLF, signs, other digits, entries out of
range, any error) goes through the line-by-line reader :func:`loads`, so
it parses, or fails with the same message, exactly as before.
"""

from __future__ import annotations

import numpy as np

from .algebra import BckAlgebra, _checked, _validate_shape


# Largest order a table file, `family --n`, `gap --max-n` or `--order` may
# ask for; a table of this order has about a million cells.
MAX_ORDER = 1024

# Most assignments `degree --eq` (n^k for k variables on order n) or
# `gap --eq` (the sum of n^k over chains 2..max_n) may ask for. At the
# 56-137 million assignments a second measured on a 2-vCPU VM, 2^32 takes
# 30-80 s; variables are free, so a 10-variable equation on C40 would ask
# for 40^10, about 10^16. It sits far above the benchmark's largest count,
# 60^3 = 216,000, and a 3-variable equation at order 128, 2,097,152.
MAX_ASSIGNMENTS = 2**32

# Most bytes a table file or catalog index may hold: a written table of
# order 1024 takes about 5.2 MB, the rest is room for comments.
MAX_FILE_BYTES = 64 << 20

# The writer's labels, str(v) at index v; a table with an entry outside
# them is written with str() per entry.
_LABELS = np.array([str(v) for v in range(MAX_ORDER)], dtype=object)


class TableFormatError(ValueError):
    pass


def loads(text: str) -> tuple[int, list[list[int]]]:
    """Parse table text into (order, rows). Does not check axioms."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise TableFormatError("empty table file")
    try:
        order = int(lines[0].strip())
    except ValueError:
        raise TableFormatError(f"first line must be the order, got {lines[0]!r}") from None
    if order < 1:
        raise TableFormatError(f"order must be positive, got {order}")
    if order > MAX_ORDER:
        raise TableFormatError(f"order must be at most {MAX_ORDER}, got {order}")
    if len(lines) - 1 != order:
        raise TableFormatError(f"expected {order} table rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise TableFormatError(f"row {i}: non-integer entry in {ln!r}") from None
        if len(row) != order:
            raise TableFormatError(f"row {i} has {len(row)} entries, expected {order}")
        rows.append(row)
    return order, rows


def _parse(text: str) -> tuple[int, np.ndarray]:
    """Table text as (order, table array), the array past the shape check;
    raises what :func:`loads` and then the shape check raise."""
    head, _, body = text.partition("\n")
    if len(head) <= len(str(MAX_ORDER)) and head.isascii() and head.isdigit() and body.isascii():
        order = int(head)
        data = body.encode()
        if data.endswith(b"\n"):
            data = data[:-1]
        rows = data.split(b"\n")
        # only digits, and single spaces between them: each row's spaces
        # then count its entries, and fromstring reads each run of digits
        # as int() does, a value past intp as its largest value
        if (
            1 <= order <= MAX_ORDER
            and len(rows) == order
            and not data.translate(None, b"0123456789 \n")
            and b"  " not in data
            and b" \n" not in data
            and b"\n " not in data
            and not data.startswith(b" ")
            and not data.endswith(b" ")
            and all(row.count(b" ") == order - 1 for row in rows)
        ):
            t = np.fromstring(data, dtype=np.intp, sep=" ")
            if t.size == order * order and t.max() < order:
                return order, t.reshape(order, order)
    order, rows = loads(text)
    return order, _validate_shape(order, rows)


def dumps(order: int, table) -> str:
    """The table text of ``table``'s rows. An integer array (such as
    ``BckAlgebra.array``) is written through a table of labels, any other
    table with str() per entry; both spell every entry as str() does."""
    if (
        isinstance(table, np.ndarray)
        and table.ndim == 2
        and table.dtype.kind in "iu"
        and table.size
        and table.min() >= 0
        and table.max() < len(_LABELS)
    ):
        rows = [" ".join(row) for row in _LABELS[table].tolist()]
    else:
        rows = [" ".join(str(v) for v in row) for row in table]
    return "\n".join([str(order)] + rows) + "\n"


def read_text(path, what: str = "table file") -> str:
    """The text of the file at ``path`` as text mode reads it (UTF-8,
    universal newlines), reading no more than MAX_FILE_BYTES + 64 KiB."""
    parts, size = [], 0
    with open(path, "rb") as fh:
        # in small reads: one read of the whole cap would allocate all of it
        while part := fh.read(1 << 16):
            size += len(part)
            if size > MAX_FILE_BYTES:
                raise TableFormatError(f"{what} is larger than {MAX_FILE_BYTES} bytes")
            parts.append(part)
    text = b"".join(parts).decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_table(path) -> tuple[int, np.ndarray]:
    """A table file's order and table array, past the shape check but not
    the axiom check."""
    return _parse(read_text(path))


def load_algebra(path) -> BckAlgebra:
    """Read and validate a table file; axiom failures propagate."""
    return _checked(read_table(path)[1])


def dump_algebra(path, algebra: BckAlgebra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(algebra.order, algebra.array))
