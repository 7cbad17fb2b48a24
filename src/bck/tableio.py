"""Plain-text Cayley table format.

First line: the order n. Then n lines of n space-separated integers;
line x, column y holds x*y. Lines starting with '#' are comments and are
ignored on read; blank lines are tolerated. The writer emits the format
byte-exactly with no comments.
"""

from __future__ import annotations

from .algebra import BckAlgebra, from_table


# Largest order a table file, `family --n`, `gap --max-n` or `--order` may
# ask for; a table of this order has about a million cells.
MAX_ORDER = 1024


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


def dumps(order: int, table) -> str:
    return "\n".join([str(order)] + [" ".join(str(v) for v in row) for row in table]) + "\n"


def load_algebra(path) -> BckAlgebra:
    """Read and validate a table file; axiom failures propagate."""
    with open(path, encoding="utf-8") as fh:
        order, rows = loads(fh.read())
    return from_table(order, rows)


def dump_algebra(path, algebra: BckAlgebra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(algebra.order, algebra.table))
