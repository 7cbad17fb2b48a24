"""Finite BCK-algebras given by Cayley tables.

A BCK-algebra is an algebra <A; *, 0> satisfying, for all x, y, z:

    BCK1  ((x*y)*(x*z))*(z*y) = 0
    BCK2  (x*(x*y))*y = 0
    BCK3  x*x = 0
    BCK4  0*x = 0
    BCK5  x*y = 0 and y*x = 0 imply x = y

Carrier elements are the integers 0..n-1; index 0 is always the constant 0.
The derived partial order is x <= y iff x*y = 0, and x*0 = x is a theorem
(checked here as its own diagnostic class, X0).

Each algebra holds its table as one read-only intp array, made once where
the table enters (the shape check, or a constructor); every layer reads it.
The kernels read (k, n, n) stacks, a single table as the stack of one. A
large table is checked one pass per axiom class: BCK1 by its own blocked
kernel, BCK2-BCK4 and X0 as equations by the term evaluator that counts
degrees, and BCK5 as a mask, both on the gather kernel :func:`grid_masks`.
The BCK1 kernel skips the triples with x*y = 0 of a table whose row 0 is
zero: there ((x*y)*(x*z))*(z*y) = 0*(z*y) = 0, so none of them is a
witness, and it still reports the first one.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
from typing import NamedTuple

import numpy as np

from .terms import UnboundedAlgebraError, _Record, holds, parse

Element = int

# Below this order the plain-Python check is faster than the kernels.
_VECTORIZE_MIN_ORDER = 10


class MalformedTableError(ValueError):
    """Table is structurally unusable: wrong shape or entry out of range."""


class BckAxiomError(ValueError):
    """Table is well formed but violates at least one BCK axiom."""

    def __init__(self, report: AxiomReport):
        ids = ", ".join(v[0] for v in report.violations)
        super().__init__(f"table is not a BCK-algebra (violates {ids})")
        self.report = report


class AxiomReport(NamedTuple):
    """Outcome of an exhaustive axiom check.

    ``violations`` holds one entry per violated axiom class, each with the
    lexicographically first witness tuple. Empty iff the table is a
    BCK-algebra.
    """

    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def witness(self, axiom_id: str) -> tuple[int, ...] | None:
        for vid, wit in self.violations:
            if vid == axiom_id:
                return wit
        return None


def _validate_shape(order, table) -> np.ndarray:
    """``table`` as a new intp array, once it is known to be an order x order
    table of integers (Python or numpy, not bool) in range(order). The
    error names the first bad row or cell in row-major order."""
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise MalformedTableError(f"order must be a positive integer, got {order!r}")
    if len(table) != order:
        raise MalformedTableError(f"expected {order} rows, got {len(table)}")
    for x, row in enumerate(table):
        if len(row) != order:
            raise MalformedTableError(f"row {x} has {len(row)} entries, expected {order}")
    if isinstance(table, np.ndarray) and table.ndim == 2:
        kinds = {table.dtype.type}
    else:
        kinds = set(map(type, itertools.chain.from_iterable(table)))
    if all(issubclass(k, (int, np.integer)) and not issubclass(k, bool) for k in kinds):
        with contextlib.suppress(OverflowError):  # an entry beyond intp is out of range
            t = np.array(table, dtype=np.intp)
            if t.view(np.uintp).max() < order:  # read as unsigned, negative entries are huge
                return t
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not 0 <= v < order:
                raise MalformedTableError(f"entry ({x},{y}) = {v!r} outside [0, {order})")
    return np.array(table, dtype=np.intp)  # an object array of valid entries


def _check_small(n, t) -> list[tuple[str, tuple[int, ...]]]:
    viol = []
    rng = range(n)
    w = next(
        (
            (x, y, z)
            for x, y, z in itertools.product(rng, rng, rng)
            if t[t[t[x][y]][t[x][z]]][t[z][y]] != 0
        ),
        None,
    )
    if w is not None:
        viol.append(("BCK1", w))
    w = next(((x, y) for x, y in itertools.product(rng, rng) if t[t[x][t[x][y]]][y] != 0), None)
    if w is not None:
        viol.append(("BCK2", w))
    w = next(((x,) for x in rng if t[x][x] != 0), None)
    if w is not None:
        viol.append(("BCK3", w))
    w = next(((x,) for x in rng if t[0][x] != 0), None)
    if w is not None:
        viol.append(("BCK4", w))
    w = next(
        ((x, y) for x, y in itertools.product(rng, rng) if x != y and t[x][y] == 0 and t[y][x] == 0),
        None,
    )
    if w is not None:
        viol.append(("BCK5", w))
    w = next(((x,) for x in rng if t[x][0] != x), None)
    if w is not None:
        viol.append(("X0", w))
    return viol


# Most grid cells the gather kernel evaluates at once; it bounds every
# intermediate array, however large n^k is.
_BLOCK_CELLS = 1 << 20
# Most cells per step of the BCK1 kernel (or one row of x): its buffers stay in cache.
_BCK1_BLOCK_CELLS = 1 << 14


def grid_masks(stack: np.ndarray, arity: int, mask, bounds=None):
    """The gather kernel: evaluate ``mask`` over A^arity in row-major blocks
    in each table of a (k, n, n) stack.

    ``mask(tables, *args)`` gets the stack and its ``bounds`` as one
    :class:`_Tables` and one array per variable, broadcast over a block's
    assignments, and returns a boolean array over them, after the table
    axis that :class:`_Tables` gives a stack of more than one. Yields
    ``(start, mask)`` per block, ``start`` being the row-major index of its
    first assignment, so a block's first marked cell is also the
    lexicographically first among those not yet seen. The blocks hold
    about ``_BLOCK_CELLS`` cells over all tables, but at least one per
    table; an empty stack has no blocks.
    """
    if not len(stack):
        return
    n = stack.shape[-1]
    cells = max(1, _BLOCK_CELLS // len(stack))
    if n**arity <= cells:
        yield 0, mask(_Tables(stack, arity, bounds), *_axes(n, arity))
        return
    # the last `inner` variables span A in every block, the one before them
    # a slice of A, and any earlier ones are fixed
    inner = 0
    while n ** (inner + 1) <= cells:
        inner += 1
    step = cells // n**inner
    head, *axes = _axes(n, inner + 1)
    tables = _Tables(stack, inner + 1, bounds)
    for i, prefix in enumerate(itertools.product(range(n), repeat=arity - 1 - inner)):
        for lo in range(0, n, step):
            yield (i * n + lo) * n**inner, mask(tables, *prefix, head[lo : lo + step], *axes)


class _Tables:
    """A (k, n, n) stack read as one algebra by the term evaluator in the
    masks of :func:`grid_masks`: ``op(x, y)`` is x*y, and ``bound`` the
    greatest element (None if not given), in every table at once. A stack
    of one is read as its table, by two-index gathers and with an int
    bound; a larger one puts a table axis before the grid's ``dims`` axes."""

    def __init__(self, stack: np.ndarray, dims: int, bounds=None):
        if len(stack) == 1:
            self.table, self.ks = stack[0], None
            self.bound = None if bounds is None else int(bounds[0])
        else:
            self.table, self.ks = stack, np.arange(len(stack)).reshape((-1,) + (1,) * dims)
            self.bound = None if bounds is None else np.asarray(bounds).reshape(self.ks.shape)

    def op(self, x, y):
        return self.table[x, y] if self.ks is None else self.table[self.ks, x, y]


@functools.lru_cache(maxsize=64)
def _axes(n: int, count: int) -> tuple[np.ndarray, ...]:
    # A along each of `count` broadcast dimensions, read-only since callers share it
    a = np.arange(n)
    a.flags.writeable = False
    return tuple(a.reshape((n,) + (1,) * (count - 1 - i)) for i in range(count))


def _holding_blocks(stack: np.ndarray, eq, bounds=None):
    """Where ``eq`` holds: the blocks of :func:`grid_masks` over a (k, n, n)
    stack, by the term evaluator on gathers. ``bounds`` holds each table's
    greatest element, or is None if ``eq`` needs none."""

    def holding(tables, *args):
        value = holds(tables, eq, dict(zip(eq.vars, args)))
        if np.ndim(value) < np.ndim(tables.ks):  # it read no cell: the same in every table
            value = value & np.ones(tables.ks.shape, bool)
        return value

    return grid_masks(stack, eq.arity, holding, bounds)


# The axiom classes after BCK1, in report order: BCK2-BCK4 and X0 as
# equations, and BCK5, which is not one, as None.
_AXIOM_CLASSES = (
    ("BCK2", parse("(x . (x . y)) . y = 0")),
    ("BCK3", parse("x . x = 0")),
    ("BCK4", parse("0 . x = 0")),
    ("BCK5", None),
    ("X0", parse("x . 0 = x")),
)


def _bck5_holds(t, x, y):  # x*y = 0 and y*x = 0 only if x = y
    return (t.op(x, y) != 0) | (t.op(y, x) != 0) | (x == y)


def _stack_witnesses(stack: np.ndarray):
    """Each axiom class of a (k, n, n) stack of shape-checked tables, in
    report order, as ``(axiom, arity, first)``: ``first[i]`` is the
    row-major index in A^arity of table i's lexicographically first
    witness, or n^arity if it has none. BCK1 runs on its blocked kernel
    until every table has a witness, the others on the gather kernel."""
    k, n = len(stack), stack.shape[-1]
    first = np.full(k, n**3)
    for lo, pairs, hit in _bck1_blocks(stack):
        if hit.any():
            p = np.flatnonzero(hit.any(axis=1))
            # lo * n + pairs[p] indexes the pairs (table, x, y) row-major, so
            # cells is table * n^3 plus the index of each (x, y, z) first hit
            cells = (lo * n + pairs[p]) * n + hit[p].argmax(axis=1)
            np.minimum.at(first, cells // n**3, cells % n**3)
            if (first < n**3).all():
                break
    yield "BCK1", 3, first
    for axiom, eq in _AXIOM_CLASSES:
        arity = 2 if eq is None else eq.arity
        blocks = grid_masks(stack, 2, _bck5_holds) if eq is None else _holding_blocks(stack, eq)
        first = np.full(k, n**arity)
        for start, holding in blocks:
            if not holding.all():
                fails = ~holding.reshape(k, -1)
                at = np.minimum(first, start + fails.argmax(axis=1))
                first = np.where(fails.any(axis=1), at, first)
        yield axiom, arity, first


def check_axioms(order: int, table) -> AxiomReport:
    """Exhaustively check BCK1-BCK5 (and the derived x*0 = x) over ``table``.

    Returns a report with one lexicographically-first witness per violated
    axiom class. Raises :class:`MalformedTableError` for structural problems,
    which are distinct from axiom violations.
    """
    return _axiom_report(_validate_shape(order, table))


def _axiom_report(t: np.ndarray) -> AxiomReport:
    # the axiom check of a table array that passed the shape check; the
    # kernels check it as the stack of one
    order = len(t)
    if order < _VECTORIZE_MIN_ORDER:
        return AxiomReport(tuple(_check_small(order, t.tolist())))
    viol = []
    for axiom, arity, first in _stack_witnesses(t[None]):
        if first[0] < order**arity:
            viol.append((axiom, tuple(map(int, np.unravel_index(first[0], (order,) * arity)))))
    return AxiomReport(tuple(viol))


def _bck1_blocks(stack: np.ndarray):
    """BCK1 over a (k, n, n) stack of tables, in ascending blocks of
    (table, x) rows. Yields ``(lo, pairs, hit)`` per block: ``hit[p, z]``
    is whether ((x*y)*(x*z))*(z*y) != 0 at the block's p-th (x, y) pair,
    which is y = pairs[p] % n in row r = lo + pairs[p] // n, that is x =
    r % n of table r // n. ``pairs`` ascends, so a block's first hit in
    row-major order is its lexicographically first witness. ``hit`` is a
    buffer the next block overwrites.

    The pairs with x*y = 0 of a table whose row 0 is zero are skipped:
    there ((x*y)*(x*z))*(z*y) = (0*(x*z))*(z*y) = 0*(z*y) = 0, so they
    hold no witness and the first witness is the same. The blocks are
    ``rows`` rows, whose buffers hold ``rows * n`` pairs. A block that
    skipping would leave with more than three quarters of its pairs runs
    whole; otherwise the blocks that follow join it as long as its pairs
    left fit the buffers. So a table with few zeros (B, P, Q) runs as
    broadcast rows, and one with about half (the chains C and D, M, P')
    on about half as many triples, in about half as many blocks.

    Each block takes four flat steps into buffers made once: (x*y)*n +
    x*z from the stack scaled by n and offset by n^2 per table, a take of
    ((x*y)*(x*z))*n from it (offset too), plus z*y, then a take from the
    nonzero bytes of the stack. Every index is in range; ``mode="clip"``
    spares a copy. In a whole block x*z and z*y are broadcast rows of its
    table and its transposed table (in a block that spans tables, a
    gather of them); a block of pairs first takes each pair's row of x*z,
    and then of z*y, into the same buffers.
    """
    k, n, _ = stack.shape
    offsets = np.arange(0, k * n * n, n * n).reshape(k, 1, 1)
    scaled = (stack * n + offsets).reshape(k * n, n)
    rows_of, flat = stack.reshape(k * n, n), scaled.ravel()
    transposed = np.ascontiguousarray(stack.transpose(0, 2, 1))  # transposed[i, y, z] = z*y
    nonzero = (stack != 0).ravel()
    keep = nonzero  # the pairs evaluated: x*y != 0, or any in a table with 0*y != 0
    if np.count_nonzero(stack[:, 0]):
        dense = stack[:, 0].any(axis=1).reshape(k, 1)
        keep = (nonzero.reshape(k, n * n) | dense).ravel()
    rows = max(1, min(k * n, _BCK1_BLOCK_CELLS // n**2))
    kept = np.add.reduceat(keep, np.arange(0, k * n * n, rows * n), dtype=np.intp).tolist()
    index, value = np.empty((2, rows, n, n), np.intp)
    hit = np.empty((rows, n, n), bool)
    # the same buffers, one (x, y) pair a row
    index2, value2, hit2 = index.reshape(-1, n), value.reshape(-1, n), hit.reshape(-1, n)
    every = np.arange(rows * n)
    j = 0
    while j < len(kept):
        lo, count = j * rows, kept[j]
        j += 1
        hi = min(lo + rows, k * n)
        first, last = lo // n, (hi - 1) // n
        if 4 * count > 3 * (hi - lo) * n:
            i, v, h = index[: hi - lo], value[: hi - lo], hit[: hi - lo]  # short in the last block
            np.add(scaled[lo:hi, :, None], rows_of[lo:hi, None, :], out=i)
            np.take(flat, i, out=v, mode="clip")
            v += transposed[first] if first == last else transposed[np.arange(lo, hi) // n]
            np.take(nonzero, v, out=h, mode="clip")
            yield lo, every[: (hi - lo) * n], hit2[: (hi - lo) * n]
            continue
        while j < len(kept) and count + kept[j] <= rows * n:
            count += kept[j]
            j += 1
        hi = min(j * rows, k * n)
        last = (hi - 1) // n
        pairs = np.flatnonzero(keep[lo * n : hi * n])
        i, v, h = index2[:count], value2[:count], hit2[:count]
        at, y = np.divmod(pairs, n)
        at += lo  # the row of each pair
        np.take(rows_of, at, axis=0, out=v, mode="clip")  # x*z
        np.add(flat[lo * n : hi * n].take(pairs)[:, None], v, out=i)
        np.take(flat, i, out=v, mode="clip")
        if first == last:
            np.take(transposed[first], y, axis=0, out=i, mode="clip")
        else:
            np.take(transposed.reshape(k * n, n), at - at % n + y, axis=0, out=i, mode="clip")
        v += i
        np.take(nonzero, v, out=h, mode="clip")
        yield lo, pairs, h


def _stack_ok(stack: np.ndarray) -> np.ndarray:
    """Whether each table of a (k, n, n) stack of shape-checked tables
    satisfies every axiom class: no witness in :func:`_stack_witnesses`.
    Agrees with ``_check_small``'s verdict table by table."""
    n = stack.shape[-1]
    return np.logical_and.reduce([first == n**arity for _, arity, first in _stack_witnesses(stack)])


# The property flags in report order, each as where its law holds at
# [i, x, y] of a (k, n, n) stack s of algebras: ks indexes the tables, xs x.
_FLAG_LAWS = {
    "linear": lambda s, ks, xs: (s == 0) | (s == 0).transpose(0, 2, 1),  # x <= y or y <= x
    # meets[i, x, y] = x*(x*y) = y ^ x, so x ^ y = y ^ x
    "commutative": lambda s, ks, xs: (meets := s[ks, xs, s]) == meets.transpose(0, 2, 1),
    "positive_implicative": lambda s, ks, xs: s == s[ks, s, xs.T],  # x*y = (x*y)*y
    "implicative": lambda s, ks, xs: s[ks, xs, s.transpose(0, 2, 1)] == xs,  # x*(y*x) = x
}


def _holds_throughout(law, stack: np.ndarray) -> list[bool]:
    # whether a law of _FLAG_LAWS holds at every cell of each table of the stack
    k, n = len(stack), stack.shape[-1]
    cells = law(stack, np.arange(k).reshape(k, 1, 1), np.arange(n).reshape(n, 1))
    return cells.all(axis=(1, 2)).tolist()


def _stack_flags(stack: np.ndarray) -> dict[str, list[bool]]:
    """Each flag of :data:`_FLAG_LAWS` of each table of a (k, n, n) stack of
    algebras, each in one pass over the stack."""
    return {name: _holds_throughout(law, stack) for name, law in _FLAG_LAWS.items()}


# Most cells the canonical-form kernel gathers at once: a block of tables
# times their relabelings times the cells of one row.
_CANON_BLOCK_CELLS = 1 << 16
# The orders the kernel relabels all at once. Each other table goes
# through the branch and bound. Below order 4, one call of the kernel costs
# more than the search of a table (about 60 us against 25 us at order 3 on
# a 2-vCPU VM). Above order 8, the relabelings of one table alone outgrow a
# block (order 9: 8! x 7 = 282,240 cells of one row).
_CANON_MIN_ORDER, _CANON_MAX_ORDER = 4, 8


@functools.cache
def _relabelings(n: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """Every relabeling fixing 0 at order n >= 3, as the canonical-form
    kernel reads it. Relabeling p gives label i to element ``old[p, i]``,
    and ``labels[p * n + x]`` is the label it gives x. ``rows[i - 1][p]``
    holds the flat positions, in the original table, of the cells that land
    on the cells (i, j), j = 1..n-1 but i, of the relabeled table, and
    ``powers`` weights those n - 2 cells as the base-n digits of one key,
    first cell first."""
    perms = np.array(list(itertools.permutations(range(1, n))), dtype=np.intp)
    old = np.concatenate([np.zeros((len(perms), 1), np.intp), perms], axis=1)
    # the inverse permutations, by assignment: a first argsort in the
    # process maps 256 KiB more of numpy's sort code
    labels = np.empty_like(old)
    labels[np.arange(len(old))[:, None], old] = np.arange(n)
    rows = [old[:, i, None] * n + old[:, [j for j in range(1, n) if j != i]] for i in range(1, n)]
    return old, labels.ravel(), rows, n ** np.arange(n - 3, -1, -1, dtype=np.int64)


def _stack_canonical(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical table of each table of a (k, n, n) stack of algebras,
    and how many relabelings reach it: :func:`canonical_table` and
    :func:`automorphism_count` of each, by trying every relabeling at once.

    Row 0, column 0 and the diagonal of an algebra are the same under every
    relabeling, so only the n - 2 other cells of each row i >= 1 are
    gathered, and read as the base-n digits of one int64 key. Tables
    compare lexicographically as their rows' keys do, in order: row 1 is
    keyed under every relabeling, and each later row only under the
    relabelings tied for least on the rows before it, until one is left
    per table. The tables go in blocks of at most ``_CANON_BLOCK_CELLS``
    cells of row 1 under every relabeling, so memory does not grow with k.
    Outside ``_CANON_MIN_ORDER``..``_CANON_MAX_ORDER``,
    :func:`_canonical_search` takes each table.
    """
    k, n, _ = stack.shape
    canon, counts = np.empty_like(stack), np.empty(k, np.intp)
    if not _CANON_MIN_ORDER <= n <= _CANON_MAX_ORDER:
        for i, t in enumerate(stack.tolist()):
            canon[i], counts[i] = _canonical_search(n, t)
        return canon, counts
    old, labels, rows, powers = _relabelings(n)
    perms = len(old)
    step = max(1, _CANON_BLOCK_CELLS // (perms * (n - 2)))
    for lo in range(0, k, step):
        block = stack[lo : lo + step].ravel()
        size = len(block) // (n * n)
        tables = np.arange(size)
        # the (table, relabeling) pairs tied for least so far, by table:
        # at first every pair, as a (table, relabeling) grid
        table, perm = tables[:, None], np.arange(perms)
        for cells in rows:
            at = block.take(cells[perm] + (table * n * n)[..., None])
            at += (perm * n)[..., None]
            key = (labels.take(at) @ powers).ravel()
            table, perm = (a.ravel() for a in np.broadcast_arrays(table, perm))
            tied = key == np.minimum.reduceat(key, np.searchsorted(table, tables))[table]
            table, perm = table[tied], perm[tied]
            if len(table) == size:
                break
        # each table under its first least relabeling
        best = perm[np.searchsorted(table, tables)]
        at = block.take(old[best, :, None] * n + old[best, None, :] + (tables * n * n)[:, None, None])
        at += (best * n)[:, None, None]
        canon[lo : lo + size] = labels.take(at)
        counts[lo : lo + size] = np.bincount(table, minlength=size)
    return canon, counts


class BckAlgebra(_Record):
    """Immutable finite BCK-algebra.

    ``array`` is the table as a read-only intp array, made once.
    ``table[x][y]``, its tuple view, is x*y; it is made from ``array`` when
    first read, unless given. Equality and hashing read the order, the
    bound and the array's bytes, and repr the order, the table and the
    bound. ``bound`` is the greatest element when one exists (unique by
    BCK5), else None. Instances are safe to share across workers; all
    operations are pure. Use :func:`from_table` to construct with
    validation.
    """

    __slots__ = ("order", "_table", "bound", "array")
    __match_args__ = ("order", "table", "bound", "array")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...] | None, bound: int | None,
                 array: np.ndarray):
        _set = object.__setattr__
        _set(self, "order", order)
        _set(self, "_table", table)
        _set(self, "bound", bound)
        _set(self, "array", array)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        if self._table is None:
            object.__setattr__(self, "_table", tuple(map(tuple, self.array.tolist())))
        return self._table

    def _values(self) -> tuple:
        return self.order, self.bound, self.array.tobytes()

    def __repr__(self) -> str:
        return f"BckAlgebra(order={self.order!r}, table={self.table!r}, bound={self.bound!r})"

    def __reduce__(self):
        return _build, (self.array,)

    @property
    def elements(self) -> range:
        return range(self.order)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def leq(self, x: int, y: int) -> bool:
        return self.table[x][y] == 0

    def meet(self, x: int, y: int) -> int:
        """x ^ y := y*(y*x), a lower bound of x and y."""
        t = self.table
        return t[y][t[y][x]]

    def neg(self, x: int) -> int:
        """~x := 1*x. Requires a bound."""
        if self.bound is None:
            raise UnboundedAlgebraError("negation needs a greatest element")
        return self.table[self.bound][x]

    def join(self, x: int, y: int) -> int:
        """x v y := ~(~x ^ ~y).

        Evaluated literally on any bounded algebra; it is a least upper
        bound only when the algebra is also commutative.
        """
        return self.neg(self.meet(self.neg(x), self.neg(y)))

    def is_linear(self) -> bool:
        return _holds_throughout(_FLAG_LAWS["linear"], self.array[None])[0]

    def is_commutative(self) -> bool:
        return _holds_throughout(_FLAG_LAWS["commutative"], self.array[None])[0]

    def is_positive_implicative(self) -> bool:
        return _holds_throughout(_FLAG_LAWS["positive_implicative"], self.array[None])[0]

    def is_implicative(self) -> bool:
        return _holds_throughout(_FLAG_LAWS["implicative"], self.array[None])[0]

    def atoms(self) -> set[int]:
        """Minimal elements among the non-zero elements."""
        below = self.array[1:, 1:] == 0
        np.fill_diagonal(below, False)
        return set((np.flatnonzero(~below.any(axis=0)) + 1).tolist())

    def canonical_form(self) -> tuple[tuple[int, ...], ...]:
        return canonical_table(self.order, self.table)

    def is_isomorphic(self, other: BckAlgebra) -> bool:
        return self.order == other.order and self.canonical_form() == other.canonical_form()

    def relabel(self, sigma) -> BckAlgebra:
        """Apply a permutation of indices with sigma[0] = 0."""
        if sorted(sigma) != list(self.elements):
            raise ValueError(f"sigma must be a permutation of range({self.order}), got {sigma!r}")
        if sigma[0] != 0:
            raise ValueError("relabelings must fix element 0")
        s = np.asarray(sigma, dtype=np.intp)
        t = np.empty_like(self.array)
        t[s[:, None], s] = s[self.array]  # sigma(x)*sigma(y) = sigma(x*y)
        return _build(t)


def canonical_table(order: int, table) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling of ``table`` over permutations fixing 0.

    Isomorphic tables get identical canonical forms. The minimum is found
    by an exact branch-and-bound search (see :func:`_canonical_search`): a
    branch is cut only when every relabeling it leads to is strictly
    greater than one already found, so the result is the minimum itself.
    The tests check it against a brute-force minimum on every labeled
    order-5 algebra and on relabelings at orders 8 and 9, and against the
    stacked kernel the catalog search uses (:func:`_stack_canonical`) on
    every table that search canonicalizes at orders 1-6.
    """
    return _canonical_search(order, table)[0]


def automorphism_count(order: int, table) -> int:
    """The number of relabelings fixing 0 that map ``table`` to itself.

    Counted by the search of :func:`canonical_table`: the relabelings
    that reach the canonical table are one coset of the automorphism
    group, and the search visits each of them. So over a catalog of
    order n, the sum of (n-1)!/automorphism_count is the number of
    labeled tables (Burnside).
    """
    return _canonical_search(order, table)[1]


def _canonical_search(order: int, t) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The least relabeling of table ``t`` fixing 0, and how many
    relabelings reach it.

    Depth first, the search picks the element that gets label 1, then
    label 2, and so on. With labels 0..k-1 given, row i of the relabeled
    table is bounded from below by its first k cells, then its other cells
    sorted, since those columns may still come in any order. An element
    not yet labeled stands for k there: its label will be at least k. Each
    child's bounds are compared, row by row, with the rows of the least
    table found so far, and a child is cut only if it is strictly greater.
    Children are tried in increasing order of their bounds, so the first
    table found is usually the least one and the rest are cut early.

    The search reads single cells, so ``t`` is read as given, with no
    copy; nested tuples or lists (``BckAlgebra.table``) are read fastest.
    """
    label = [0] * order  # an element's label; while unlabeled, a bound on it
    lab = label.__getitem__
    labeled = [0]  # labeled[i] is the element labeled i
    free = list(range(1, order))  # unlabeled elements, ascending
    best: list[list[int]] | None = None
    count = 0

    def bounds(u: int) -> list[list[int]] | None:
        # the bounds of the labeled rows once u, still in free, is labeled
        # last; None as soon as one exceeds best's row
        rows = []
        tied = best is not None
        for i, p in enumerate(labeled):
            cell = t[p].__getitem__
            row = list(map(lab, map(cell, labeled)))
            rest = sorted(map(lab, map(cell, free)))
            rest.remove(label[cell(u)])
            row += rest
            if tied and row != best[i]:
                if row > best[i]:
                    return None
                tied = False
            rows.append(row)
        return rows

    def descend() -> None:
        # labels 0..k-1 are given; try each free element for label k
        nonlocal best, count
        k = len(labeled)
        for x in free:
            label[x] = k + 1
        children = []
        for u in free:
            label[u] = k
            labeled.append(u)
            rows = bounds(u)
            labeled.pop()
            label[u] = k + 1
            if rows is not None:
                children.append((rows, u))
        children.sort()
        for rows, u in children:
            if best is not None and rows > best[: k + 1]:
                break
            if len(free) == 1:  # a complete relabeling, not worse than best
                if best is None or rows < best:
                    best, count = rows, 1
                else:
                    count += 1
                continue
            free.remove(u)
            labeled.append(u)
            label[u] = k
            descend()
            labeled.pop()
            bisect.insort(free, u)
            label[u] = k + 1
        for x in free:
            label[x] = k

    if not free:
        return ((0,),), 1
    descend()
    return tuple(map(tuple, best)), count


def from_table(order: int, table) -> BckAlgebra:
    """Validate ``table`` and return the algebra, with the bound detected.

    Raises :class:`BckAxiomError` (carrying the report) if any axiom fails.
    """
    return _checked(_validate_shape(order, table))


def _checked(t: np.ndarray) -> BckAlgebra:
    """:func:`from_table` of a table array that passed the shape check,
    such as ``tableio.read_table`` returns; the algebra owns ``t``."""
    report = _axiom_report(t)
    if not report.ok:
        raise BckAxiomError(report)
    return _build(t)


def _build(table) -> BckAlgebra:
    """The algebra of a table already known to satisfy the axioms: by
    construction, or as a relabeling of a checked table. Its order is the
    table's length. ``table`` may be an intp array the algebra then owns."""
    t = np.asarray(table, dtype=np.intp)
    t.flags.writeable = False
    zero_columns = ~t.any(axis=0)  # the bound m has x*m = 0 for every x
    bound = int(zero_columns.argmax()) if zero_columns.any() else None
    return BckAlgebra(len(t), None, bound, t)


def _build_stack(stack: np.ndarray) -> list[BckAlgebra]:
    """:func:`_build` of each table of a read-only (k, n, n) intp stack, the
    bounds found in one pass (a single table is built faster by
    :func:`_build`). Each algebra's array is a view of the stack."""
    order = stack.shape[-1]
    zero_columns = ~stack.any(axis=1)
    bounds = np.where(zero_columns.any(axis=1), zero_columns.argmax(axis=1), -1).tolist()
    return [BckAlgebra(order, None, None if bound < 0 else bound, t) for t, bound in zip(stack, bounds)]
