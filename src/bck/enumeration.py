"""Exhaustive generation of all BCK-algebras of a small order up to
isomorphism, plus catalog-wide spectrum reports and bound audits.

In a BCK-algebra x*y = 0 exactly when x <= y, so an order type fixes
every zero cell of the table. The catalog search runs one task per poset
on 0..n-1 with least element 0, one of each isomorphism type, under a
natural labeling (x <= y only if x <= y as integers). The posets are
built in-repo, each from a smaller one by a new maximal element above a
down-closed set (:func:`_posets`). A task places x*y = 0 wherever x <= y
and fills every other cell, row-major, with a value v != 0, v <= x. Of
each class it completes only the relabelings that keep its order that
poset's labeling, Σ |Aut(P)|/|Aut(A)| tables for a poset P and its
classes A: 105 at order 5, 1,013 at order 6, 12,783 at order 7.

Pruning uses only theorems of the axioms, so no valid table is ever lost.
Placing a*b = v applies four rules:

- partial antisymmetry: a*b = 0 and b*a = 0 with a != b is rejected;
- the order is transitive, so a placed zero forces the zeros closing
  its chains;
- BCK1, ((a*z)*(a*b))*(b*z) = 0, forces its conclusion cell to 0 for
  each z whose a*z and b*z are known;
- the exchange identity (a*b)*z = (a*z)*b forces equal values across
  each pair of cells of which one is known.

The first two decide nothing in a poset task, whose zeros are given;
the full labeled search (:func:`enumerate_labeled_tables`, the tests'
oracle) branches on every value of every free cell and needs them.

Row 0, column 0 and the diagonal are placed before the search, and with
them the last two rules force other theorems with no rule of their own:

- x*y <= x is exchange at z = a: (a*b)*a = (a*a)*b = 0*b = 0;
- BCK2, (a*(a*b))*b = 0, is BCK1 at z = 0 when a*b is placed after
  a*(a*b), and exchange at z = b when a*(a*b) = w is placed after a*b:
  (a*w)*b = (a*b)*w = w*w = 0.

Forced values live in a cell -> value map consulted before branching.
Propagation covers only some of the axiom instances a placed cell takes
part in, so it lets through completed tables that break an axiom: 66 of
171 at order 5 and 1,359 of 2,372 at order 6. The full axiom check of
every completed table rejects those; it is the one place a table is
validated, so over-eager pruning could only lose catalogs, never corrupt
them. The no-pruning oracles in the test suite guard against loss at
orders 3 and 4, and the catalog search with no propagation at order 5.
A ``max_nodes`` budget counts every value tried, rejected or not: the
order-5 catalog search tries 1,586 in all, the full labeled search
110,070.

Where the completed tables are checked: the leaf of the search only
collects them, across tasks. Every ``_LEAF_CHUNK`` of them, and at the
end, they are checked in one stacked pass over a (k, n, n) array
(``algebra._stack_ok``), and the survivors put in canonical form in one
more (``algebra._stack_canonical``, which tries every relabeling of every
table at once). The catalog's flags, and each degree kind when first
read, are computed the same way, over all its tables at once; so is the
check of a catalog that :func:`load_catalog` reads back.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Mapping
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import tableio
from .tableio import TableFormatError
from .algebra import (
    _FLAG_LAWS,
    BckAlgebra,
    BckAxiomError,
    MalformedTableError,
    _axiom_report,
    _build_stack,
    _checked,
    _stack_canonical,
    _stack_flags,
    _stack_ok,
)
from .degrees import (
    DEGREE_KINDS,
    Degree,
    DecompositionError,
    decompose_commutative,
    stack_degrees,
)
from .terms import _Record

# Order 7 takes about 4 s serially on a 2-vCPU VM, and order 8 (143,866
# classes) 112-122 s with jobs=2.
PRACTICAL_MAX_ORDER = 7
# Lowest order whose catalog search runs in a process pool when jobs > 1:
# below it the pool's start-up costs more than it saves. On a 2-vCPU VM,
# with 2 workers against serially: at order 6, in-process medians of 122
# against 129 ms and `bck enumerate` medians of 394 against 384 ms, about
# even; at order 7, 2.4 against 3.8 s.
_POOL_MIN_ORDER = 6


class EnumerationLimitError(RuntimeError):
    def __init__(self, nodes: int, found: int):
        super().__init__(
            f"enumeration aborted after {nodes} placements with {found} tables completed"
        )
        self.nodes = nodes
        self.found = found


def _initial_table(n: int) -> list[list[int | None]]:
    t: list[list[int | None]] = [[None] * n for _ in range(n)]
    for y in range(n):
        t[0][y] = 0
    for x in range(n):
        t[x][0] = x
        t[x][x] = 0
    return t


def _propagate(n, t, a, b, v, force):
    # the BCK1 and exchange instances decided or half-decided by the new
    # cell (a, b) = v; the module docstring says why no other rule is needed
    ta = t[a]
    tv = t[v]
    for z in range(n):
        az = ta[z]
        if az is None or z == b:
            continue
        p = t[az][v]  # BCK1 (a, z, b): ((a*z)*(a*b))*(b*z) = 0
        if p is not None:
            q = t[b][z]
            if q is not None and not force(p, q, 0):
                return False
        # exchange: (a*b)*z = (a*z)*b
        lhs = tv[z]
        rhs = t[az][b]
        if lhs is None:
            if rhs is not None and not force(v, z, rhs):
                return False
        elif not force(az, b, lhs):
            return False
    return True


def _place(n, t, forced, a, b, v):
    """Place t[a][b] = v if consistent with the pruning rules; returns the
    list of newly forced cells (for undo), or None with the state untouched
    when the candidate is rejected."""
    want = forced.get((a, b))
    if want is not None and v != want:
        return None
    if v == 0 and t[b][a] == 0:  # would break antisymmetry
        return None
    t[a][b] = v
    added: list[tuple[int, int]] = []

    def force(row, col, val) -> bool:
        cur = t[row][col]
        if cur is not None:
            return cur == val
        cell = (row, col)
        prev = forced.get(cell)
        if prev is None:
            forced[cell] = val
            added.append(cell)
            return True
        return prev == val

    ok = _propagate(n, t, a, b, v, force)
    if ok and v == 0:
        # the order must stay transitive through a <= b
        for c in range(n):
            if c != b and c != a and t[b][c] == 0 and not force(a, c, 0):
                ok = False
                break
            if c != a and c != b and t[c][a] == 0 and not force(c, b, 0):
                ok = False
                break
    if not ok:
        for cell in added:
            del forced[cell]
        t[a][b] = None
        return None
    return added


def _search(n, t, forced, cells, start, leaf, budget):
    """Depth-first fill of ``cells``, (a, b, values) triples, from index
    ``start``: place each consistent value of ``values`` at a*b, recurse,
    undo. ``leaf()`` runs at every consistent fill of all of ``cells``,
    with the state in ``t`` and ``forced``. ``budget`` is None for
    unlimited, or a list [values left to try, placements accepted]."""
    if start == len(cells):
        leaf()
        return
    a, b, values = cells[start]
    for v in values:
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationLimitError(budget[1], 0)
        added = _place(n, t, forced, a, b, v)
        if added is None:
            continue
        if budget is not None:
            budget[1] += 1
        _search(n, t, forced, cells, start + 1, leaf, budget)
        for cell in added:
            del forced[cell]
        t[a][b] = None


def _down_sets(down: tuple[int, ...]) -> list[int]:
    """The down-closed sets holding 0 of a naturally labeled poset, as
    bitmasks; ``down[x]`` is the bitmask of the elements <= x. Everything
    below x has a smaller label, so x may join a set once all of it is in."""
    sets = [1]
    for x in range(1, len(down)):
        below = down[x] & ~(1 << x)
        sets += [s | 1 << x for s in sets if not below & ~s]
    return sets


def _posets(n: int, budget) -> list[tuple[int, ...]]:
    """The posets on 0..n-1 with least element 0, one of each isomorphism
    type, each naturally labeled (x <= y only if x <= y as integers), as
    tuples of down-set bitmasks.

    Each poset on k + 1 elements is one on k elements with a new maximal
    element k above a down-closed set. Of the isomorphic ones, the first
    built is kept: two posets are isomorphic exactly when their algebras
    x*y = 0 if x <= y, else x, have the same canonical table. ``budget``,
    as in :func:`_search`, is charged one value for each poset built."""
    level = [(1,)]
    for k in range(1, n):
        built = []
        for down in level:
            for s in _down_sets(down):
                if budget is not None:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise EnumerationLimitError(budget[1], 0)
                    budget[1] += 1
                built.append(down + (s | 1 << k,))
        elements = np.arange(k + 1)
        below = np.array(built)[:, None, :] >> elements[:, None] & 1  # [i, x, y]: x <= y
        canon = _stack_canonical(np.where(below == 1, 0, elements[:, None]))[0]
        first = {}
        for i, table in enumerate(canon):
            first.setdefault(table.tobytes(), i)
        level = [built[i] for i in first.values()]
    return level


def _poset_task(down: tuple[int, ...]):
    """The search task of one naturally labeled poset: the table with the
    zeros the order fixes, x*y = 0 where x <= y, and the cells left, x*y
    with x not <= y, each with the values v != 0, v <= x it may take."""
    n = len(down)
    t = _initial_table(n)
    cells = []
    for x in range(1, n):
        values = [v for v in range(1, n) if down[x] >> v & 1]
        for y in range(1, n):
            if x == y:
                continue
            if down[y] >> x & 1:
                t[x][y] = 0
            else:
                cells.append((x, y, values))
    return t, cells


# Most completed tables the search holds before it checks them.
_LEAF_CHUNK = 4096


def _complete(args):
    # the valid completed tables of search tasks run one after another, as a
    # (k, n, n) stack in search order; canonicalized when ``canonical`` is
    # set. Each task gets its own budget of ``max_nodes`` values.
    n, tasks, canonical, max_nodes = args
    found: list[np.ndarray] = []
    verdicts: list[np.ndarray] = []
    pending: list[tuple] = []

    def check():
        if not pending:
            return
        # the one axiom check of the completed tables, then the canonical
        # forms of the survivors, each in one stacked pass over a chunk
        # that may span tasks
        stack = np.array(pending, dtype=np.intp)
        ok = _stack_ok(stack)
        verdicts.append(ok)
        found.append(_stack_canonical(stack[ok])[0] if canonical else stack[ok])
        pending.clear()

    for t, cells in tasks:

        def leaf(t=t):
            pending.append(tuple(map(tuple, t)))
            if len(pending) == _LEAF_CHUNK:
                check()

        first = sum(map(len, verdicts)) + len(pending)
        budget = None if max_nodes is None else [max_nodes, 0]
        try:
            _search(n, t, {}, cells, 0, leaf, budget)
        except EnumerationLimitError as exc:
            # reported: the valid tables of the task that ran out
            check()
            valid = np.concatenate([np.empty(0, bool), *verdicts])[first:]
            raise EnumerationLimitError(exc.nodes, int(valid.sum())) from None
    check()
    return np.concatenate(found) if found else np.empty((0, n, n), np.intp)


def enumerate_labeled_tables(n: int, max_nodes: int | None = None) -> list[tuple]:
    """Every valid completed table in search order, without isomorphism
    reduction. Mainly a soundness oracle for the deduplicated catalog."""
    if n < 1:
        raise ValueError("order must be >= 1")
    cells = [(x, y, range(n)) for x in range(1, n) for y in range(1, n) if x != y]
    stack = _complete((n, [(_initial_table(n), cells)], False, max_nodes))
    return [tuple(map(tuple, table)) for table in stack.tolist()]


class CatalogEntry(NamedTuple):
    algebra: BckAlgebra
    linear: bool
    commutative: bool
    positive_implicative: bool
    implicative: bool
    degrees: Mapping[str, Degree | None]

    def to_json(self) -> dict:
        """Bound, flags and degrees, as `bck enumerate` and index.json print them."""
        return {
            "bound": self.algebra.bound,
            **{name: getattr(self, name) for name in _FLAG_LAWS},
            "degrees": {k: (d.to_json() if d else None) for k, d in self.degrees.items()},
        }


class Catalog(_Record):
    """All order-n BCK-algebras in canonical form, lexicographically sorted,
    with property flags and degree profiles. Immutable; its length is the
    number of entries."""

    __slots__ = __match_args__ = ("order", "entries")

    def __init__(self, order: int, entries: tuple[CatalogEntry, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


class _Degrees(Mapping):
    """One catalog algebra's degree of each kind in ``DEGREE_KINDS``. A kind
    is counted over the catalog's whole stack by one :func:`stack_degrees`
    when first read, into ``columns``, the dict shared by every entry of the
    catalog, so a reader of one kind (``spectrum``) pays for one. A kind
    that needs a bound is None on an unbounded algebra. The degrees are a
    function of the table, so two of these compare and hash by its bytes
    and count nothing."""

    def __init__(self, columns: dict, inputs: tuple, i: int):
        # inputs: the catalog's (k, n, n) stack, bounds and commutative flags
        self._columns, self._inputs, self._i = columns, inputs, i

    def __getitem__(self, kind: str) -> Degree | None:
        column = self._columns.get(kind)
        if column is None:
            column = self._columns[kind] = stack_degrees(kind, *self._inputs)
        return column[self._i]

    def __iter__(self):
        return iter(DEGREE_KINDS)

    def __len__(self) -> int:
        return len(DEGREE_KINDS)

    def _table_bytes(self) -> bytes:
        return self._inputs[0][self._i].tobytes()

    def __eq__(self, other) -> bool:
        if isinstance(other, _Degrees):
            return self._table_bytes() == other._table_bytes()
        return super().__eq__(other)

    def __hash__(self) -> int:
        return hash(self._table_bytes())

    def __repr__(self) -> str:
        return repr(dict(self))


def _profile(stack: np.ndarray) -> tuple[CatalogEntry, ...]:
    """The entries of a (k, n, n) stack of algebras: their bounds and flags
    in one stacked pass each, their degrees counted over the stack when
    read. Each algebra's array is a read-only view of the stack."""
    stack.flags.writeable = False
    algebras = _build_stack(stack)
    flags = _stack_flags(stack)
    columns: dict[str, list[Degree | None]] = {}
    inputs = (stack, [a.bound for a in algebras], flags["commutative"])
    return tuple(
        CatalogEntry(a, **{name: f[i] for name, f in flags.items()},
                     degrees=_Degrees(columns, inputs, i))
        for i, a in enumerate(algebras)
    )


def enumerate_algebras(n: int, jobs: int = 1, max_nodes: int | None = None) -> Catalog:
    """Backtracking enumeration of all order-n BCK-algebras up to
    isomorphism. Identical output for any ``jobs`` count; ``max_nodes``
    caps value placements per search task, and the posets built before the
    search, and aborts loudly when exceeded. Below order 6 the search runs
    serially whatever ``jobs`` is, and a pool starts no more workers than
    there are search tasks.

    x <= y iff x*y = 0 is a partial order with least element 0, so each
    class is found by the search task of its order: one task per poset on
    n elements with least element 0, under one natural labeling of it.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > PRACTICAL_MAX_ORDER:
        warnings.warn(
            f"enumeration at order {n} exceeds the practical ceiling "
            f"{PRACTICAL_MAX_ORDER} and may take very long",
            RuntimeWarning,
            stacklevel=2,
        )
    budget = None if max_nodes is None else [max_nodes, 0]
    tasks = [_poset_task(down) for down in _posets(n, budget)]
    if jobs <= 1 or n < _POOL_MIN_ORDER:
        canon = _complete((n, tasks, True, max_nodes))
    else:
        import multiprocessing  # imported here: it adds about 10 ms to every start-up

        workers = min(jobs, len(tasks))
        groups = [(n, tasks[i::workers], True, max_nodes) for i in range(workers)]
        with multiprocessing.Pool(workers) as pool:
            canon = np.concatenate(pool.map(_complete, groups))
    # the distinct canonical tables, sorted lexicographically
    flat = canon.reshape(-1, n * n)
    flat = flat[np.lexsort(flat.T[::-1])]
    canon = flat[np.r_[True, (flat[1:] != flat[:-1]).any(axis=1)]]
    return Catalog(n, _profile(canon.reshape(-1, n, n)))


class SpectrumReport(NamedTuple):
    """Achieved degree values of one kind across a catalog.

    ``possible`` is populated for the two kinds with a stated candidate
    set (dnd: {2/n, ..., (n-1)/n, 1}; cd: {(3n-2)/n^2, (3n)/n^2, ...,
    (n^2-2)/n^2, 1}) and is None otherwise. ``outside_possible`` lists
    achieved values not in the candidate set; it is audited, not assumed,
    to be empty.
    """

    order: int
    kind: str
    possible: tuple[Degree, ...] | None
    achieved: tuple[Degree, ...]
    missing: tuple[Degree, ...]
    outside_possible: tuple[Degree, ...]
    witnesses: dict[Degree, BckAlgebra]


def _possible_degrees(n: int, kind: str) -> tuple[Degree, ...] | None:
    if kind == "dnd":
        vals = [Degree(j, n) for j in range(2, n)]
    elif kind == "cd":
        vals = [Degree(j, n * n) for j in range(3 * n - 2, n * n - 1, 2)]
    else:
        return None
    vals.append(Degree(1, 1))
    return tuple(sorted(vals))


def spectrum(catalog: Catalog, kind: str) -> SpectrumReport:
    """Collect the achieved values of one degree kind over the catalog,
    with one witness per value; a kind that needs a bound considers bounded
    entries only."""
    if kind not in DEGREE_KINDS:
        raise ValueError(f"kind must be one of {tuple(DEGREE_KINDS)}, got {kind!r}")
    witnesses: dict[Degree, BckAlgebra] = {}
    for entry in catalog.entries:
        d = entry.degrees[kind]
        if d is None:
            continue
        key = Degree(d.count, d.total)
        if key not in witnesses:
            witnesses[key] = entry.algebra
    achieved = tuple(sorted(witnesses))
    possible = _possible_degrees(catalog.order, kind)
    if possible is None:
        missing: tuple[Degree, ...] = ()
        outside: tuple[Degree, ...] = ()
    else:
        have = set(achieved)
        missing = tuple(sorted(set(possible) - have))
        outside = tuple(sorted(have - set(possible)))
    return SpectrumReport(catalog.order, kind, possible, achieved, missing, outside, witnesses)


class ConjectureReport(NamedTuple):
    """Whether every candidate dnd and cd value at this order is achieved."""

    order: int
    dnd: SpectrumReport
    cd: SpectrumReport

    @property
    def passed(self) -> bool:
        return not self.dnd.missing and not self.cd.missing


def verify_conjectures(catalog: Catalog) -> ConjectureReport:
    if catalog.order < 3:
        raise ValueError("conjecture checks start at order 3")
    return ConjectureReport(catalog.order, spectrum(catalog, "dnd"), spectrum(catalog, "cd"))


class AuditCheck(NamedTuple):
    name: str
    passed: bool
    counterexamples: tuple[tuple[tuple[tuple[int, ...], ...], str], ...]


class AuditReport(NamedTuple):
    order: int
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def audit_bounds(catalog: Catalog) -> AuditReport:
    """Audit every catalog algebra against the universal degree bounds, the
    degree-one characterizations, and chain decomposability of commutative
    entries. Counterexample tables are reported verbatim; a failing check
    is a report, never an exception."""
    n = catalog.order
    n2 = Fraction(n * n)
    checks: list[AuditCheck] = []

    def run(name, condition, predicate, detail):
        bad = tuple((e.algebra.table, detail(e)) for e in catalog.entries
                    if condition(e) and not predicate(e))
        checks.append(AuditCheck(name, not bad, bad))

    def within(name, condition, kind, lo, hi=None):
        # the degree of `kind` in [lo, hi], or at least lo if hi is None
        run(
            name,
            condition,
            lambda e: lo <= e.degrees[kind].fraction <= (1 if hi is None else hi),
            lambda e: f"{kind} = {e.degrees[kind].reduced} "
            + (f"below {lo}" if hi is None else f"outside [{lo}, {hi}]"),
        )

    within("cd_bounds_noncommutative", lambda e: not e.commutative,
           "cd", Fraction(3 * n - 2) / n2, Fraction(n * n - 2) / n2)
    within("dnd_bounds_noncommutative_bounded",
           lambda e: not e.commutative and e.algebra.bound is not None,
           "dnd", Fraction(2, n), Fraction(n - 1, n))
    lo_p, hi_p = Fraction(4 * n - 4) / n2, Fraction(n * n - 1) / n2
    within("pid_bounds_not_positive_implicative", lambda e: not e.positive_implicative,
           "pid", lo_p, hi_p)
    within("id_bounds_not_implicative", lambda e: not e.implicative, "id", lo_p, hi_p)
    lo_lin = Fraction(n * n + 3 * n - 2) / (2 * n2)
    within("pid_linear_lower_bound", lambda e: e.linear and not e.positive_implicative,
           "pid", lo_lin)
    within("id_linear_lower_bound", lambda e: e.linear and not e.implicative, "id", lo_lin)
    flags = {"cd": "commutative", "pid": "positive_implicative", "id": "implicative"}
    for kind, flag in flags.items():
        run(
            f"{kind}_one_iff_{flag}",
            lambda e: True,
            lambda e, kind=kind, flag=flag: (e.degrees[kind].fraction == 1) == getattr(e, flag),
            lambda e, kind=kind, flag=flag: f"{kind} = {e.degrees[kind].reduced}, "
            f"{flag.replace('_', ' ')} = {getattr(e, flag)}",
        )

    bad_rt = []
    for e in catalog.entries:
        if not e.commutative:
            continue
        try:
            decompose_commutative(e.algebra)
        except DecompositionError as exc:
            bad_rt.append((e.algebra.table, str(exc)))
    checks.append(AuditCheck("chain_decomposition_commutative", not bad_rt, tuple(bad_rt)))

    return AuditReport(n, tuple(checks))


def save_catalog(catalog: Catalog, dirpath) -> None:
    """Persist as one table file per algebra plus a JSON index with flags
    and degrees. :func:`load_catalog` reads back only the tables and
    recomputes the rest. Once the index is written, ``.tbl`` files it does
    not name, left by an earlier save into the same directory, are
    removed; no other file is touched."""
    import hashlib  # imported here: only saved catalogs need it, and it loads OpenSSL

    os.makedirs(dirpath, exist_ok=True)
    index = {"order": catalog.order, "algebras": []}
    for e in catalog.entries:
        text = tableio.dumps(catalog.order, e.algebra.array)
        fname = hashlib.sha256(text.encode()).hexdigest()[:16] + ".tbl"
        with open(os.path.join(dirpath, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
        index["algebras"].append({"file": fname, **e.to_json()})
    with open(os.path.join(dirpath, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    named = {rec["file"] for rec in index["algebras"]}
    with os.scandir(dirpath) as entries:
        stale = [e.path for e in entries
                 if e.name.endswith(".tbl") and e.name not in named and e.is_file()]
    for path in stale:
        os.remove(path)


def load_catalog(dirpath) -> Catalog:
    """Load a persisted catalog. Every table is re-validated and re-profiled:
    of ``index.json`` only the order and the file names are read, so stored
    flags and degrees are never trusted. A table whose order differs from
    the index's raises :class:`MalformedTableError`.

    The files are read one by one, in index order, and then checked in one
    stacked pass. What a bad catalog raises is what checking each file as
    it is read would raise: the first fault in index order, whether a file
    that cannot be read or parsed, a table that breaks an axiom (the
    :class:`BckAxiomError` of :func:`from_table`), or one of another order.
    An index of the wrong shape, or one that names a file twice, raises
    :class:`tableio.TableFormatError` before any table is read.
    """
    index = json.loads(tableio.read_text(os.path.join(dirpath, "index.json"), "catalog index"))
    order, files = _index_files(index)
    tables, fault = [], None
    try:
        for fname in files:
            n, table = tableio.read_table(os.path.join(dirpath, fname))
            if n != order:
                _checked(table)  # its axioms come before its order, as when loaded alone
                raise MalformedTableError(
                    f"{fname} has order {n}, but the catalog index says {order}"
                )
            tables.append(table)
    except Exception as exc:  # raised below, once the tables before it are checked
        fault = exc
    if tables:
        stack = np.stack(tables)
        ok = _stack_ok(stack)
        if not ok.all():
            raise BckAxiomError(_axiom_report(stack[ok.argmin()]))
    if fault is not None:
        raise fault
    return Catalog(order, _profile(stack) if tables else ())


def _index_files(index) -> tuple[int, list[str]]:
    """The order and table file names of a catalog index whose shape is
    checked: an object with a positive integer ``order`` and ``algebras``,
    a list of objects each with a ``file`` in the catalog directory, no
    two the same."""
    if not isinstance(index, dict):
        raise TableFormatError(f"catalog index must be a JSON object, got {type(index).__name__}")
    order = index.get("order")
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise TableFormatError(f"catalog index order must be a positive integer, got {order!r}")
    records = index.get("algebras")
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise TableFormatError("catalog index algebras must be a list of objects")
    files = [rec.get("file") for rec in records]
    first: dict[str, int] = {}
    for i, name in enumerate(files):
        if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
            raise TableFormatError(f"catalog index entry {i} needs a plain file name, got {name!r}")
        if first.setdefault(name, i) != i:
            raise TableFormatError(f"catalog index entry {i} repeats the file of entry {first[name]}")
    return order, files
