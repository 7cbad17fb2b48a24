import itertools
import json
import math
import multiprocessing
import pickle
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from bck import algebra as algebra_module
from bck import enumeration, terms
from bck.algebra import _CANON_BLOCK_CELLS, _check_small, _stack_canonical, _stack_ok
from bck.cli import main as cli_main
from bck.degrees import DEGREE_FUNCTIONS, DEGREE_KINDS, ds, ds_stack, stack_degrees
from bck import (
    FAMILY_NAMES,
    Degree,
    EnumerationLimitError,
    MalformedTableError,
    UnboundedAlgebraError,
    audit_bounds,
    automorphism_count,
    bck_union,
    builtin,
    canonical_table,
    chain,
    check_axioms,
    d_algebra,
    decompose_commutative,
    direct_product,
    enumerate_algebras,
    enumerate_labeled_tables,
    family,
    from_table,
    gap_evidence,
    holds,
    iseki_extension,
    load_catalog,
    parse,
    pi,
    q_algebra,
    save_catalog,
    spectrum,
    tableio,
    tc,
    two,
    verify_conjectures,
)
from conftest import _flags_by_definition


def test_enumerate_tiny_orders():
    assert len(enumerate_algebras(1)) == 1
    assert len(enumerate_algebras(2)) == 1
    assert enumerate_algebras(2).entries[0].algebra.table == ((0, 0), (1, 0))


def test_enumerate_order_3_exact_classes(catalog3):
    assert len(catalog3) == len(catalog3.entries) == 3
    expected = {
        tc().canonical_form(),
        pi().canonical_form(),
        bck_union(two(), two()).canonical_form(),
    }
    assert {e.algebra.table for e in catalog3.entries} == expected


def _records(catalog3):
    # one instance of each public record type of the package, by name
    x, y = terms.Var("x"), terms.Var("y")
    audit = audit_bounds(catalog3)
    out = [x, terms.Zero(), terms.One(), terms.BDot(x, y), terms.Meet(x, y), terms.Join(x, y),
           terms.Neg(x), parse("x . y = x"), check_axioms(3, [[0, 0, 0], [1, 0, 0], [2, 2, 0]]),
           pi(), Degree(1, 2), gap_evidence(builtin("EM"), 5), decompose_commutative(tc()),
           catalog3, catalog3.entries[0], spectrum(catalog3, "dnd"), verify_conjectures(catalog3),
           audit.checks[0], audit]
    return {type(r).__name__: r for r in out}


RECORDS = ["Var", "Zero", "One", "BDot", "Meet", "Join", "Neg", "Equation", "AxiomReport",
           "BckAlgebra", "Degree", "GapEvidence", "ChainDecomposition", "Catalog", "CatalogEntry",
           "SpectrumReport", "ConjectureReport", "AuditCheck", "AuditReport"]


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_pickle(catalog3, name):
    record = _records(catalog3)[name]
    fields = type(record).__match_args__
    assert fields or name in ("Zero", "One")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert pickle.loads(pickle.dumps(record)) == record


def test_catalog_repr_and_equality(monkeypatch, catalog3, catalog4):
    assert repr(enumeration.Catalog(1, ())) == "Catalog(order=1, entries=())"
    assert catalog3 == enumerate_algebras(3)
    assert catalog3 != catalog4
    # a record of another type, either side first, and an algebra
    assert catalog3 != terms.Zero() and terms.Zero() != catalog3
    assert catalog3 != pi()
    # catalogs and entries hash, also after a pickle round trip
    assert hash(catalog3) == hash(enumerate_algebras(3))
    entry = catalog3.entries[-1]
    copy = pickle.loads(pickle.dumps(entry))
    assert copy == entry and hash(copy) == hash(entry)
    # degrees compare by the table, so comparing catalogs counts none
    calls = []

    def counted(*args):
        calls.append(args[0])
        return stack_degrees(*args)

    monkeypatch.setattr(enumeration, "stack_degrees", counted)
    assert enumerate_algebras(5) == enumerate_algebras(5)
    assert calls == []
    assert dict(copy.degrees) == dict(entry.degrees)


def test_enumerate_order_3_against_no_pruning_oracle(catalog3):
    # brute force over all 3^4 assignments of the free cells of a 3x3 table
    # (row 0 and column 0 fixed by the axioms), no pruning, no shared search
    classes = set()
    for vals in itertools.product(range(3), repeat=4):
        t = [[0, 0, 0], [1, vals[0], vals[1]], [2, vals[2], vals[3]]]
        if check_axioms(3, t).ok:
            classes.add(canonical_table(3, t))
    assert sorted(classes) == [e.algebra.table for e in catalog3.entries]


def test_enumerate_order_4_against_no_pruning_oracle(catalog4):
    # every filling of the six free cells of a 4x4 table (row 0, column 0
    # and the diagonal are fixed by the axioms), checked in full; nothing
    # of the search's pruning is used
    free = [(x, y) for x in range(1, 4) for y in range(1, 4) if x != y]
    valid = []
    for vals in itertools.product(range(4), repeat=len(free)):
        t = [[0] * 4] + [[x if y == 0 else 0 for y in range(4)] for x in range(1, 4)]
        for (x, y), v in zip(free, vals):
            t[x][y] = v
        if check_axioms(4, t).ok:
            valid.append(tuple(tuple(row) for row in t))
    assert len(valid) == 67
    assert sorted(valid) == sorted(enumerate_labeled_tables(4))
    assert sorted({canonical_table(4, t) for t in valid}) == [
        e.algebra.table for e in catalog4.entries
    ]
    # each poset task completes exactly the valid fillings whose zeros are
    # its poset's order, x*y = 0 iff x <= y, under its fixed labeling
    tasks = 0
    for down in enumeration._posets(4, None):
        order = [[bool(down[y] >> x & 1) for y in range(4)] for x in range(4)]
        mine = [t for t in valid if [[v == 0 for v in row] for row in t] == order]
        assert sorted(_task_tables(down)) == sorted(mine)
        tasks += len(mine)
    assert tasks == 15


def test_enumerate_order_5_without_propagation(monkeypatch, catalog5):
    # every placement accepted, so the poset tasks fill in every value
    # v <= x and only the leaf check validates: the forcing rules lose no class
    monkeypatch.setattr(enumeration, "_propagate", lambda *args: True)
    cat = enumerate_algebras(5)
    assert [e.algebra.table for e in cat.entries] == [e.algebra.table for e in catalog5.entries]


def _search_work(monkeypatch, search, n):
    # values tried, placements accepted, tables completed and valid tables
    work = [0, 0, 0, 0]
    place, stack_ok = enumeration._place, enumeration._stack_ok

    def counted_place(*place_args):
        added = place(*place_args)
        work[0] += 1
        work[1] += added is not None
        return added

    def counted_ok(stack):
        ok = stack_ok(stack)
        work[2] += len(ok)
        work[3] += int(ok.sum())
        return ok

    monkeypatch.setattr(enumeration, "_place", counted_place)
    monkeypatch.setattr(enumeration, "_stack_ok", counted_ok)
    search(n)
    return tuple(work)


@pytest.mark.parametrize("search, n, work", [
    (enumerate_algebras, 3, (4, 4, 3, 3)),
    (enumerate_algebras, 4, (73, 49, 18, 15)),
    (enumerate_algebras, 5, (1586, 691, 171, 105)),
    (enumerate_algebras, 6, (43200, 13254, 2372, 1013)),
    (enumerate_labeled_tables, 4, (716, 260, 82, 67)),
])
def test_search_work_per_order(monkeypatch, search, n, work):
    # the figures the module docstring and the README quote; a change in
    # them is a change in the pruning
    assert _search_work(monkeypatch, search, n) == work


def test_enumerate_counts_regression_baselines(catalog4, catalog5):
    # counts first computed by this tool and frozen as baselines
    assert len(catalog4) == 14
    assert len(catalog5) == 88


def _burnside_sum(catalog):
    # each class of an order-n catalog has (n-1)!/|Aut| labeled tables
    perms = math.factorial(catalog.order - 1)
    auts = [automorphism_count(catalog.order, e.algebra.table) for e in catalog.entries]
    assert all(perms % a == 0 for a in auts)  # Lagrange
    return sum(perms // a for a in auts)


@pytest.mark.parametrize("n, labeled", [(3, 5), (4, 67), (5, 1735)])
def test_burnside_sum_over_catalog_counts_labeled_tables(small_catalogs, n, labeled):
    # checks the catalog's deduplication by a count it does not use
    assert len(enumerate_labeled_tables(n)) == labeled
    assert _burnside_sum(small_catalogs[n]) == labeled


def _linear_extensions(order, table):
    # relabelings fixing 0 under which x*y = 0 implies x <= y, by brute force
    below = [(x, y) for x in range(1, order) for y in range(1, order)
             if x != y and table[x][y] == 0]
    count = 0
    for perm in itertools.permutations(range(1, order)):
        label = (0,) + perm
        count += all(label[x] < label[y] for x, y in below)
    return count


def _linear_extension_sum(catalog):
    # automorphisms preserve the order and act freely on its linear
    # extensions, so each class has e(P)/|Aut| labelings of that kind
    total = 0
    for e in catalog.entries:
        ext = _linear_extensions(catalog.order, e.algebra.table)
        aut = automorphism_count(catalog.order, e.algebra.table)
        assert ext % aut == 0
        total += ext // aut
    return total


def _zero_free_below_diagonal(table):
    return all(table[x][y] != 0 for x in range(len(table)) for y in range(1, x))


def _task_tables(down):
    # the valid tables one poset's search task completes, in search order
    n = len(down)
    stack = enumeration._complete((n, [enumeration._poset_task(down)], False, None))
    return [tuple(map(tuple, t)) for t in stack.tolist()]


def _relabelings(n):
    # every relabeling fixing 0, as rows old[p] (the element given label i
    # is old[p][i]) and their inverses
    old = np.array([(0, *p) for p in itertools.permutations(range(1, n))], dtype=np.intp)
    return old, np.argsort(old, axis=1)


def _orders(below):
    # brute force over every relabeling of each (n, n) order matrix of a
    # stack (below[x, y]: x <= y): its least relabeled matrix, as bytes, and
    # how many relabelings reach it, which is its automorphism count
    old, _ = _relabelings(below.shape[-1])
    out = []
    for le in below:
        keys = np.packbits(le[old[:, :, None], old[:, None, :]].reshape(len(old), -1), axis=1)
        keys = [k.tobytes() for k in keys]
        out.append((min(keys), keys.count(min(keys))))
    return out


def _poset_matrices(posets):
    n = len(posets[0])
    return np.array([[[down[y] >> x & 1 for y in range(n)] for x in range(n)] for down in posets], bool)


@pytest.mark.parametrize("n, total", [(3, 3), (4, 15), (5, 105), (6, 1013)])
def test_poset_tasks_count_the_labelings_of_their_classes(catalogs_1_to_6, n, total):
    # a class A whose order is isomorphic to the poset P has |Aut(P)| ways to
    # carry its order onto P's fixed labeling, |Aut(A)| of them to each
    # table; so P's task completes the sum of |Aut(P)|/|Aut(A)| over them
    posets = enumeration._posets(n, None)
    keys = {key: (i, aut) for i, (key, aut) in enumerate(_orders(_poset_matrices(posets)))}
    assert len(keys) == len(posets)
    expected = [0] * len(posets)
    cat = catalogs_1_to_6[n]
    tables = np.array([e.algebra.table for e in cat.entries])
    for entry, (key, _) in zip(cat.entries, _orders(tables == 0)):
        i, poset_aut = keys[key]
        aut = automorphism_count(n, entry.algebra.table)
        assert poset_aut % aut == 0
        expected[i] += poset_aut // aut
    found = [_task_tables(down) for down in posets]
    assert [len(tables) for tables in found] == expected
    assert sum(expected) == total
    # and as many distinct classes as the catalog holds
    assert len({canonical_table(n, t) for tables in found for t in tables}) == len(cat)


def test_posets_one_of_each_type_naturally_labeled():
    counts = []
    for n in range(1, 8):
        posets = enumeration._posets(n, None)
        counts.append(len(posets))
        for down in posets:
            assert down[0] == 1 and all(down[y] & 1 for y in range(n))
            assert all(down[y] >> y & 1 and down[y] < 2 << y for y in range(n))  # natural
            # reflexive, antisymmetric and transitive
            for y in range(n):
                for x in range(n):
                    if down[y] >> x & 1:
                        assert x == y or not down[x] >> y & 1
                        assert down[x] & ~down[y] == 0
        if n <= 6:
            keys = [key for key, _ in _orders(_poset_matrices(posets))]
            assert len(set(keys)) == len(keys)
    # posets on 0 to 6 points, with the least element 0 added
    assert counts == [1, 1, 2, 5, 16, 63, 318]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_linear_extension_relabelings_are_the_oracles_tables(small_catalogs, reduced_1_to_6, n):
    # the relabelings derived from the catalog are the full search's tables
    # with no zero below the diagonal, as many as the linear-extension sum
    full = [t for t in enumerate_labeled_tables(n) if _zero_free_below_diagonal(t)]
    assert sorted(full) == reduced_1_to_6[n]
    assert _linear_extension_sum(small_catalogs[n]) == len(full)


@pytest.fixture(scope="module")
def reduced_1_to_6(catalogs_1_to_6):
    # every relabeling of every catalog class with no zero below the
    # diagonal: the relabelings that extend its order, e(P)/|Aut| a class
    out = {}
    for n, cat in catalogs_1_to_6.items():
        old, labels = _relabelings(n)
        below = np.tril(np.ones((n, n), bool), -1)
        below[:, 0] = False
        found = set()
        for e in cat.entries:
            cells = e.algebra.array[old[:, :, None], old[:, None, :]].reshape(len(old), -1)
            relabeled = np.take_along_axis(labels, cells, axis=1).reshape(-1, n, n)
            kept = relabeled[(relabeled[:, below] != 0).all(axis=1)]
            found.update(tuple(map(tuple, t)) for t in kept.tolist())
        out[n] = sorted(found)
    return out


def _check_stacked_canonical_forms(tables, n):
    canon, counts = _stack_canonical(np.array(tables, dtype=np.intp).reshape(-1, n, n))
    assert [tuple(map(tuple, t)) for t in canon.tolist()] == [canonical_table(n, t) for t in tables]
    assert counts.tolist() == [automorphism_count(n, t) for t in tables]


def test_stacked_canonical_forms_match_the_branch_and_bound(reduced_1_to_6):
    # every relabeling of the catalogs of orders 1-6 that extends its order
    assert [len(t) for t in reduced_1_to_6.values()] == [1, 1, 3, 19, 205, 3487]
    for n, tables in reduced_1_to_6.items():
        _check_stacked_canonical_forms(tables, n)


@pytest.mark.parametrize("block_cells", [None, 7 * 24 * 3, 1])
def test_stacked_canonical_forms_in_small_blocks(monkeypatch, reduced_1_to_6, block_cells):
    # the kernel itself at order 3 too, where each table has two relabelings
    # and each row one cell to key; 7 * 24 * 3 cells are 7 order-5 tables a
    # block, the last one short, and 1 cell makes one table a block
    monkeypatch.setattr(algebra_module, "_CANON_MIN_ORDER", 3)
    if block_cells is not None:
        monkeypatch.setattr(algebra_module, "_CANON_BLOCK_CELLS", block_cells)
    for n in (3, 4, 5):
        _check_stacked_canonical_forms(reduced_1_to_6[n], n)


@pytest.mark.parametrize("n, labeled", [(3, 5), (4, 67), (5, 1735), (6, 78216)])
def test_burnside_sum_from_the_stacked_counts(catalogs_1_to_6, n, labeled):
    # the kernel's counts of a catalog's canonical tables are their
    # automorphism counts: (n-1)!/|Aut| labeled tables a class
    stack = np.array([e.algebra.table for e in catalogs_1_to_6[n].entries], dtype=np.intp)
    canon, counts = _stack_canonical(stack)
    assert np.array_equal(canon, stack)
    assert sum(math.factorial(n - 1) // c for c in counts.tolist()) == labeled


def test_stacked_canonical_memory_is_bounded_by_its_blocks(reduced_1_to_6):
    # row 1 of the 3,487 order-6 tables under all 120 relabelings alone
    # would take 3487 * 120 * 4 * 8 B = 13 MB as one intp array
    stack = np.array(reduced_1_to_6[6], dtype=np.intp)
    _stack_canonical(stack[:1])  # the order's relabelings are made once, before
    tracemalloc.start()
    try:
        _stack_canonical(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the canonical tables, the size of the stack, and a few arrays over one block
    assert peak < stack.nbytes + 3 * 8 * _CANON_BLOCK_CELLS < len(stack) * 120 * 4 * 8 // 4


def test_enumerate_order_6_regression_baseline():
    cat = enumerate_algebras(6, jobs=8)
    assert len(cat) == 775
    assert sum(1 for e in cat.entries if e.algebra.bound is not None) == 267
    assert sum(1 for e in cat.entries if e.commutative) == 28
    assert _burnside_sum(cat) == 78216
    assert _linear_extension_sum(cat) == 3487


def test_dedup_is_sound_at_order_4(catalog4):
    labeled = enumerate_labeled_tables(4)
    reduced = sorted({canonical_table(4, t) for t in labeled})
    assert reduced == [e.algebra.table for e in catalog4.entries]
    assert len(labeled) >= len(catalog4)


def test_every_catalog_algebra_passes_axioms(small_catalogs):
    for cat in small_catalogs.values():
        for e in cat.entries:
            assert check_axioms(e.algebra.order, e.algebra.table).ok


def test_catalog_entries_sorted_and_canonical(small_catalogs):
    for cat in small_catalogs.values():
        tables = [e.algebra.table for e in cat.entries]
        assert tables == sorted(tables)
        assert all(canonical_table(cat.order, t) == t for t in tables)


def test_known_algebras_appear_in_catalogs(catalog4, catalog5):
    in4 = [e.algebra for e in catalog4.entries]
    for alg in (chain(4), d_algebra(3), iseki_extension(tc()), bck_union(pi(), two()),
                bck_union(tc(), two()), bck_union(two(), bck_union(two(), two())),
                direct_product(two(), two()), q_algebra(4)):
        assert any(alg.is_isomorphic(b) for b in in4)
    in5 = [e.algebra for e in catalog5.entries]
    for alg in (chain(5), d_algebra(4), q_algebra(5), iseki_extension(d_algebra(3))):
        assert any(alg.is_isomorphic(b) for b in in5)


def test_enumerate_parallel_matches_serial(catalog4):
    for jobs in (2, 8):
        cat = enumerate_algebras(4, jobs=jobs)
        assert [e.algebra.table for e in cat.entries] == [
            e.algebra.table for e in catalog4.entries
        ]


class _PoolSpy:
    """Stands in for ``multiprocessing.Pool`` and records each start."""

    def __init__(self, starts):
        self.starts, self.pool = starts, multiprocessing.Pool

    def __call__(self, processes):
        self.starts.append(processes)
        return self.pool(processes)


def test_enumerate_through_the_pool_matches_serial(monkeypatch, catalog4):
    # order 4 runs serially unless the pool's lowest order is lowered; it
    # has one search task per poset, 5 in all, so 8 jobs start 5 workers
    starts = []
    monkeypatch.setattr(multiprocessing, "Pool", _PoolSpy(starts))
    monkeypatch.setattr(enumeration, "_POOL_MIN_ORDER", 4)
    for jobs in (2, 8):
        cat = enumerate_algebras(4, jobs=jobs)
        assert [e.algebra.table for e in cat.entries] == [e.algebra.table for e in catalog4.entries]
    assert starts == [2, 5]


def test_enumerate_order_5_starts_no_pool(monkeypatch, catalog5):
    starts = []
    monkeypatch.setattr(multiprocessing, "Pool", _PoolSpy(starts))
    cat = enumerate_algebras(5, jobs=2)
    assert [e.algebra.table for e in cat.entries] == [e.algebra.table for e in catalog5.entries]
    assert starts == []


def test_enumeration_node_limit_aborts():
    # the message reports the placements accepted, and the valid tables
    # completed, in the task that ran out, not the budget
    msg = "enumeration aborted after 39 placements with 2 tables completed"
    with pytest.raises(EnumerationLimitError, match=f"^{msg}$") as exc:
        enumerate_algebras(5, max_nodes=100)
    assert (exc.value.nodes, exc.value.found) == (39, 2)


def test_enumeration_node_limit_covers_the_posets():
    # the posets on 5 elements take 38 to build, one for each candidate:
    # each task then has a fresh budget, and a smaller one runs out before
    # any task starts
    enumeration._posets(5, [38, 0])
    with pytest.raises(EnumerationLimitError, match="^enumeration aborted after 37 placements"):
        enumeration._posets(5, [37, 0])
    with pytest.raises(EnumerationLimitError) as exc:
        enumerate_algebras(5, max_nodes=20)
    assert (exc.value.nodes, exc.value.found) == (20, 0)


def test_enumeration_warns_above_practical_ceiling():
    with pytest.warns(RuntimeWarning):
        with pytest.raises(EnumerationLimitError):
            enumerate_algebras(9, max_nodes=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnumerationLimitError):
            enumerate_algebras(8, max_nodes=10)


@pytest.mark.parametrize("budget, stop", [(200, (60, 1)), (500, (129, 1)), (1500, (359, 6))])
def test_a_budgeted_search_starts_no_pool(monkeypatch, budget, stop):
    # an abort found in this process is the serial one, whatever jobs is
    def no_pool(processes):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for jobs in (1, 2):
        with pytest.raises(EnumerationLimitError) as exc:
            enumerate_algebras(6, jobs=jobs, max_nodes=budget)
        assert (exc.value.nodes, exc.value.found) == stop


def test_enumeration_limit_error_pickles():
    # a pool hands a worker's exception back pickled
    exc = pickle.loads(pickle.dumps(EnumerationLimitError(39, 2)))
    assert type(exc) is EnumerationLimitError and (exc.nodes, exc.found) == (39, 2)
    assert str(exc) == "enumeration aborted after 39 placements with 2 tables completed"


def test_implicative_iff_commutative_and_positive_implicative(small_catalogs):
    for cat in small_catalogs.values():
        for e in cat.entries:
            assert e.implicative == (e.commutative and e.positive_implicative)


def test_spectrum_order_3_dnd(catalog3):
    rep = spectrum(catalog3, "dnd")
    assert [d.reduced for d in rep.possible] == ["2/3", "1"]
    assert [d.reduced for d in rep.achieved] == ["2/3", "1"]
    assert rep.missing == () and rep.outside_possible == ()
    assert rep.witnesses[Degree(2, 3)].is_isomorphic(pi())
    assert rep.witnesses[Degree(1, 1)].is_isomorphic(tc())


def test_spectrum_order_3_cd(catalog3):
    rep = spectrum(catalog3, "cd")
    assert [d.reduced for d in rep.possible] == ["7/9", "1"]
    assert [d.reduced for d in rep.achieved] == ["7/9", "1"]
    assert rep.missing == ()
    assert rep.witnesses[Degree(7, 9)].is_isomorphic(pi())


def test_spectrum_dnd_skips_unbounded(catalog3):
    rep = spectrum(catalog3, "dnd")
    union = bck_union(two(), two())
    assert all(not w.is_isomorphic(union) for w in rep.witnesses.values())


def test_spectrum_of_commutative_entries_is_one(small_catalogs):
    for cat in small_catalogs.values():
        for e in cat.entries:
            if e.commutative:
                assert e.degrees["cd"] == 1


def test_spectrum_rejects_unknown_kind(catalog3):
    with pytest.raises(ValueError):
        spectrum(catalog3, "xyz")


def test_spectrum_computes_only_its_kind(monkeypatch):
    # each kind is counted for the whole catalog when first read, so a
    # spectrum of one kind counts that kind once and no other kind at all
    calls = []
    stack_degrees = enumeration.stack_degrees

    def counted(kind, *args):
        calls.append(kind)
        return stack_degrees(kind, *args)

    monkeypatch.setattr(enumeration, "stack_degrees", counted)
    cat = enumerate_algebras(4)
    rep = spectrum(cat, "cd")
    spectrum(cat, "cd")
    assert calls == ["cd"]
    assert rep.achieved == tuple(sorted({e.degrees["cd"] for e in enumerate_algebras(4).entries}))


def test_spectrum_achieved_within_possible(catalog4, catalog5):
    for cat in (catalog4, catalog5):
        for kind in ("dnd", "cd"):
            assert spectrum(cat, kind).outside_possible == ()


def test_verify_conjectures_orders_3_4(catalog3, catalog4):
    for cat in (catalog3, catalog4):
        rep = verify_conjectures(cat)
        assert rep.passed
        assert rep.dnd.missing == () and rep.cd.missing == ()


def test_verify_conjectures_requires_order_3():
    with pytest.raises(ValueError):
        verify_conjectures(enumerate_algebras(2))


def test_audit_bound_checks_hold(catalog3, catalog4):
    # the universal bound and characterization checks hold on real catalogs,
    # with two documented exceptions tested separately below
    for cat in (catalog3, catalog4):
        rep = audit_bounds(cat)
        for name in (
            "cd_bounds_noncommutative",
            "pid_bounds_not_positive_implicative",
            "id_bounds_not_implicative",
            "pid_linear_lower_bound",
            "id_linear_lower_bound",
            "cd_one_iff_commutative",
            "pid_one_iff_positive_implicative",
            "id_one_iff_implicative",
        ):
            assert rep.check(name).passed, rep.check(name)


def test_audit_finds_involutive_noncommutative_dnd_counterexample(catalog4):
    # a bounded linear non-commutative algebra whose negation is an
    # involution: dnd = 1 exceeds the claimed (n-1)/n ceiling, so the audit
    # must report it rather than pass
    rep = audit_bounds(catalog4).check("dnd_bounds_noncommutative_bounded")
    assert not rep.passed
    witness = ((0, 0, 0, 0), (1, 0, 0, 0), (2, 2, 0, 0), (3, 2, 1, 0))
    assert witness in [tab for tab, _ in rep.counterexamples]
    alg = from_table(4, witness)
    assert alg.bound == 3 and not alg.is_commutative()
    assert all(alg.neg(alg.neg(x)) == x for x in alg.elements)


def test_audit_finds_undecomposable_commutative_unions(catalog3, catalog4):
    # unbounded commutative algebras need not factor into chains; the
    # smallest example is the union of two 2-element chains
    rep3 = audit_bounds(catalog3).check("chain_decomposition_commutative")
    assert not rep3.passed
    assert [tab for tab, _ in rep3.counterexamples] == [bck_union(two(), two()).canonical_form()]
    rep4 = audit_bounds(catalog4).check("chain_decomposition_commutative")
    assert not rep4.passed
    assert len(rep4.counterexamples) == 3
    for tab, _ in rep4.counterexamples:
        alg = from_table(4, tab)
        assert alg.is_commutative() and alg.bound is None


def test_audit_chain_decomposition_succeeds_on_bounded_commutative(small_catalogs):
    from bck import decompose_commutative

    checked = 0
    for cat in small_catalogs.values():
        for e in cat.entries:
            if e.commutative and e.algebra.bound is not None:
                dec = decompose_commutative(e.algebra)
                assert math.prod(dec.chain_lengths) == e.algebra.order, (e.algebra.table, dec)
                checked += 1
    assert checked >= 1


def test_catalog_persistence_round_trip(tmp_path, catalog4):
    save_catalog(catalog4, tmp_path / "cat4")
    loaded = load_catalog(tmp_path / "cat4")
    assert loaded.order == catalog4.order
    assert [e.algebra.table for e in loaded.entries] == [
        e.algebra.table for e in catalog4.entries
    ]
    for a, b in zip(loaded.entries, catalog4.entries):
        assert a.algebra.bound == b.algebra.bound
        assert a.linear == b.linear
        assert a.commutative == b.commutative
        assert {k: v for k, v in a.degrees.items()} == {k: v for k, v in b.degrees.items()}


def test_save_catalog_removes_stale_table_files(tmp_path, catalog3, catalog4):
    d = tmp_path / "cat"
    save_catalog(catalog4, d)
    (d / "notes.txt").write_text("kept")
    save_catalog(catalog3, d)
    index = json.loads((d / "index.json").read_text())
    tables = sorted(p.name for p in d.iterdir() if p.suffix == ".tbl")
    assert len(index["algebras"]) == 3
    assert tables == sorted(rec["file"] for rec in index["algebras"])
    assert (d / "notes.txt").read_text() == "kept"
    assert load_catalog(d) == catalog3


def test_saved_index_is_compact_and_loads_under_the_cap(tmp_path, monkeypatch, catalog5):
    # order 5's index is 28,971 bytes on one line, 55,107 indented as before
    d = tmp_path / "cat5"
    monkeypatch.setattr(tableio, "MAX_FILE_BYTES", 40_000)
    save_catalog(catalog5, d)
    text = (d / "index.json").read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert load_catalog(d) == catalog5
    # an indented index, as earlier saves wrote it, loads while within the cap
    (d / "index.json").write_text(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")
    with pytest.raises(tableio.TableFormatError, match="larger than 40000 bytes"):
        load_catalog(d)
    monkeypatch.undo()
    assert load_catalog(d) == catalog5


def test_failed_save_leaves_the_earlier_index_whole(tmp_path, monkeypatch, catalog3, catalog4):
    d = tmp_path / "cat"
    save_catalog(catalog3, d)
    before = (d / "index.json").read_bytes()

    def broken(self, o, _one_shot=False):
        raise RuntimeError("encoder failed")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", broken)
    with pytest.raises(RuntimeError, match="encoder failed"):
        save_catalog(catalog4, d)
    monkeypatch.undo()
    assert (d / "index.json").read_bytes() == before
    assert not (d / "index.json.part").exists()
    assert load_catalog(d) == catalog3


def test_failed_save_leaves_every_earlier_file_whole(tmp_path, monkeypatch, catalog4):
    # a table file is rewritten by every save that holds its algebra; a
    # write cut off half way leaves a .part file, which the next save sweeps
    d = tmp_path / "cat"
    save_catalog(catalog4, d)
    before = {p.name: p.read_bytes() for p in d.iterdir()}
    opened = []

    class HalfWritten:
        def __init__(self, path, *args, **kwargs):
            self.file = open(path, *args, **kwargs)
            opened.append(path)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, text):
            if len(opened) == 3:
                self.file.write(text[: len(text) // 2])
                raise OSError("disk full")
            return self.file.write(text)

    monkeypatch.setattr(enumeration, "open", HalfWritten, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_catalog(catalog4, d)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in d.iterdir() if p.suffix != ".part"} == before
    assert len([p for p in d.iterdir() if p.name.endswith(".tbl.part")]) == 1
    assert load_catalog(d) == catalog4
    save_catalog(catalog4, d)
    assert {p.name: p.read_bytes() for p in d.iterdir()} == before


def _index_record(dirpath, table):
    index = json.loads((dirpath / "index.json").read_text())
    for rec in index["algebras"]:
        if tableio.loads((dirpath / rec["file"]).read_text())[1] == table:
            return index, rec
    raise AssertionError(f"{table} not in the catalog")


def test_load_catalog_recomputes_tampered_degrees(tmp_path, catalog3):
    # a stored cd of 1/9 for an algebra whose cd is 7/9 must not reach the audit
    save_catalog(catalog3, tmp_path / "cat3")
    index, rec = _index_record(tmp_path / "cat3", [[0, 0, 0], [1, 0, 0], [2, 2, 0]])
    rec["degrees"]["cd"] = {"count": 1, "total": 9, "reduced": "1/9"}
    rec["commutative"] = True
    (tmp_path / "cat3" / "index.json").write_text(json.dumps(index))
    loaded = load_catalog(tmp_path / "cat3")
    assert loaded == catalog3
    assert audit_bounds(loaded) == audit_bounds(catalog3)


def test_load_catalog_rejects_table_of_another_order(tmp_path, catalog3):
    save_catalog(catalog3, tmp_path / "cat3")
    _, rec = _index_record(tmp_path / "cat3", [[0, 0, 0], [1, 0, 0], [2, 2, 0]])
    (tmp_path / "cat3" / rec["file"]).write_text(tableio.dumps(4, chain(4).table))
    with pytest.raises(MalformedTableError, match="has order 4, but the catalog index says 3"):
        load_catalog(tmp_path / "cat3")


# --- a catalog is loaded, checked and profiled as one stacked table array ----

def _load_per_file(dirpath):
    # the former loader, file by file in index order: the oracle of what a
    # bad catalog must raise
    index = json.loads((dirpath / "index.json").read_text())
    for rec in index["algebras"]:
        algebra = tableio.load_algebra(dirpath / rec["file"])
        if algebra.order != index["order"]:
            raise MalformedTableError(
                f"{rec['file']} has order {algebra.order}, but the catalog index says {index['order']}"
            )


# a fault written over one table file of an order-4 catalog, and the exit
# code `bck audit`/`bck spectrum --catalog` give for it
LOAD_FAULTS = {
    "axioms": ("4\n0 0 0 0\n1 0 0 0\n2 2 0 0\n3 3 3 1\n", 1),
    "order": (tableio.dumps(3, chain(3).table), 2),
    "order_and_axioms": ("3\n0 0 0\n1 0 0\n2 2 1\n", 1),
    "malformed": ("4\n0 0 0 0\n1 0 0\n", 2),
    "missing": (None, 2),
    "not_utf8": (b"\xff\xfe", 2),
}


def _break(path, fault):
    text = LOAD_FAULTS[fault][0]
    if text is None:
        path.unlink()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # any exception: its type and message are compared
        return type(exc), str(exc)
    return None


@pytest.fixture(scope="module")
def saved_catalog4(tmp_path_factory, catalog4):
    path = tmp_path_factory.mktemp("cat4")
    save_catalog(catalog4, path)
    files = [rec["file"] for rec in json.loads((path / "index.json").read_text())["algebras"]]
    return path, files


def _faulty_copy(tmp_path, saved, faults):
    path, files = saved
    copy = tmp_path / "cat"
    shutil.copytree(path, copy)
    for i, fault in faults.items():
        _break(copy / files[i], fault)
    return copy


@pytest.mark.parametrize("first", LOAD_FAULTS)
@pytest.mark.parametrize("second", [None, *LOAD_FAULTS])
def test_load_catalog_raises_what_the_per_file_loop_raises(tmp_path, saved_catalog4, first, second):
    # the first bad file in index order decides, whatever its fault and
    # whatever the faults after it
    faults = {3: first} if second is None else {3: first, 9: second}
    cat = _faulty_copy(tmp_path, saved_catalog4, faults)
    expected = _raised(_load_per_file, cat)
    assert expected is not None
    assert _raised(load_catalog, cat) == expected


@pytest.mark.parametrize("fault", LOAD_FAULTS)
def test_bad_catalog_exit_codes(capsys, tmp_path, saved_catalog4, fault):
    cat = _faulty_copy(tmp_path, saved_catalog4, {5: fault})
    _, message = _raised(_load_per_file, cat)
    for argv in (["audit", "--order", "4"], ["spectrum", "--order", "4", "--kind", "cd"]):
        code = cli_main([*argv, "--catalog", str(cat)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (LOAD_FAULTS[fault][1], "", f"error: {message}\n")


def _set_file(value):
    # the index with entry 2's file name set to value, or removed if None
    def edit(index):
        rec = index["algebras"][2]
        del rec["file"]
        if value is not None:
            rec["file"] = value
        return index

    return edit


# an index.json of the wrong shape, and the message naming its fault
INDEX_FAULTS = {
    "no_order": (lambda index: {k: v for k, v in index.items() if k != "order"},
                 "catalog index order must be a positive integer, got None"),
    "bool_order": (lambda index: dict(index, order=True),
                   "catalog index order must be a positive integer, got True"),
    "negative_order": (lambda index: dict(index, order=-1, algebras=[]),
                       "catalog index order must be a positive integer, got -1"),
    "list": (lambda index: index["algebras"], "catalog index must be a JSON object, got list"),
    "algebras_not_list": (lambda index: dict(index, algebras={}),
                          "catalog index algebras must be a list of objects"),
    "entry_not_object": (lambda index: dict(index, algebras=["x.tbl"]),
                         "catalog index algebras must be a list of objects"),
    "no_file": (_set_file(None), "catalog index entry 2 needs a plain file name, got None"),
    "file_not_string": (_set_file(7), "catalog index entry 2 needs a plain file name, got 7"),
    "file_outside": (_set_file("../x"),
                     "catalog index entry 2 needs a plain file name, got '../x'"),
    "file_twice": (lambda index: dict(index, algebras=index["algebras"] + index["algebras"][:1]),
                   "catalog index entry 14 repeats the file of entry 0"),
}


@pytest.mark.parametrize("fault", INDEX_FAULTS)
def test_malformed_catalog_index_exits_2(capsys, tmp_path, saved_catalog4, fault):
    # checked before any table is read: "../x" names a valid order-4 table
    cat = _faulty_copy(tmp_path, saved_catalog4, {})
    (tmp_path / "x").write_text(tableio.dumps(4, chain(4).table))
    edit, message = INDEX_FAULTS[fault]
    index = json.loads((cat / "index.json").read_text())
    (cat / "index.json").write_text(json.dumps(edit(index)))
    with pytest.raises(tableio.TableFormatError) as exc:
        load_catalog(cat)
    assert str(exc.value) == message
    for argv in (["audit", "--order", "4"], ["spectrum", "--order", "4", "--kind", "cd"]):
        code = cli_main([*argv, "--catalog", str(cat)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def _noisy_copies(catalog):
    # each entry with one cell moved to the next value: mostly not algebras
    out = []
    for i, e in enumerate(catalog.entries):
        t = [list(row) for row in e.algebra.table]
        n = catalog.order
        x, y = 1 + i % max(1, n - 1), (i // max(1, n - 1)) % n
        if n > 1:
            t[x][y] = (t[x][y] + 1) % n
        out.append(t)
    return out


@pytest.fixture(scope="module")
def catalogs_1_to_6(small_catalogs):
    return {**small_catalogs, 6: enumerate_algebras(6)}


def _check_stack_against_check_small(tables, n):
    stack = np.array(tables, dtype=np.intp).reshape(-1, n, n)
    expected = [not _check_small(n, t) for t in stack.tolist()]
    assert _stack_ok(stack).tolist() == expected
    return expected


@pytest.mark.parametrize("block_cells", [None, 7 * 25, 1])
def test_stacked_check_agrees_with_check_small(monkeypatch, catalogs_1_to_6, block_cells):
    # 7 * 25 cells are 7 rows of an order-5 table: the BCK1 blocks split
    # tables. 1 cell makes every BCK1 block one row of x, so a block ends
    # inside the pairs of every table, and a block of the pairs x*y != 0
    # that the kernel keeps joins rows of several tables.
    if block_cells is not None:
        monkeypatch.setattr(algebra_module, "_BCK1_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(algebra_module, "_BLOCK_CELLS", block_cells)
    for n, cat in catalogs_1_to_6.items():
        assert all(_check_stack_against_check_small([e.algebra.table for e in cat.entries], n))
        noisy = _check_stack_against_check_small(_noisy_copies(cat), n)
        assert n < 3 or not all(noisy)
    # every fill of the free cells of an order-4 table, as in the oracle above
    free = [(x, y) for x in range(1, 4) for y in range(1, 4) if x != y]
    fills = []
    for vals in itertools.product(range(4), repeat=len(free)):
        t = [[0] * 4] + [[x if y == 0 else 0 for y in range(4)] for x in range(1, 4)]
        for (x, y), v in zip(free, vals):
            t[x][y] = v
        fills.append(t)
    assert len(fills) == 4096
    assert sum(_check_stack_against_check_small(fills, 4)) == 67


def _stack_reports(stack):
    # each table's violations, as _check_small lists them, read off the
    # stacked check's first witnesses
    k, n = len(stack), stack.shape[-1]
    reports = [[] for _ in range(k)]
    for axiom, arity, first in algebra_module._stack_witnesses(stack):
        for i in np.flatnonzero(first < n**arity).tolist():
            reports[i].append((axiom, tuple(map(int, np.unravel_index(first[i], (n,) * arity)))))
    return reports


@pytest.mark.parametrize("block_cells", [None, 7 * 64, 1])
def test_stacked_witnesses_agree_with_check_small(monkeypatch, block_cells):
    # valid and corrupted tables mixed in one stack at each of orders 4-12:
    # every table's first witness per class is _check_small's. Small blocks
    # make the BCK1 blocks and the gather kernel's blocks split and span tables.
    if block_cells is not None:
        monkeypatch.setattr(algebra_module, "_BCK1_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(algebra_module, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(18)
    for n in range(4, 13):
        tables = []
        for name in FAMILY_NAMES:
            sigma = [0, *(1 + rng.permutation(n - 1)).tolist()]
            m = n - 1 if name == "D" else n  # D_m has order m + 1
            valid = family(name, m).relabel(sigma).array
            tables.append(valid)
            for cells in (1, 2, 3):
                bad = valid.copy()
                for _ in range(cells):
                    bad[rng.integers(n), rng.integers(n)] = rng.integers(n)
                tables.append(bad)
        stack = np.stack(tables)
        expected = [_check_small(n, t) for t in stack.tolist()]
        assert _stack_reports(stack) == expected
        assert any(expected) and not all(expected)
        # each table alone, as the stack of one that a single table's check reads
        assert [_stack_reports(t[None])[0] for t in stack] == expected


def test_stacked_flags_and_degrees_agree_with_per_algebra(catalogs_1_to_6):
    for cat in catalogs_1_to_6.values():
        for e in cat.entries:
            a = e.algebra
            assert (e.linear, e.commutative, e.positive_implicative, e.implicative) == (
                _flags_by_definition(a)[:4]
            )
            for kind, fn in DEGREE_FUNCTIONS.items():
                d = e.degrees[kind]
                if a.bound is None and kind in ("emd", "dnd"):
                    assert d is None
                else:
                    want = fn(a)
                    assert (d.count, d.total, d.note) == (want.count, want.total, want.note)


def test_stacked_degrees_in_blocks(monkeypatch, catalog5):
    # with 7 cells per table a block spans the stack but cuts the grid
    monkeypatch.setattr(algebra_module, "_BLOCK_CELLS", 7 * len(catalog5))
    stack = np.array([e.algebra.table for e in catalog5.entries], dtype=np.intp)
    for kind in ("cd", "pid", "id"):
        eq = builtin(DEGREE_KINDS[kind].equation)
        assert ds_stack(stack, eq) == [e.degrees[kind].count for e in catalog5.entries]
    x_is_x = parse("x = x")
    assert ds_stack(stack, x_is_x) == [5] * len(catalog5)


@pytest.mark.parametrize("block_cells", [None, 7])
def test_ds_of_a_table_is_its_count_in_a_mixed_stack(monkeypatch, block_cells):
    # ds reads one table as the stack of one (two-index gathers, an int
    # bound, no table axis); ds_stack reads it among others with a table
    # axis. Both count what the tree walk counts on the algebra. With 7
    # cells a block, ds's blocks are rows of the grid and ds_stack's one
    # cell of each table.
    if block_cells is not None:
        monkeypatch.setattr(algebra_module, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(20)
    algebras = [family(name, 7) for name in ("C", "Q", "B", "M", "P", "Pprime")] + [d_algebra(6)]
    algebras += [a.relabel([0, *(1 + rng.permutation(6)).tolist()]) for a in algebras]
    # "x = x" reads no cell, "x | ~x = 1" needs a bound
    for text in ("0 = 0", "x = x", "x | ~x = 1", "(x . y) & z = ~(z . (x . y))", "x . (y . z) = y & x"):
        eq = parse(text)
        needs_bound = "1" in text or "~" in text
        held = [a for a in algebras if a.bound is not None] if needs_bound else algebras
        bounds = np.array([a.bound for a in held]) if needs_bound else None
        counts = ds_stack(np.stack([a.array for a in held]), eq, bounds)
        for a, count in zip(held, counts):
            want = sum(
                holds(a, eq, dict(zip(eq.vars, xs)))
                for xs in itertools.product(a.elements, repeat=eq.arity)
            )
            d = ds(a, eq)
            assert (d.count, d.total) == (count, 7**eq.arity) and count == want, (text, a.table)
        # a stack of no tables, as a catalog with no bounded table gives
        assert ds_stack(np.zeros((0, 7, 7), np.intp), eq, bounds[:0] if needs_bound else None) == []
    with pytest.raises(UnboundedAlgebraError):
        ds(family("B", 7), parse("x | ~x = 1"))


def test_load_catalog_memory_is_bounded(tmp_path):
    # three order-128 tables: their BCK1 triples would take 3 * 128^3 * 8 B
    # = 50 MB as one intp array
    tables = [chain(128), family("Q", 128), family("B", 128)]
    index = {"order": 128, "algebras": []}
    for i, a in enumerate(tables):
        tableio.dump_algebra(tmp_path / f"{i}.tbl", a)
        index["algebras"].append({"file": f"{i}.tbl"})
    (tmp_path / "index.json").write_text(json.dumps(index))
    stack_bytes = 3 * 128 * 128 * 8
    tracemalloc.start()
    try:
        loaded = load_catalog(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.algebra for e in loaded.entries] == tables
    assert peak < 12 * stack_bytes < 3 * 128**3 * 8 // 4
