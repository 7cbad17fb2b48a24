import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from bck import (
    FAMILY_NAMES,
    BckAxiomError,
    MalformedTableError,
    UnboundedAlgebraError,
    automorphism_count,
    bck_union,
    chain,
    check_axioms,
    d_algebra,
    direct_product,
    enumerate_algebras,
    enumerate_labeled_tables,
    family,
    from_table,
    pi,
    q_algebra,
    tc,
    trivial,
    two,
)
from bck import algebra
from bck.algebra import _BCK1_BLOCK_CELLS, _BLOCK_CELLS, _check_small, canonical_table
from conftest import _flags_by_definition

PI_TABLE = [[0, 0, 0], [1, 0, 0], [2, 2, 0]]
TC_TABLE = [[0, 0, 0], [1, 0, 0], [2, 1, 0]]
UNION_22_TABLE = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]


def test_check_axioms_pi_is_clean():
    assert check_axioms(3, PI_TABLE).ok


def test_check_axioms_bck4_violation():
    report = check_axioms(2, [[0, 1], [1, 0]])
    assert not report.ok
    assert report.witness("BCK4") == (1,)


def test_check_axioms_bck5_violation():
    report = check_axioms(3, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert report.witness("BCK5") == (1, 2)


def test_check_axioms_bck3_violation():
    report = check_axioms(2, [[0, 0], [1, 1]])
    assert report.witness("BCK3") == (1,)


def test_malformed_tables_raise_structural_error():
    with pytest.raises(MalformedTableError):
        check_axioms(2, [[0, 0]])
    with pytest.raises(MalformedTableError):
        check_axioms(2, [[0, 0], [1, 0, 0]])
    with pytest.raises(MalformedTableError):
        check_axioms(2, [[0, 5], [1, 0]])
    with pytest.raises(MalformedTableError):
        check_axioms(0, [])


@pytest.mark.parametrize(
    "order, table, message",
    [
        # each bad table has a second bad cell at (1,1); the first one counts
        (2, [[0, True], [1, 2]], "entry (0,1) = True outside [0, 2)"),
        (2, [[0, 0.0], [1, 2]], "entry (0,1) = 0.0 outside [0, 2)"),
        (2, [[0, np.float64(0)], [1, 2]], "entry (0,1) = np.float64(0.0) outside [0, 2)"),
        (2, [[0, "0"], [1, 2]], "entry (0,1) = '0' outside [0, 2)"),
        (2, [[0, -1], [1, 2]], "entry (0,1) = -1 outside [0, 2)"),
        (2, [[0, 2], [1, 2]], "entry (0,1) = 2 outside [0, 2)"),
        (2, [[0, 0], [1]], "row 1 has 1 entries, expected 2"),
        (2, [[0, 0]], "expected 2 rows, got 1"),
        (0, [], "order must be a positive integer, got 0"),
        (2.0, [[0, 0], [1, 0]], "order must be a positive integer, got 2.0"),
        (True, [[0]], "order must be a positive integer, got True"),
        (2, [[np.int8(0), np.int8(0)], [np.int8(1), np.int8(0)]], None),
        (2, np.array([[0, 0], [1, 0]], dtype=np.intp), None),
        (2, ((0, 0), (1, 0)), None),
    ],
)
def test_shape_check(order, table, message):
    if message is None:
        assert check_axioms(order, table).ok
        assert from_table(order, table) == two()
        if isinstance(table, np.ndarray):
            assert table.flags.writeable  # the algebra keeps a copy
        return
    for check in (check_axioms, from_table):
        with pytest.raises(MalformedTableError, match=f"^{re.escape(message)}$"):
            check(order, table)


def test_from_table_rejects_invalid_with_report():
    with pytest.raises(BckAxiomError) as exc:
        from_table(2, [[0, 1], [1, 0]])
    assert exc.value.report.witness("BCK4") == (1,)


def test_from_table_detects_bound():
    assert from_table(3, TC_TABLE).bound == 2
    assert trivial().bound == 0
    assert from_table(3, UNION_22_TABLE).bound is None


def test_basic_ops_on_pi():
    a = pi()
    assert a.op(2, 1) == 2
    assert all(a.op(x, x) == 0 for x in a.elements)
    assert all(a.op(x, 0) == x for x in a.elements)


def test_leq():
    assert tc().leq(1, 2)
    u = from_table(3, UNION_22_TABLE)
    assert not u.leq(1, 2) and not u.leq(2, 1)
    assert all(u.leq(0, x) for x in u.elements)


def test_meet_examples():
    a = pi()
    assert a.meet(1, 2) == 0
    assert a.meet(2, 1) == 1
    for alg in (pi(), tc(), chain(5)):
        assert all(alg.meet(x, x) == x for x in alg.elements)


def test_neg():
    c3 = chain(3)
    assert c3.neg(1) == 1
    for alg in (pi(), tc(), chain(4), d_algebra(4)):
        assert alg.neg(0) == alg.bound and alg.neg(alg.bound) == 0
        # triple negation always collapses to single negation
        assert all(alg.neg(alg.neg(alg.neg(x))) == alg.neg(x) for x in alg.elements)


def test_neg_join_require_bound():
    u = from_table(3, UNION_22_TABLE)
    with pytest.raises(UnboundedAlgebraError):
        u.neg(1)
    with pytest.raises(UnboundedAlgebraError):
        u.join(1, 2)


def test_join_on_chain_matches_arithmetic_oracle():
    # in C_n: ~k = n-1-k and x*y = max(x-y, 0), so the join term can be
    # computed by integer arithmetic independently of the table
    for n in (3, 4, 5, 6):
        alg = chain(n)

        def oracle(x, y):
            nx, ny = n - 1 - x, n - 1 - y
            m = max(ny - max(ny - nx, 0), 0)
            return n - 1 - m

        for x in range(n):
            for y in range(n):
                assert alg.join(x, y) == oracle(x, y)
    assert chain(4).join(1, 2) == 2


def test_join_of_neg_on_c3_is_not_top():
    c3 = chain(3)
    assert c3.join(1, c3.neg(1)) == 1


def test_property_flags_on_named_algebras():
    a, t, d = pi(), tc(), two()
    assert a.bound == 2 and a.is_linear()
    assert not a.is_commutative() and a.is_positive_implicative() and not a.is_implicative()
    assert t.bound == 2 and t.is_linear()
    assert t.is_commutative() and not t.is_positive_implicative() and not t.is_implicative()
    assert d.is_implicative() and d.is_commutative() and d.is_positive_implicative()


def test_atoms():
    assert family("B", 5).atoms() == {1, 3, 4}
    assert len(family("B", 5).atoms()) == 3
    assert chain(6).atoms() == {1}
    assert from_table(3, UNION_22_TABLE).atoms() == {1, 2}


def test_array_is_the_table():
    for alg in (pi(), chain(7), family("B", 9), from_table(3, UNION_22_TABLE)):
        t = alg.array
        assert t.dtype == np.intp and not t.flags.writeable
        assert t.tolist() == [list(row) for row in alg.table]
        assert "array" not in repr(alg)
    other = from_table(3, PI_TABLE)
    assert other == pi() and hash(other) == hash(pi()) and other.array is not pi().array
    # every public value is a plain Python scalar, so reports stay JSON
    alg = family("M", 6)
    flags = [alg.is_linear(), alg.is_commutative(), alg.is_positive_implicative(),
             alg.is_implicative()]
    assert all(type(f) is bool for f in flags)
    assert type(alg.bound) is int and all(type(a) is int for a in alg.atoms())
    assert all(type(v) is int for row in alg.table for v in row)
    json.dumps([alg.table, alg.bound, flags, sorted(alg.atoms())])


def test_equality_and_hash_do_not_read_the_table():
    # the tuple view is made when first read, and equality and hashing go by
    # the order, the bound and the array's bytes
    for make in (pi, tc, lambda: chain(7), lambda: family("B", 9)):
        unread, read = make(), make()
        assert read.table and read._table is not None
        assert unread == read and hash(unread) == hash(read) and unread._table is None
        assert repr(unread) == repr(read) and unread._table is not None
    assert pi() != tc() and pi() != from_table(3, UNION_22_TABLE)
    assert repr(pi()) == "BckAlgebra(order=3, table=((0, 0, 0), (1, 0, 0), (2, 2, 0)), bound=2)"
    # a catalog's algebras, built from its stack, make their views when read too
    catalog = enumerate_algebras(4)
    assert all(e.algebra._table is None for e in catalog.entries)
    assert [e.algebra.table for e in catalog.entries] == [
        tuple(map(tuple, t)) for t in np.stack([e.algebra.array for e in catalog.entries]).tolist()
    ]


def test_flags_and_atoms_match_their_definitions(small_catalogs):
    algebras = [e.algebra for cat in small_catalogs.values() for e in cat.entries]
    algebras += [family(name, n) for name in FAMILY_NAMES for n in (3, 4, 9)]
    algebras += [direct_product(chain(3), pi()), bck_union(tc(), q_algebra(4))]
    algebras += [alg.relabel([0] + list(range(alg.order - 1, 0, -1))) for alg in algebras]
    for alg in algebras:
        flags = (alg.is_linear(), alg.is_commutative(), alg.is_positive_implicative(),
                 alg.is_implicative(), alg.atoms())
        assert flags == _flags_by_definition(alg), alg.table


def test_canonical_form_idempotent():
    for alg in (pi(), tc(), d_algebra(3), q_algebra(4)):
        c = alg.canonical_form()
        assert canonical_table(alg.order, c) == c


def test_pi_tc_not_isomorphic():
    assert not pi().is_isomorphic(tc())


def test_relabeled_pi_is_isomorphic():
    swapped = pi().relabel((0, 2, 1))
    assert swapped.table != pi().table
    assert swapped.is_isomorphic(pi())


def test_canonical_form_invariant_under_all_relabelings():
    for alg in (pi(), tc(), d_algebra(3), q_algebra(4)):
        for perm in itertools.permutations(range(1, alg.order)):
            sigma = (0,) + perm
            assert alg.relabel(sigma).canonical_form() == alg.canonical_form()


def brute_force_canonical(order, table):
    """Test oracle: the lexicographically least relabeling fixing 0, found
    by trying every permutation, and the number of permutations reaching
    it. The package never imports it."""
    t = np.array(table, dtype=np.intp)
    sigmas = np.array([(0,) + p for p in itertools.permutations(range(1, order))], dtype=np.intp)
    inverses = np.argsort(sigmas, axis=1)
    # relabeled[s][x][y] = sigma_s(t[sigma_s^-1(x)][sigma_s^-1(y)])
    moved = t[inverses[:, :, None], inverses[:, None, :]]
    relabeled = sigmas[np.arange(len(sigmas))[:, None, None], moved].reshape(len(sigmas), -1)
    least = np.arange(len(sigmas))
    for cell in range(order * order):
        values = relabeled[least, cell]
        least = least[values == values.min()]
    table = relabeled[least[0]].reshape(order, order)
    return tuple(tuple(int(v) for v in row) for row in table), len(least)


def test_canonical_table_matches_brute_force_on_every_order_5_table():
    labeled = enumerate_labeled_tables(5)
    assert len(labeled) == 1735
    for t in labeled:
        least, reaching = brute_force_canonical(5, t)
        assert canonical_table(5, t) == least
        assert automorphism_count(5, t) == reaching


@pytest.mark.parametrize("order", [6, 7])
def test_canonical_table_matches_brute_force_on_random_tables(order):
    # the definition covers any table over range(order), and tables with
    # no structure reach branches of the search that algebras do not
    rng = random.Random(order)
    for _ in range(200):
        t = [[rng.randrange(order) for _ in range(order)] for _ in range(order)]
        least, reaching = brute_force_canonical(order, t)
        assert canonical_table(order, t) == least
        assert automorphism_count(order, t) == reaching


def _relabelings(alg, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        rest = list(range(1, alg.order))
        rng.shuffle(rest)
        yield alg.relabel([0] + rest)


@pytest.mark.parametrize(
    "alg",
    [chain(8), direct_product(chain(3), chain(3)), d_algebra(7), family("B", 8), q_algebra(8)],
    ids=["C8", "C3xC3", "D7", "B8", "Q8"],
)
def test_canonical_table_matches_brute_force_on_relabeled_algebras(alg):
    least, reaching = brute_force_canonical(alg.order, alg.table)
    assert alg.canonical_form() == least
    for r in _relabelings(alg, 3, seed=alg.order):
        assert r.canonical_form() == least
        assert automorphism_count(r.order, r.table) == reaching


def test_canonical_form_invariant_under_relabelings_of_c3xc3():
    # 1000 of the 8! relabelings; all of them take over half a minute
    alg = direct_product(chain(3), chain(3))
    canon = alg.canonical_form()
    assert automorphism_count(9, alg.table) == 2  # the swap of the factors
    for r in _relabelings(alg, 1000, seed=9):
        assert r.canonical_form() == canon


@pytest.mark.parametrize(
    "alg, auts",
    [
        (q_algebra(7), 120),
        (bck_union(direct_product(two(), two()), direct_product(two(), two())), 8),
        (direct_product(two(), direct_product(two(), two())), 6),
        (q_algebra(8), 720),
        (direct_product(chain(3), chain(3)), 2),
    ],
    ids=["Q7", "C2xC2+C2xC2", "C2^3", "Q8", "C3xC3"],
)
def test_stacked_canonical_forms_match_the_branch_and_bound_on_symmetric_algebras(alg, auts):
    # order 8 is the highest the kernel relabels all at once; C3xC3, of
    # order 9, goes through the branch and bound table by table
    tables = [r.table for r in _relabelings(alg, 6, seed=alg.order)]
    canon, counts = algebra._stack_canonical(np.array(tables, dtype=np.intp))
    assert [tuple(map(tuple, t)) for t in canon.tolist()] == [alg.canonical_form()] * 6
    assert counts.tolist() == [automorphism_count(alg.order, t) for t in tables] == [auts] * 6


def test_relabel_must_fix_zero():
    with pytest.raises(ValueError):
        pi().relabel((1, 0, 2))


@pytest.mark.parametrize("sigma", [(0, 1, 1), (0, 2), (0, 2, 1, 3)])
def test_relabel_needs_a_permutation(sigma):
    with pytest.raises(ValueError, match="must be a permutation of range"):
        pi().relabel(sigma)


def test_ops_respect_derived_order_laws():
    # x*0 = x, 0 <= x, and x*y <= x hold in every valid algebra
    for alg in (pi(), tc(), chain(6), d_algebra(5), q_algebra(5), bck_union(pi(), tc())):
        for x in alg.elements:
            assert alg.op(x, 0) == x
            assert alg.leq(0, x)
            for y in alg.elements:
                assert alg.leq(alg.op(x, y), x)


def test_bounded_commutative_double_negation_is_identity(small_catalogs):
    for cat in small_catalogs.values():
        for entry in cat.entries:
            if entry.commutative and entry.algebra.bound is not None:
                alg = entry.algebra
                assert all(alg.neg(alg.neg(x)) == x for x in alg.elements)


def test_bounded_commutative_meet_join_form_distributive_lattice(small_catalogs):
    for cat in small_catalogs.values():
        for entry in cat.entries:
            if not (entry.commutative and entry.algebra.bound is not None):
                continue
            alg = entry.algebra
            els = list(alg.elements)
            for x, y in itertools.product(els, els):
                assert alg.meet(x, y) == alg.meet(y, x)
                assert alg.join(x, y) == alg.join(y, x)
                assert alg.meet(x, alg.join(x, y)) == x
                assert alg.join(x, alg.meet(x, y)) == x
            for x, y, z in itertools.product(els, els, els):
                assert alg.meet(x, alg.meet(y, z)) == alg.meet(alg.meet(x, y), z)
                assert alg.join(x, alg.join(y, z)) == alg.join(alg.join(x, y), z)
                assert alg.meet(x, alg.join(y, z)) == alg.join(alg.meet(x, y), alg.meet(x, z))


def test_small_and_vectorized_checkers_agree(monkeypatch):
    # _check_small is the oracle of the kernels; lowering the switch sends
    # every order through them
    import random

    rng = random.Random(20240917)
    tables = []
    for _ in range(200):
        n = rng.randint(1, 6)
        tables.append((n, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    for n in range(16, 41):
        t = [list(row) for row in chain(n).table]
        for _ in range(rng.randint(1, 3)):
            t[rng.randrange(1, n)][rng.randrange(n)] = rng.randrange(n)
        tables.append((n, t))
    # Relabeled C, D, M and P', about half of whose pairs x*y are 0, which
    # the BCK1 kernel skips while row 0 is zero. A corrupted cell in row 0
    # makes it evaluate every pair. The second batch keeps the tables whose
    # first BCK1 witness (x, y, z) follows a skipped pair (x, y - 1).
    def relabeled(rng):
        alg = family(rng.choice(("C", "D", "M", "Pprime")), rng.randint(10, 40))
        sigma = [0, *rng.sample(range(1, alg.order), alg.order - 1)]
        return alg.order, [list(row) for row in alg.relabel(sigma).table]

    for _ in range(40):
        n, t = relabeled(rng)
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                t[0][rng.randrange(n)] = rng.randrange(1, n)
            else:
                t[rng.randrange(1, n)][rng.randrange(n)] = rng.randrange(n)
        tables.append((n, t))
    for _ in range(40):
        n, t = relabeled(rng)
        t[rng.randrange(1, n)][rng.randrange(1, n)] = rng.randrange(n)
        first = next(iter(_check_small(n, t)), ("", ()))
        if first[0] == "BCK1" and 0 < first[1][1] and t[first[1][0]][first[1][1] - 1] == 0:
            tables.append((n, t))
    # The BCK1 kernel's blocks of x: one block (20), several (64, 90), a
    # short last one (41), one row each (127, 128), a row wider than a block
    # (130). In C, D and Q, r*r = r puts the first BCK1 witness at x = r:
    # here at x = 1 and the first and last x of the second and last blocks.
    placed = []
    for n in (20, 41, 64, 90, 127, 128, 130):
        rows = max(1, min(n, _BCK1_BLOCK_CELLS // n**2))
        targets = {1, rows, 2 * rows - 1, 2}
        if n <= 90:  # the oracle reads r * n^2 triples before the witness
            targets |= {(n - 1) // rows * rows, n - 1}
        for alg in (chain(n), d_algebra(n - 1), q_algebra(n)):
            for r in sorted(x for x in targets if 0 < x < n):
                t = [list(row) for row in alg.table]
                t[r][r] = r
                placed.append((r, n, t))
    monkeypatch.setattr(algebra, "_VECTORIZE_MIN_ORDER", 1)
    for n, t in tables:
        assert check_axioms(n, t).violations == tuple(_check_small(n, t))
    for r, n, t in placed:
        expected = tuple(_check_small(n, t))
        assert expected[0][0] == "BCK1" and expected[0][1][0] == r
        assert check_axioms(n, t).violations == expected


def test_gather_kernel_witness_past_the_first_block():
    n = 110  # n^3 > _BCK1_BLOCK_CELLS, so the BCK1 kernel runs several blocks of x
    first_block_rows = max(1, _BCK1_BLOCK_CELLS // n**2)
    assert n**3 > _BCK1_BLOCK_CELLS
    t = [list(row) for row in chain(n).table]
    t[100][2] = 99  # was 98; no triple with x < 100 sees the change
    expected = tuple(_check_small(n, t))
    assert expected[0][0] == "BCK1" and expected[0][1][0] >= first_block_rows
    assert check_axioms(n, t).violations == expected


def test_axiom_check_memory_is_bounded_by_the_bck1_buffers():
    a = chain(200)  # 8 000 000 BCK1 triples; one intp array over them is 64 MB
    # the kernel's buffers: two intp arrays and a bool array over a block of
    # x rows, here one row
    buffers = (8 + 8 + 1) * max(1, min(a.order, _BCK1_BLOCK_CELLS // a.order**2)) * a.order**2
    tracemalloc.start()
    try:
        report = check_axioms(a.order, a.table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 4 * buffers < 8 * a.order**3 // 10


def test_grid_masks_blocks_follow_row_major_order():
    # 2^22 assignments on the 2-element chain: the first variable is fixed
    # per block and the second sliced, so every branch of the kernel runs
    arity = 22
    target = (1, 0, 1) + (0, 1) * 9 + (1,)
    index = int("".join(map(str, target)), 2)

    def fails(t, *args):
        mask = True
        for a, v in zip(args, target):
            mask = mask & (a == v)
        return mask

    seen, hits = 0, []
    for start, mask in algebra.grid_masks(chain(2).array[None], arity, fails):
        assert start == seen and 0 < mask.size <= _BLOCK_CELLS
        seen += mask.size
        hits += [start + int(i) for i in np.flatnonzero(mask)]
    assert seen == 2**arity and hits == [index]


def test_vectorized_checker_used_at_scale():
    a = chain(40)  # above the vectorization cutoff
    assert check_axioms(a.order, a.table).ok
    bad = [list(row) for row in a.table]
    bad[0][7] = 3
    assert check_axioms(40, bad).witness("BCK4") == (7,)
