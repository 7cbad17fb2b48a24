import random

import pytest

from bck import (
    FAMILY_NAMES,
    bck_union,
    chain,
    check_axioms,
    d_algebra,
    direct_product,
    family,
    iseki_extension,
    pi,
    q_algebra,
    tc,
    trivial,
    two,
)


def test_named_tables_exact():
    assert two().table == ((0, 0), (1, 0))
    assert pi().table[2] == (2, 2, 0)
    assert tc().table[2] == (2, 1, 0)


def test_chain_coincides_with_named_algebras():
    assert chain(2).table == two().table
    assert chain(3).table == tc().table
    assert chain(4).table[3] == (3, 2, 1, 0)


def test_chain_is_linear_commutative():
    for n in (2, 3, 7):
        c = chain(n)
        assert c.is_linear() and c.is_commutative()
        assert c.bound == n - 1


def test_chain_range():
    with pytest.raises(ValueError):
        chain(1)


def test_bck_union_of_two_chains():
    u = bck_union(two(), two())
    assert u.table == ((0, 0, 0), (1, 0, 1), (2, 2, 0))
    assert u.bound is None


def test_bck_union_with_trivial_is_identity_up_to_iso():
    for a in (two(), pi(), tc()):
        assert bck_union(a, trivial()).is_isomorphic(a)
        assert bck_union(trivial(), a).is_isomorphic(a)


def test_bck_union_commutes_up_to_iso():
    pairs = [(two(), tc()), (pi(), two()), (tc(), q_algebra(4))]
    for a, b in pairs:
        assert bck_union(a, b).is_isomorphic(bck_union(b, a))


def test_bck_union_cross_elements_meet_to_zero():
    a, b = pi(), tc()
    u = bck_union(a, b)
    for x in range(1, a.order):
        for y in range(a.order, u.order):
            assert u.meet(x, y) == 0 and u.meet(y, x) == 0


def test_iseki_extension_of_two_is_pi():
    assert iseki_extension(two()).is_isomorphic(pi())
    assert iseki_extension(two()).table == pi().table


def test_iseki_extension_of_trivial_is_two():
    assert iseki_extension(trivial()).is_isomorphic(two())


def test_iseki_extension_bounded_noncommutative():
    for a in (two(), tc(), chain(4), q_algebra(4)):
        ext = iseki_extension(a)
        assert ext.order == a.order + 1
        assert ext.bound == a.order
        assert not ext.is_commutative()


def test_direct_product_shape_and_atoms():
    p = direct_product(two(), two())
    assert p.order == 4
    assert len(p.atoms()) == 2


def test_direct_product_of_chains_is_commutative():
    p = direct_product(chain(2), chain(3))
    assert p.order == 6
    assert p.is_commutative()


def test_d_algebra_tables_match_expected():
    assert d_algebra(3).table == ((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (3, 1, 1, 0))
    assert d_algebra(4).table[4] == (4, 2, 1, 1, 0)


def test_d_algebra_bounded_with_top_index_n():
    for n in (3, 4, 10, 25):
        assert d_algebra(n).bound == n


def test_d_algebra_noncommutative_witness_pair():
    for n in (3, 4, 7, 12):
        alg = d_algebra(n)
        assert alg.meet(n - 1, n) != alg.meet(n, n - 1)


def test_d_algebra_valid_over_range():
    for n in range(3, 41):
        alg = d_algebra(n)
        assert check_axioms(alg.order, alg.table).ok


def test_q_algebra():
    assert q_algebra(3).is_isomorphic(tc())
    q5 = q_algebra(5)
    assert q5.is_commutative()
    assert q5.atoms() == {1}
    assert q5.bound is None


def test_q_algebra_subalgebra_tower():
    for n in (3, 4, 5, 6):
        small, big = q_algebra(n), q_algebra(n + 1)
        assert all(big.table[x][y] == small.table[x][y] for x in range(n) for y in range(n))


def test_family_bases():
    assert family("B", 3).table == pi().table
    assert family("M", 3).table == pi().table
    assert family("P", 3).table == tc().table
    assert family("Pprime", 3).table == tc().table
    assert family("C", 5).table == chain(5).table
    assert family("D", 4).table == d_algebra(4).table
    assert family("Q", 6).table == q_algebra(6).table


def test_closed_form_families_match_their_steps():
    # the documented construction: a base, then n-3 unions with two() or
    # top extensions
    def add_two(a):
        return bck_union(a, two())

    steps = {"B": (pi, add_two), "M": (pi, iseki_extension),
             "P": (tc, add_two), "Pprime": (tc, iseki_extension)}
    for name, (base, step) in steps.items():
        stepped = base()
        for n in range(3, 65):
            assert family(name, n) == stepped, (name, n)  # order, table and bound
            stepped = step(stepped)


def test_family_shapes():
    for n in (3, 4, 5, 8):
        assert len(family("B", n).atoms()) == n - 2
        assert len(family("P", n).atoms()) == n - 2
        assert family("M", n).is_linear()
        assert family("Pprime", n).is_linear()


def test_family_ranges():
    with pytest.raises(ValueError):
        family("B", 2)
    with pytest.raises(ValueError):
        family("D", 2)
    with pytest.raises(ValueError):
        family("noSuch", 4)


def test_constructions_all_validate(small_catalogs):
    # the constructors do not check their own output; this does
    built = [
        bck_union(pi(), tc()),
        iseki_extension(q_algebra(4)),
        direct_product(tc(), two()),
    ]
    built += [chain(n) for n in range(2, 65)]
    built += [d_algebra(n) for n in range(3, 65)]
    built += [q_algebra(n) for n in range(3, 65)]
    built += [family(name, n) for name in FAMILY_NAMES for n in range(3, 33)]
    small = [e.algebra for order in range(1, 5) for e in small_catalogs[order].entries]
    assert len(small) == 19
    for a in small:
        built.append(iseki_extension(a))
        for b in small:
            built += [bck_union(a, b), direct_product(a, b)]
    assert max(alg.order for alg in built) == 65
    rng = random.Random(5)
    relabeled = []
    for e in small_catalogs[5].entries:
        sigma = [0] + rng.sample(range(1, 5), 4)
        alg = e.algebra.relabel(sigma)
        assert alg.bound == (None if e.algebra.bound is None else sigma[e.algebra.bound])
        relabeled.append(alg)
    assert any(alg.table != e.algebra.table for alg, e in zip(relabeled, small_catalogs[5].entries))
    for alg in built + relabeled:
        assert check_axioms(alg.order, alg.table).ok, alg.table
