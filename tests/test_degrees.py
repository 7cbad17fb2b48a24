import itertools
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bck import (
    ChainDecomposition,
    Degree,
    DecompositionError,
    NotCommutativeError,
    UnboundedAlgebraError,
    bck_union,
    builtin,
    chain,
    chain_degrees,
    check_multiplicative,
    commuting_degree,
    d_algebra,
    decompose_commutative,
    direct_product,
    double_negation_degree,
    ds,
    excluded_middle_degree,
    family,
    from_table,
    gap_evidence,
    implicative_degree,
    iseki_extension,
    parse,
    pi,
    positive_implicative_degree,
    pretty,
    q_algebra,
    tc,
    trivial,
    two,
)
from bck.algebra import _BLOCK_CELLS
from bck.terms import holds


def test_degree_equality_is_cross_multiplied():
    assert Degree(2, 4) == Degree(1, 2) == Fraction(1, 2)
    assert Degree(7, 9) != Degree(8, 9)
    assert Degree(9, 9) == 1
    assert hash(Degree(2, 4)) == hash(Degree(1, 2)) == hash(Fraction(1, 2))
    assert Degree(1, 3) < Degree(1, 2) < Degree(2, 3)
    # all six comparisons go by value, never by the (count, total, note) fields
    assert Degree(2, 4) <= Degree(1, 2) and Degree(1, 2) >= Degree(2, 4)
    assert not Degree(2, 4) < Degree(1, 2) and not Degree(1, 2) > Degree(2, 4)
    assert not Degree(2, 4) != Degree(1, 2) and Degree(1, 3) != Degree(1, 2)
    assert Degree(3, 4) > Degree(2, 3) >= Fraction(4, 6) and Degree(1, 3) <= 1 <= Degree(2, 2)
    assert Degree(1, 2, note="noted") == Degree(2, 4) and hash(Degree(1, 2, note="noted")) == hash(Degree(2, 4))
    assert sorted([Degree(2, 3), Degree(2, 4), Degree(1, 3)]) == [Degree(1, 3), Degree(1, 2), Degree(2, 3)]
    assert repr(Degree(7, 9)) == "Degree(count=7, total=9, note=None)"
    assert Degree(7, 9).reduced == "7/9"
    assert Degree(9, 9).reduced == "1"


def test_degree_is_a_value_not_a_tuple():
    assert Degree(2, 4) != (2, 4, None) and (2, 4, None) != Degree(2, 4)
    assert not Degree(2, 4) == (2, 4, None) and not (2, 4, None) == Degree(2, 4)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(Degree(1, 2), (1, 3, None))
    assert not isinstance(Degree(1, 2), tuple)
    assert Degree(1, 2) != 0.5
    copy = pickle.loads(pickle.dumps(Degree(2, 4, note="noted")))
    assert (copy.count, copy.total, copy.note) == (2, 4, "noted")


def test_degree_validation():
    with pytest.raises(ValueError):
        Degree(5, 4)
    with pytest.raises(ValueError):
        Degree(0, 0)


def test_degree_json():
    assert Degree(7, 9).to_json() == {"count": 7, "total": 9, "reduced": "7/9"}


def test_ds_commuting_on_pi():
    d = ds(pi(), builtin("T"))
    assert d.count == 7 and d.total == 9


def test_ds_reflexive_equation_is_one():
    eq = parse("x = x")
    for alg in (pi(), tc(), chain(5), q_algebra(4)):
        d = ds(alg, eq)
        assert d == 1 and d.total == alg.order


def test_ds_closed_equation():
    assert ds(pi(), parse("0 = 0")) == 1
    assert ds(pi(), parse("0 = 1")) == 0


def test_ds_product_matches_brute_force_count():
    # independent oracle: count commuting pairs directly from the table
    for a, b in ((pi(), pi()), (pi(), tc())):
        prod = direct_product(a, b)
        count = sum(
            1
            for x in prod.elements
            for y in prod.elements
            if prod.meet(x, y) == prod.meet(y, x)
        )
        d = ds(prod, builtin("T"))
        assert (d.count, d.total) == (count, prod.order**2)
    assert ds(direct_product(pi(), pi()), builtin("T")) == Fraction(49, 81)
    assert ds(direct_product(pi(), tc()), builtin("T")) == Fraction(63, 81)


def test_ds_count_reproduced_via_pretty_reparse_slow_path():
    for alg in (pi(), tc(), d_algebra(3)):
        for name in ("DN", "EM", "T", "E1", "I"):
            eq = builtin(name)
            assert ds(alg, eq).to_json() == ds(alg, parse(pretty(eq))).to_json()


def test_ds_parallel_counts_identical():
    prod = direct_product(pi(), tc())
    for name in ("T", "E1", "I"):
        eq = builtin(name)
        base = ds(prod, eq, jobs=1)
        assert ds(prod, eq, jobs=2).to_json() == base.to_json()
        assert ds(prod, eq, jobs=8).to_json() == base.to_json()


def test_named_degrees_on_table_one_algebras():
    assert commuting_degree(pi()) == Fraction(7, 9)
    assert double_negation_degree(pi()) == Fraction(2, 3)
    assert positive_implicative_degree(tc()) == Fraction(8, 9)
    assert implicative_degree(tc()) == Fraction(8, 9)
    assert positive_implicative_degree(pi()) == 1
    assert commuting_degree(tc()) == 1


def test_emd_flags_noncommutative_input():
    flagged = excluded_middle_degree(pi())
    assert flagged.note is not None
    assert excluded_middle_degree(tc()).note is None
    assert excluded_middle_degree(chain(4)) == Fraction(2, 4)


def test_emd_on_chains():
    for n in range(2, 11):
        assert excluded_middle_degree(chain(n)) == Fraction(2, n)


def test_family_degree_formulas_small():
    for n in range(3, 17):
        n2 = n * n
        assert commuting_degree(family("B", n)) == Fraction(n2 - 2, n2)
        assert commuting_degree(family("M", n)) == Fraction(3 * n - 2, n2)
        assert positive_implicative_degree(family("P", n)) == Fraction(n2 - 1, n2)
        assert implicative_degree(family("P", n)) == Fraction(n2 - 1, n2)
        assert positive_implicative_degree(family("Pprime", n)) == Fraction(n2 - 1, n2)
        assert positive_implicative_degree(q_algebra(n)) == Fraction(4 * n - 4, n2)
        assert implicative_degree(q_algebra(n)) == Fraction(4 * n - 4, n2)
    assert commuting_degree(family("M", 7)) == Fraction(19, 49)


def test_dnd_of_d_algebras():
    for n in range(3, 17):
        assert double_negation_degree(d_algebra(n)) == Fraction(n, n + 1)


def test_dnd_of_iseki_extension():
    for a in (two(), tc(), chain(4), q_algebra(4)):
        assert double_negation_degree(iseki_extension(a)) == Fraction(2, a.order + 1)


def test_union_transfer_formula_seed_pinned(small_catalogs):
    # cd, pid, and id all transfer across a union by the same formula
    rng = random.Random(20240131)
    pool = [e.algebra for cat in small_catalogs.values() for e in cat.entries]
    fns = (commuting_degree, positive_implicative_degree, implicative_degree)
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        n, m = a.order, b.order
        u = bck_union(a, b)
        for fn in fns:
            k = fn(a).count
            ell = fn(b).count
            expected = Fraction(k + ell + 2 * (n - 1) * (m - 1) - 1, (n + m - 1) ** 2)
            assert fn(u) == expected


def test_union_with_two_transfer():
    a = pi()
    assert commuting_degree(bck_union(a, two())) == Fraction(7 + 2 * 3 + 1, 16)
    assert commuting_degree(bck_union(a, two())) == Fraction(7, 8)


def test_iseki_transfer_formulas(small_catalogs):
    rng = random.Random(906090)
    pool = [e.algebra for cat in small_catalogs.values() for e in cat.entries]
    for _ in range(25):
        a = rng.choice(pool)
        n = a.order
        ext = iseki_extension(a)
        assert commuting_degree(ext) == Fraction(commuting_degree(a).count + 3, (n + 1) ** 2)
        assert positive_implicative_degree(ext) == Fraction(
            positive_implicative_degree(a).count + 2 * n + 1, (n + 1) ** 2
        )


def test_emd_one_iff_positive_implicative_on_bounded_commutative(small_catalogs):
    seen_both_sides = set()
    for cat in small_catalogs.values():
        for e in cat.entries:
            if e.algebra.bound is not None and e.commutative:
                assert (e.degrees["emd"] == 1) == e.positive_implicative
                seen_both_sides.add(e.positive_implicative)
    assert seen_both_sides == {True, False}


def test_dnd_is_one_on_bounded_commutative(small_catalogs):
    for cat in small_catalogs.values():
        for e in cat.entries:
            if e.algebra.bound is not None and e.commutative:
                assert e.degrees["dnd"] == 1


def test_linear_algebras_have_pid_and_id_above_half(small_catalogs):
    for cat in small_catalogs.values():
        for e in cat.entries:
            if e.linear:
                assert e.degrees["pid"].fraction > Fraction(1, 2)
                assert e.degrees["id"].fraction > Fraction(1, 2)


def test_check_multiplicative_examples():
    assert check_multiplicative(pi(), pi(), builtin("T"))
    assert check_multiplicative(tc(), chain(4), builtin("E1"))
    for name in ("T", "E1", "I"):
        assert check_multiplicative(pi(), trivial(), builtin(name))


def test_chain_degrees_sequences():
    ems = chain_degrees(builtin("EM"), 12)
    assert [d.fraction for d in ems] == [Fraction(2, n) for n in range(2, 13)]
    e1s = chain_degrees(builtin("E1"), 12)
    assert [d.fraction for d in e1s] == [
        Fraction(n * n + 3 * n - 2, 2 * n * n) for n in range(2, 13)
    ]
    assert all(d == 1 for d in chain_degrees(builtin("T"), 12))
    with pytest.raises(ValueError):
        chain_degrees(builtin("T"), 1)


def test_gap_evidence_em():
    ev = gap_evidence(builtin("EM"), 20)
    assert ev.sub_one_max == (3, Degree(2, 3))
    assert ev.candidate_gap == Fraction(1, 3)
    assert ev.monotone_nonincreasing_after_first_sub_one
    assert len(ev.sequence) == 19


def test_gap_evidence_e1_and_i():
    for name in ("E1", "I"):
        ev = gap_evidence(builtin(name), 20)
        assert ev.sub_one_max == (3, Degree(8, 9))
        assert ev.candidate_gap == Fraction(1, 9)


def test_gap_evidence_x_equals_one():
    ev = gap_evidence(parse("x = 1"), 20)
    assert ev.sub_one_max == (2, Degree(1, 2))
    assert ev.candidate_gap == Fraction(1, 2)
    ev2 = gap_evidence(parse("~x = 1"), 20)
    assert ev2.candidate_gap == Fraction(1, 2)


def test_gap_evidence_commutativity_has_no_sub_one_values():
    ev = gap_evidence(builtin("T"), 20)
    assert ev.sub_one_max is None and ev.candidate_gap is None


def test_decompose_chain():
    assert decompose_commutative(tc()) == ChainDecomposition((3,))
    assert decompose_commutative(trivial()) == ChainDecomposition(())
    assert decompose_commutative(two()) == ChainDecomposition((2,))


def test_decompose_product_of_chains():
    assert decompose_commutative(direct_product(chain(2), chain(3))) == ChainDecomposition((2, 3))
    assert decompose_commutative(
        direct_product(chain(2), direct_product(chain(2), chain(2)))
    ) == ChainDecomposition((2, 2, 2))


def test_decompose_rejects_noncommutative():
    with pytest.raises(NotCommutativeError):
        decompose_commutative(pi())


def test_decompose_fails_loudly_on_unbounded_commutative_union():
    # commutative but unbounded: no direct product of chains exists, and
    # `bck audit` reports this text verbatim
    for u in (bck_union(two(), two()), family("P", 5)):
        assert u.is_commutative()
        with pytest.raises(DecompositionError) as info:
            decompose_commutative(u)
        assert str(info.value) == (
            f"no chain-product decomposition of this order-{u.order} commutative algebra"
            " (it is unbounded, so none is guaranteed)"
        )


@pytest.mark.parametrize("lengths", [(2, 2, 2, 2), (3, 4, 5), (2, 3, 4, 5), (5, 2, 3)])
def test_decompose_relabeled_chain_products(lengths):
    product = trivial()
    for m in lengths:
        product = direct_product(product, chain(m))
    rng = random.Random(product.order)
    for _ in range(3):
        rest = list(range(1, product.order))
        rng.shuffle(rest)
        relabeled = product.relabel([0] + rest)
        assert decompose_commutative(relabeled) == ChainDecomposition(tuple(sorted(lengths)))


def test_decompose_refuses_a_map_that_is_no_isomorphism():
    # ordered like C4, bounded, meets commute, one atom: the chain read off
    # the atom has length 4, but 3*2 = 2 where C4 has 1. Not a BCK-algebra,
    # so it is built past the axiom check to reach the isomorphism check.
    from bck.algebra import _build

    fake = _build([[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0], [3, 1, 2, 0]])
    assert fake.bound == 3 and fake.is_commutative() and fake.atoms() == {1}
    with pytest.raises(DecompositionError, match="^no chain-product decomposition of this order-4"):
        decompose_commutative(fake)


def test_unbounded_equations_propagate():
    u = from_table(3, [[0, 0, 0], [1, 0, 1], [2, 2, 0]])
    with pytest.raises(UnboundedAlgebraError):
        ds(u, builtin("DN"))
    with pytest.raises(UnboundedAlgebraError):
        ds(u, builtin("EM"), jobs=2)


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("x", "y", "z", "x", "y", "z", "0", "1"))
    op = rng.choice((".", ".", "&", "|", "~"))
    if op == "~":
        return "~" + _random_term(rng, depth - 1)
    return f"({_random_term(rng, depth - 1)} {op} {_random_term(rng, depth - 1)})"


def _holds_count(alg, eq):
    # the single-assignment evaluator, summed over the grid: the kernel's oracle
    grid = itertools.product(alg.elements, repeat=eq.arity)
    return sum(holds(alg, eq, dict(zip(eq.vars, values))) for values in grid)


def _outcome(fn):
    try:
        return fn()
    except UnboundedAlgebraError as exc:
        return str(exc)


def test_ds_matches_summed_holds_oracle(catalog4):
    rng = random.Random(4242)
    unbounded = from_table(3, [[0, 0, 0], [1, 0, 1], [2, 2, 0]])
    algebras = [e.algebra for e in catalog4.entries] + [chain(n) for n in (2, 3, 5, 7)]
    algebras.append(unbounded)
    texts = ["0 = 0", "0 = 1", "1 . 1 = 0", "~1 = 0 | 0"]  # arity 0
    texts += [f"{_random_term(rng, 3)} = {_random_term(rng, 3)}" for _ in range(40)]
    raised = 0
    for alg in algebras:
        for text in texts:
            eq = parse(text)
            expected = _outcome(lambda: (_holds_count(alg, eq), alg.order**eq.arity))
            got = _outcome(lambda: ds(alg, eq))
            if not isinstance(got, str):
                got = (got.count, got.total)
            assert got == expected, (alg.table, text)
            raised += isinstance(expected, str)
    # each of the three messages, and the first one in pre-order when several apply
    assert {_outcome(lambda: ds(unbounded, parse(t))) for t in ("x = 1", "~x = x", "x | y = x")} == {
        "the constant 1 needs a greatest element",
        "negation needs a greatest element",
        "join needs a greatest element",
    }
    assert _outcome(lambda: ds(unbounded, parse("x . (y | 1) = ~x"))) == "join needs a greatest element"
    assert raised > 0
    assert ds(unbounded, parse("0 . 0 = 0")).to_json() == {"count": 1, "total": 1, "reduced": "1"}
    assert ds(chain(4), parse("1 . 1 = 1")).to_json() == {"count": 0, "total": 1, "reduced": "0"}


def test_ds_on_grid_larger_than_one_block():
    n = 110  # 110^3 = 1331000 assignments, more than one block
    assert n**3 > _BLOCK_CELLS
    x, y, z = np.ogrid[:n, :n, :n]
    # on a chain x . y = max(x - y, 0), so both sides have closed forms
    lhs = np.maximum(x - np.maximum(y - z, 0), 0)
    rhs = np.maximum(x - y - z, 0)
    d = ds(chain(n), parse("x . (y . z) = (x . y) . z"))
    assert (d.count, d.total) == (int(np.count_nonzero(lhs == rhs)), n**3)


def test_ds_memory_is_bounded_by_one_block():
    a = chain(200)  # 8 000 000 assignments; one intp array over them is 64 MB
    # at its deepest point this equation keeps four intermediates alive
    eq = parse("x . (y . z) = (x . z) . y & x")
    tracemalloc.start()
    try:
        d = ds(a, eq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.total == 200**3
    assert peak < 5 * 8 * _BLOCK_CELLS < 8 * a.order**3
