import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bck import (
    BUILTIN_EQUATIONS,
    EquationSyntaxError,
    UnboundedAlgebraError,
    UnboundVariableError,
    builtin,
    chain,
    eval_term,
    from_table,
    holds,
    make_equation,
    parse,
    pi,
    pretty,
    pretty_term,
    tc,
)
from bck.terms import MAX_DEPTH, BDot, Join, Meet, Neg, One, Var, Zero, free_vars


def test_parse_commutativity_equation():
    eq = parse("x & y = y & x")
    assert eq.vars == ("x", "y")
    assert eq.lhs == Meet(Var("x"), Var("y"))
    assert eq.rhs == Meet(Var("y"), Var("x"))


def test_parse_implicative_equation():
    eq = parse("x . (y . x) = x")
    assert eq.lhs == BDot(Var("x"), BDot(Var("y"), Var("x")))
    assert eq.rhs == Var("x")


def test_parse_trivial_equation():
    eq = parse("x = x")
    assert eq.vars == ("x",)


def test_parse_precedence_and_associativity():
    eq = parse("x . y . z = x & y | z")
    assert eq.lhs == BDot(BDot(Var("x"), Var("y")), Var("z"))
    assert eq.rhs == Join(Meet(Var("x"), Var("y")), Var("z"))
    eq2 = parse("~x . y = ~(x . y)")
    assert eq2.lhs == BDot(Neg(Var("x")), Var("y"))
    assert eq2.rhs == Neg(BDot(Var("x"), Var("y")))


def test_parse_constants():
    eq = parse("0 = 1")
    assert eq.lhs == Zero() and eq.rhs == One()
    assert eq.vars == ()


def test_syntax_errors_carry_position():
    with pytest.raises(EquationSyntaxError) as exc:
        parse("x + y = x")
    assert exc.value.position == 2
    with pytest.raises(EquationSyntaxError):
        parse("x = ")
    with pytest.raises(EquationSyntaxError):
        parse("x y = x")
    with pytest.raises(EquationSyntaxError):
        parse("x = y = z")
    with pytest.raises(EquationSyntaxError):
        parse("(x = x")


# The three shapes of a term nested past MAX_DEPTH: negations,
# parentheses, and a left-deep chain of one operator.
DEEP_TERMS = {
    "negations": lambda k: "~" * k + "x",
    "parentheses": lambda k: "(" * k + "x" + ")" * k,
    "chain": lambda k: " . ".join(["x"] * (k + 1)),
}


@pytest.mark.parametrize("shape", DEEP_TERMS)
def test_terms_nested_past_the_cap_are_syntax_errors(shape):
    term = DEEP_TERMS[shape]
    for k in (MAX_DEPTH + 1, 3000):
        for text in (term(k) + " = x", "x = " + term(k)):
            with pytest.raises(EquationSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
                parse(text)
    # at the cap the term parses, prints and evaluates
    eq = parse(term(MAX_DEPTH) + " = x")
    assert parse(pretty(eq)) == eq
    assert isinstance(holds(chain(3), eq, {"x": 2}), bool)


def test_term_depth_adds_up_through_parentheses():
    # 60 operators inside the parentheses and then 40 or 41 outside
    inner = "(" + " . ".join(["x"] * 61) + ")"
    parse(" . ".join([inner] + ["y"] * 40) + " = x")
    with pytest.raises(EquationSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(" . ".join([inner] + ["y"] * 41) + " = x")


def test_make_equation_refuses_terms_past_the_cap():
    # built in code, a term may be deeper than the parser allows and than
    # Python's recursion limit; the depth is checked without recursing
    chain_term = Var("x")
    for _ in range(3000):
        chain_term = BDot(chain_term, Var("y"))
    negations = Var("x")
    for _ in range(MAX_DEPTH + 1):
        negations = Neg(negations)
    for deep in (chain_term, negations, Join(Zero(), negations)):
        with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
            free_vars(deep)
        for lhs, rhs in ((deep, Var("x")), (Var("x"), deep)):
            with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
                make_equation(lhs, rhs)
    # at the cap it makes an equation that prints, parses back and evaluates
    eq = make_equation(negations.child, Var("x"))
    assert parse(pretty(eq)) == eq and eq.vars == ("x",)
    assert isinstance(holds(chain(3), eq, {"x": 2}), bool)


def test_term_equality_and_hash_depend_on_the_node_type():
    x, y = Var("x"), Var("y")
    assert BDot(x, y) != Meet(x, y) and Meet(x, y) != Join(x, y) and BDot(x, y) != Join(x, y)
    assert Zero() != One() and not Zero() == One()
    assert len({BDot(x, y), Meet(x, y), Join(x, y), Zero(), One()}) == 5
    assert BDot(x, y) == BDot(Var("x"), Var("y")) and Zero() == Zero() and Var("x") != y
    assert hash(BDot(x, Neg(y))) == hash(BDot(Var("x"), Neg(Var("y"))))
    assert repr(BDot(x, Neg(One()))) == "BDot(left=Var(name='x'), right=Neg(child=One()))"
    assert repr(parse("x = 0")) == "Equation(lhs=Var(name='x'), rhs=Zero(), vars=('x',))"


def test_builtins_parse_from_documented_strings():
    for name, text in BUILTIN_EQUATIONS.items():
        assert builtin(name) == parse(text)
    assert builtin("DN") == parse("~~x = x")
    assert builtin("EM") == parse("x | ~x = 1")
    assert builtin("E1") == parse("x . y = (x . y) . y")


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin("EM2")


def test_variable_order_is_first_occurrence_lhs_then_rhs():
    assert parse("y . x = z . w").vars == ("y", "x", "z", "w")
    assert parse("~(z & (y . z)) | x = w . (x . y)").vars == ("z", "y", "x", "w")


def _random_term(rng, depth, names=("x", "y", "z")):
    if depth == 0:
        return rng.choice([Var(rng.choice(names)), Zero(), One()])
    kind = rng.randrange(6)
    if kind == 0:
        return Var(rng.choice(names))
    if kind == 1:
        return rng.choice([Zero(), One()])
    if kind == 2:
        return Neg(_random_term(rng, depth - 1, names))
    ctor = (BDot, Meet, Join)[kind - 3]
    return ctor(_random_term(rng, depth - 1, names), _random_term(rng, depth - 1, names))


def test_pretty_parse_round_trip_seeded():
    rng = random.Random(424242)
    for _ in range(500):
        eq = make_equation(_random_term(rng, rng.randint(0, 5)), _random_term(rng, rng.randint(0, 5)))
        assert parse(pretty(eq)) == eq


term_strategy = st.recursive(
    st.one_of(
        st.sampled_from([Zero(), One()]),
        st.builds(Var, st.sampled_from(["x", "y", "z", "w_1"])),
    ),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BDot, children, children),
        st.builds(Meet, children, children),
        st.builds(Join, children, children),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(term_strategy, term_strategy)
def test_pretty_parse_round_trip_property(lhs, rhs):
    eq = make_equation(lhs, rhs)
    assert parse(pretty(eq)) == eq


def test_pretty_term_minimal_parens():
    assert pretty_term(BDot(BDot(Var("x"), Var("y")), Var("z"))) == "x . y . z"
    assert pretty_term(BDot(Var("x"), BDot(Var("y"), Var("z")))) == "x . (y . z)"
    assert pretty_term(Neg(Neg(Var("x")))) == "~~x"
    assert pretty_term(Neg(Meet(Var("x"), Var("y")))) == "~(x & y)"
    assert pretty_term(Join(Meet(Var("x"), Var("y")), Var("z"))) == "x & y | z"


def test_eval_meet_example_on_pi():
    assert eval_term(pi(), Meet(Var("x"), Var("y")), {"x": 1, "y": 2}) == 0


def test_eval_neg_on_chain():
    assert eval_term(chain(3), Neg(Var("x")), {"x": 1}) == 1


def test_eval_constants():
    assert eval_term(pi(), Zero(), {}) == 0
    assert eval_term(pi(), One(), {}) == 2


def test_eval_derived_ops_match_algebra_methods(small_catalogs):
    x, y = Var("x"), Var("y")
    for cat in small_catalogs.values():
        for entry in cat.entries:
            alg = entry.algebra
            for a in alg.elements:
                for b in alg.elements:
                    env = {"x": a, "y": b}
                    assert eval_term(alg, Meet(x, y), env) == alg.meet(a, b)
                    assert eval_term(alg, BDot(x, y), env) == alg.op(a, b)
                    if alg.bound is not None:
                        assert eval_term(alg, Neg(x), env) == alg.neg(a)
                        assert eval_term(alg, Join(x, y), env) == alg.join(a, b)


def test_eval_unbounded_errors():
    u = from_table(3, [[0, 0, 0], [1, 0, 1], [2, 2, 0]])
    for term in (One(), Neg(Var("x")), Join(Var("x"), Var("x"))):
        with pytest.raises(UnboundedAlgebraError):
            eval_term(u, term, {"x": 1})


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_term(pi(), Var("q"), {"x": 1})


def test_holds_examples():
    assert not holds(pi(), builtin("T"), {"x": 1, "y": 2})
    for alg in (pi(), tc(), chain(5)):
        for t in alg.elements:
            assert holds(alg, builtin("T"), {"x": t, "y": t})
    assert not holds(tc(), builtin("E1"), {"x": 2, "y": 1})


def test_holds_invariant_under_renaming():
    eq = parse("a & b = b & a")
    for alg in (pi(), tc()):
        for x in alg.elements:
            for y in alg.elements:
                assert holds(alg, eq, {"a": x, "b": y}) == holds(
                    alg, builtin("T"), {"x": x, "y": y}
                )
