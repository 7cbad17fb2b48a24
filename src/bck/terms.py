"""Equation language over the BCK signature and its derived operations.

Grammar (one equation per input):

    equation := expr '=' expr
    expr     := join
    join     := meet ('|' meet)*
    meet     := dot ('&' dot)*
    dot      := unary ('.' unary)*
    unary    := '~' unary | atom
    atom     := '0' | '1' | IDENT | '(' expr ')'

Operators: '.' is the basic BCK operation, '&' the derived meet
x & y = y.(y.x), '|' the derived join x | y = ~(~x & ~y), '~' the derived
negation ~x = 1.x. Precedence ~ > . > & > |; infix operators associate
left. Identifiers are variables. Derived operators are expanded at
evaluation time, never precompiled into tables.
A term nested deeper than ``MAX_DEPTH`` levels is a syntax error.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Union


class UnboundedAlgebraError(ValueError):
    """Operation requires a greatest element but the algebra has none."""


class _Record:
    """An immutable record: the base of the term nodes, ``BckAlgebra`` and
    ``Catalog``. Equal only to a record of its own type with equal fields,
    hashed by both, and shown as ``Name(field=value, ...)``; it refuses
    assignment and deletion and pickles by its fields. ``__match_args__``
    lists the fields in order."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Record):
            return NotImplemented
        return type(self) is type(other) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), *self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Var(_Record):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Zero(_Record):
    __slots__ = ()


class One(_Record):
    __slots__ = ()


class _Binary(_Record):
    # an infix operator's node: BDot, Meet or Join
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class BDot(_Binary):
    __slots__ = ()


class Meet(_Binary):
    __slots__ = ()


class Join(_Binary):
    __slots__ = ()


class Neg(_Record):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: Term):
        object.__setattr__(self, "child", child)


Term = Union[Var, Zero, One, BDot, Meet, Join, Neg]

# The infix operators by symbol, with their precedence and node.
_INFIX = {"|": (1, Join), "&": (2, Meet), ".": (3, BDot)}


class EquationSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(KeyError):
    pass


# The most operators on a path from a term's root to a leaf, and the most
# parentheses and negations open at once while it is read: the parser, the
# evaluator and the printer recurse once per level (the parser up to six
# times per parenthesis), so such terms stay well inside Python's recursion
# limit. free_vars walks without recursing and holds a term built in code,
# which make_equation passes it, to the same cap.
MAX_DEPTH = 100
_TOO_DEEP = f"term nested deeper than {MAX_DEPTH} levels"


def free_vars(*terms: Term) -> tuple[str, ...]:
    """The free variables of ``terms`` in first-occurrence order, the first
    term's first. Raises ValueError if a path from a root to a leaf has more
    than ``MAX_DEPTH`` operators; walked with a stack, since a term built in
    code may be deeper than Python's recursion limit."""
    out: dict[str, None] = {}
    todo = [(t, 0) for t in reversed(terms)]  # a node and the operators above it
    while todo:
        t, above = todo.pop()
        if above > MAX_DEPTH:
            raise ValueError(_TOO_DEEP)
        if isinstance(t, Var):
            out.setdefault(t.name)
        elif isinstance(t, _Binary):
            todo += (t.right, above + 1), (t.left, above + 1)
        elif isinstance(t, Neg):
            todo.append((t.child, above + 1))
    return tuple(out)


class Equation(NamedTuple):
    """A pair of terms; ``vars`` lists the free variables of both sides in
    first-occurrence order (left side first)."""

    lhs: Term
    rhs: Term
    vars: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.vars)


def make_equation(lhs: Term, rhs: Term) -> Equation:
    """The equation lhs = rhs. Raises ValueError if either side is nested
    deeper than ``MAX_DEPTH`` levels, as :func:`parse` does."""
    return Equation(lhs, rhs, free_vars(lhs, rhs))


_PUNCT = {".", "&", "|", "~", "(", ")", "=", "0", "1"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # token kinds: one of _PUNCT, or "ident"
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise EquationSyntaxError(f"unknown operator or character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parentheses and negations being read
        self.depth = 0  # of the term last read

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return len(self.text)

    def expect(self, kind: str) -> None:
        if self.peek() != kind:
            raise EquationSyntaxError(f"expected {kind!r}", self.here())
        self.advance()

    def nest(self) -> None:
        # one more parenthesis or negation open, which the parser recurses into
        self.open += 1
        if self.open > MAX_DEPTH:
            raise EquationSyntaxError(_TOO_DEEP, self.here())

    def deepen(self, depth: int, at: int) -> None:
        # the depth of the term just built by the operator at position at
        if depth > MAX_DEPTH:
            raise EquationSyntaxError(_TOO_DEEP, at)
        self.depth = depth

    def parse_equation(self) -> Equation:
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        if self.peek() is not None:
            raise EquationSyntaxError("trailing input after equation", self.here())
        return make_equation(lhs, rhs)

    def parse_expr(self, least: int = 1) -> Term:
        # by precedence climbing: a term whose infix operators outside
        # parentheses have precedence >= least, each left-associative
        t = self.parse_unary()
        while (infix := _INFIX.get(self.peek())) and infix[0] >= least:
            at, depth = self.advance()[2], self.depth
            t = infix[1](t, self.parse_expr(infix[0] + 1))
            self.deepen(max(depth, self.depth) + 1, at)
        return t

    def parse_unary(self) -> Term:
        if self.peek() == "~":
            self.nest()
            at = self.advance()[2]
            t = Neg(self.parse_unary())
            self.open -= 1
            self.deepen(self.depth + 1, at)
            return t
        return self.parse_atom()

    def parse_atom(self) -> Term:
        self.depth = 0  # a leaf, or a parenthesized term read below
        kind = self.peek()
        if kind == "0":
            self.advance()
            return Zero()
        if kind == "1":
            self.advance()
            return One()
        if kind == "ident":
            return Var(self.advance()[1])
        if kind == "(":
            self.nest()
            self.advance()
            t = self.parse_expr()
            self.expect(")")
            self.open -= 1
            return t
        raise EquationSyntaxError("expected a term", self.here())


def parse(text: str) -> Equation:
    """Parse one equation; raises :class:`EquationSyntaxError` with position,
    also for a term nested deeper than ``MAX_DEPTH``."""
    return _Parser(text).parse_equation()


_PREC = {node: prec for prec, node in _INFIX.values()}
_OP_CHAR = {node: symbol for symbol, (_, node) in _INFIX.items()}


def _pretty_term(t: Term, parent_prec: int, is_right: bool) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Neg):
        return "~" + _pretty_term(t.child, 4, False)
    prec = _PREC[type(t)]
    s = (
        _pretty_term(t.left, prec, False)
        + f" {_OP_CHAR[type(t)]} "
        + _pretty_term(t.right, prec, True)
    )
    # left-associative: right child at equal precedence needs parentheses,
    # as does any child at lower precedence
    if prec < parent_prec or (prec == parent_prec and is_right):
        return "(" + s + ")"
    return s


def pretty_term(t: Term) -> str:
    return _pretty_term(t, 0, False)


def pretty(eq: Equation) -> str:
    """Render in the input grammar; ``parse(pretty(eq))`` reproduces ``eq``."""
    return f"{pretty_term(eq.lhs)} = {pretty_term(eq.rhs)}"


BUILTIN_EQUATIONS = {
    "DN": "~~x = x",  # double negation
    "EM": "x | ~x = 1",  # excluded middle
    "T": "x & y = y & x",  # commutativity
    "E1": "x . y = (x . y) . y",  # positive implicativity
    "I": "x . (y . x) = x",  # implicativity
    "X1": "x = 1",
    "NX1": "~x = 1",
}


@cache
def builtin(name: str) -> Equation:
    """The equation ``BUILTIN_EQUATIONS[name]``, parsed once per name."""
    try:
        return parse(BUILTIN_EQUATIONS[name])
    except KeyError:
        raise ValueError(f"unknown builtin equation {name!r}") from None


def eval_term(algebra, term: Term, assignment: dict[str, int]) -> int:
    """Evaluate a term; derived operators expand to their defining terms.
    ``algebra`` needs only ``op`` and ``bound``: a ``BckAlgebra``, or the
    gathers by which a kernel evaluates whole blocks of assignments.

    Raises :class:`UnboundedAlgebraError` if the term mentions 1, ~, or |
    and the algebra has no greatest element; :class:`UnboundVariableError`
    for variables missing from the assignment.
    """
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise UnboundVariableError(term.name) from None
    if isinstance(term, Zero):
        return 0
    if isinstance(term, One):
        if algebra.bound is None:
            raise UnboundedAlgebraError("the constant 1 needs a greatest element")
        return algebra.bound
    if isinstance(term, BDot):
        return algebra.op(
            eval_term(algebra, term.left, assignment), eval_term(algebra, term.right, assignment)
        )
    if isinstance(term, Meet):
        a = eval_term(algebra, term.left, assignment)
        b = eval_term(algebra, term.right, assignment)
        return algebra.op(b, algebra.op(b, a))
    if isinstance(term, Join):
        if algebra.bound is None:
            raise UnboundedAlgebraError("join needs a greatest element")
        one = algebra.bound
        na = algebra.op(one, eval_term(algebra, term.left, assignment))
        nb = algebra.op(one, eval_term(algebra, term.right, assignment))
        return algebra.op(one, algebra.op(nb, algebra.op(nb, na)))
    if isinstance(term, Neg):
        if algebra.bound is None:
            raise UnboundedAlgebraError("negation needs a greatest element")
        return algebra.op(algebra.bound, eval_term(algebra, term.child, assignment))
    raise TypeError(f"not a term: {term!r}")


def holds(algebra, eq: Equation, assignment: dict[str, int]) -> bool:
    return eval_term(algebra, eq.lhs, assignment) == eval_term(algebra, eq.rhs, assignment)
