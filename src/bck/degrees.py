"""Exact degrees of satisfiability and related machinery.

All degrees are exact rationals stored as (satisfying count, n^k); no
floating point enters the semantics anywhere. Counts come from the gather
kernel the large-order axiom checks use too.
The studied degree kinds are declared once, in ``DEGREE_KINDS``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import BckAlgebra, _holding_blocks
from .constructions import chain, direct_product
from .terms import BUILTIN_EQUATIONS, Equation, _Record, builtin


class NotCommutativeError(ValueError):
    pass


class DecompositionError(RuntimeError):
    """No chain-product decomposition exists.

    Signals either a bug or an input outside the guarantee: every finite
    bounded commutative algebra factors into a direct product of chains
    (Mundici 1986), but no unbounded algebra does, since every product of
    chains is bounded (the three-element union of two two-element chains
    is the smallest unbounded commutative algebra).
    """


_set = object.__setattr__  # sets a new Degree's fields past _Record's refusal


@functools.total_ordering
class Degree(_Record):
    """Exact satisfaction ratio: ``count`` satisfying tuples out of ``total``.

    Equality, hashing and all six comparisons go by the reduced rational
    value, so Degree(7, 9) == Fraction(7, 9) and Degree(2, 4) <= Degree(1, 2),
    and no tuple compares with one. ``note`` carries a hypothesis warning
    when present and never affects them.
    """

    __slots__ = __match_args__ = ("count", "total", "note")

    def __init__(self, count: int, total: int, note: str | None = None):
        if total <= 0 or not 0 <= count <= total:
            raise ValueError(f"bad degree {count}/{total}")
        _set(self, "count", count)
        _set(self, "total", total)
        _set(self, "note", note)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, self.total)

    @property
    def reduced(self) -> str:
        return str(self.fraction)

    def __eq__(self, other) -> bool:
        value = _rational(other)
        return NotImplemented if value is None else self.fraction == value

    def __lt__(self, other) -> bool:
        value = _rational(other)
        return NotImplemented if value is None else self.fraction < value

    def __hash__(self) -> int:
        return hash(self.fraction)

    def to_json(self) -> dict:
        return {"count": self.count, "total": self.total, "reduced": self.reduced}


def _rational(x) -> Fraction | int | None:
    # what a Degree compares with: a Degree's value, a Fraction or an int;
    # None for anything else
    if isinstance(x, Degree):
        return x.fraction
    if isinstance(x, (Fraction, int)):
        return x
    return None


def ds(algebra: BckAlgebra, eq: Equation, jobs: int = 1) -> Degree:
    """Degree of satisfiability: the fraction of assignment tuples in A^k
    satisfying the equation, by exhaustive enumeration.

    The algebra is counted as a stack of one by :func:`ds_stack`, block by
    block with the gather kernel, so peak memory does not grow with n^k.
    ``jobs`` is accepted and has no effect: the kernel beat the former
    process pool at every size.
    """
    bounds = None if algebra.bound is None else [algebra.bound]
    return Degree(ds_stack(algebra.array[None], eq, bounds)[0], algebra.order**eq.arity)


def ds_stack(stack: np.ndarray, eq: Equation, bounds=None) -> list[int]:
    """How many assignments satisfy ``eq`` in each table of a (k, n, n) stack
    of algebras: :func:`ds`'s counts for a whole catalog in one pass of the
    same evaluator and kernel, with a table axis. ``bounds`` holds
    each table's greatest element, or is None when ``eq`` needs none."""
    counts = np.zeros(len(stack), np.intp)
    for _, mask in _holding_blocks(stack, eq, bounds):
        # a stack of one's masks have no table axis: the reshape gives it one
        counts += np.count_nonzero(np.reshape(mask, (len(stack), -1)), axis=1)
    return counts.tolist()


class DegreeKind(NamedTuple):
    """A studied degree kind: the builtin equation it counts, whether that
    equation needs a greatest element, and the note its degree carries on a
    non-commutative algebra, if any."""

    equation: str
    bounded: bool = False
    note: str | None = None

    @property
    def source(self) -> str:
        """The equation's source text, from terms.BUILTIN_EQUATIONS."""
        return BUILTIN_EQUATIONS[self.equation]

    def of(self, algebra: BckAlgebra) -> Degree:
        """The algebra's degree of this kind."""
        d = ds(algebra, builtin(self.equation))
        # only a kind with a note needs commutativity, an O(n^2) check
        return self.degree(d.count, d.total, self.note is None or algebra.is_commutative())

    def degree(self, count: int, total: int, commutative: bool) -> Degree:
        """``count`` of ``total``, with the kind's note if not ``commutative``."""
        return Degree(count, total, note=None if commutative else self.note)


# The studied degree kinds, in report order; every other list of kinds
# derives from this table. Excluded middle is usually defined only for
# bounded commutative algebras: elsewhere its literal degree is noted.
DEGREE_KINDS = {
    "emd": DegreeKind("EM", bounded=True, note="outside usual hypothesis: algebra is not commutative"),
    "dnd": DegreeKind("DN", bounded=True),
    "cd": DegreeKind("T"),
    "pid": DegreeKind("E1"),
    "id": DegreeKind("I"),
}


def excluded_middle_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x | ~x = 1 over a bounded algebra; noted on a
    non-commutative one (see DEGREE_KINDS)."""
    return DEGREE_KINDS["emd"].of(algebra)


def double_negation_degree(algebra: BckAlgebra) -> Degree:
    """Degree of ~~x = x over a bounded algebra."""
    return DEGREE_KINDS["dnd"].of(algebra)


def commuting_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x & y = y & x."""
    return DEGREE_KINDS["cd"].of(algebra)


def positive_implicative_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x . y = (x . y) . y."""
    return DEGREE_KINDS["pid"].of(algebra)


def implicative_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x . (y . x) = x."""
    return DEGREE_KINDS["id"].of(algebra)


DEGREE_FUNCTIONS = {kind: spec.of for kind, spec in DEGREE_KINDS.items()}


def stack_degrees(kind: str, stack: np.ndarray, bounds, commutative) -> list[Degree | None]:
    """``DEGREE_FUNCTIONS[kind]`` of each algebra of a (k, n, n) stack, counted
    by one :func:`ds_stack`. ``bounds`` and ``commutative`` give each
    algebra's bound (or None) and commutativity. A kind that needs a bound
    is None on an unbounded algebra."""
    spec = DEGREE_KINDS[kind]
    eq = builtin(spec.equation)
    total = stack.shape[-1] ** eq.arity
    if spec.bounded:
        kept = [i for i, b in enumerate(bounds) if b is not None]
        counts = ds_stack(stack[kept], eq, np.array([bounds[i] for i in kept], np.intp))
    else:
        kept, counts = range(len(stack)), ds_stack(stack, eq)
    out: list[Degree | None] = [None] * len(stack)
    for i, c in zip(kept, counts):
        out[i] = spec.degree(c, total, commutative[i])
    return out


def check_multiplicative(a: BckAlgebra, b: BckAlgebra, eq: Equation) -> bool:
    """Whether ds(A x B) = ds(A) * ds(B) holds exactly."""
    dab = ds(direct_product(a, b), eq)
    return dab.fraction == ds(a, eq).fraction * ds(b, eq).fraction


def chain_degrees(eq: Equation, max_n: int) -> list[Degree]:
    """[ds(C_2, eq), ..., ds(C_max_n, eq)]; chains are bounded, so every
    equation in the language is evaluable."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    return [ds(chain(n), eq) for n in range(2, max_n + 1)]


class GapEvidence(NamedTuple):
    """Chain-sequence evidence for a satisfiability gap.

    ``sequence`` holds the chain degrees d_2..d_max_n. ``sub_one_max`` is
    the maximum of the values below 1 in the computed range, with the
    smallest order attaining it. This is desk-scale evidence only: a real
    gap statement needs the maximum over all orders, so the output
    vocabulary is "candidate gap", never a proven one.
    """

    equation: Equation
    max_n: int
    sequence: tuple[Degree, ...]
    sub_one_max: tuple[int, Degree] | None
    monotone_nonincreasing_after_first_sub_one: bool

    @property
    def candidate_gap(self) -> Fraction | None:
        if self.sub_one_max is None:
            return None
        return 1 - self.sub_one_max[1].fraction


def gap_evidence(eq: Equation, max_n: int) -> GapEvidence:
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    seq = chain_degrees(eq, max_n)
    best: tuple[int, Degree] | None = None
    first_sub_one = None
    for i, d in enumerate(seq):
        if d.fraction < 1:
            if first_sub_one is None:
                first_sub_one = i
            if best is None or d.fraction > best[1].fraction:
                best = (i + 2, d)
    monotone = True
    if first_sub_one is not None:
        tail = seq[first_sub_one:]
        monotone = all(tail[i].fraction >= tail[i + 1].fraction for i in range(len(tail) - 1))
    return GapEvidence(eq, max_n, tuple(seq), best, monotone)


class ChainDecomposition(NamedTuple):
    """Multiset of chain lengths whose direct product is isomorphic to the
    input; empty for the one-element algebra. Lengths are all >= 2 and
    their product is the algebra order. :func:`decompose_commutative`
    returns one only after checking an explicit isomorphism onto that
    product."""

    chain_lengths: tuple[int, ...]


def decompose_commutative(algebra: BckAlgebra) -> ChainDecomposition:
    """Factor a commutative algebra into a direct product of chains.

    Every product of chains is bounded, so an unbounded input raises
    :class:`DecompositionError` at once. For a bounded one the chains are
    read off the atoms: the chain of atom a is 0 with the elements whose
    only atom below is a, and e_a is its top. The map x -> (height of
    e_a ^ x)_a, the height of y being the number of non-zero elements
    below or equal to it, is then checked in O(n^2 k) to be a bijection
    onto the product and a homomorphism to its truncated subtraction. So
    a returned decomposition is always verified; if the check fails, the
    result is :class:`DecompositionError`, loudly. Raises
    :class:`NotCommutativeError` for non-commutative input.
    """
    if not algebra.is_commutative():
        raise NotCommutativeError("chain decomposition applies to commutative algebras only")
    n = algebra.order
    failure = f"no chain-product decomposition of this order-{n} commutative algebra"
    if algebra.bound is None:
        raise DecompositionError(failure + " (it is unbounded, so none is guaranteed)")
    t = algebra.array
    below = t == 0  # below[x, y]: x <= y
    height = np.count_nonzero(below, axis=0) - 1
    over = below[height == 1]  # over[a, x]: atom a <= x
    lone = np.count_nonzero(over, axis=0) == 1
    chains = [np.flatnonzero(lone & above) for above in over]
    lengths = [1 + len(c) for c in chains]
    if math.prod(lengths) != n:
        raise DecompositionError(failure)
    xs = np.arange(n)
    coords = np.zeros((n, len(chains)), dtype=np.intp)
    for a, members in enumerate(chains):
        top = members[height[members].argmax()]
        coords[:, a] = height[t[xs, t[xs, top]]]  # height of top ^ x
    radix = np.array([math.prod(lengths[a + 1 :]) for a in range(len(lengths))], dtype=np.intp)
    bijective = (coords < lengths).all() and len(set((coords @ radix).tolist())) == n
    homomorphic = all((c[t] == np.maximum(c[:, None] - c[None, :], 0)).all() for c in coords.T)
    if not (bijective and homomorphic):
        raise DecompositionError(failure)
    return ChainDecomposition(tuple(sorted(lengths)))
