"""Exact degrees of satisfiability and related machinery.

All degrees are exact rationals stored as (satisfying count, n^k); no
floating point enters the semantics anywhere. Counts come from the gather
kernel the large-order axiom checks use too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce, total_ordering
from types import SimpleNamespace

import numpy as np

from .algebra import BckAlgebra, grid_masks
from .constructions import chain, direct_product, trivial
from .terms import Equation, builtin, holds


class NotCommutativeError(ValueError):
    pass


class DecompositionError(RuntimeError):
    """No chain-product decomposition exists.

    Signals either a bug or an input outside the guarantee: every finite
    bounded commutative algebra factors into a direct product of chains,
    but unbounded commutative algebras need not (the three-element union
    of two two-element chains is the smallest that does not).
    """


@total_ordering
@dataclass(frozen=True)
class Degree:
    """Exact satisfaction ratio: ``count`` satisfying tuples out of ``total``.

    Equality and ordering compare the reduced rational values, so
    Degree(7, 9) == Fraction(7, 9) and Degree(2, 4) == Degree(1, 2).
    ``note`` carries a hypothesis warning when present and never affects
    comparisons.
    """

    count: int
    total: int
    note: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.total <= 0 or not 0 <= self.count <= self.total:
            raise ValueError(f"bad degree {self.count}/{self.total}")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, self.total)

    @property
    def reduced(self) -> str:
        return str(self.fraction)

    def __eq__(self, other) -> bool:
        if isinstance(other, Degree):
            return self.fraction == other.fraction
        if isinstance(other, (Fraction, int)):
            return self.fraction == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, Degree):
            return self.fraction < other.fraction
        if isinstance(other, (Fraction, int)):
            return self.fraction < other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.fraction)

    def to_json(self) -> dict:
        return {"count": self.count, "total": self.total, "reduced": self.reduced}


def ds(algebra: BckAlgebra, eq: Equation, jobs: int = 1) -> Degree:
    """Degree of satisfiability: the fraction of assignment tuples in A^k
    satisfying the equation, by exhaustive enumeration.

    The tuples are counted block by block with the gather kernel, so peak
    memory does not grow with n^k. ``jobs`` is accepted and has no effect:
    the kernel beat the former process pool at every size.
    """

    def holding(t, *args):
        # eval_term needs only op and bound, so gathers on t evaluate the
        # equation over a whole block of assignments at once
        gathers = SimpleNamespace(op=lambda x, y: t[x, y], bound=algebra.bound)
        return holds(gathers, eq, dict(zip(eq.vars, args)))

    blocks = grid_masks(algebra.table, eq.arity, holding)
    count = sum(int(np.count_nonzero(mask)) for _, mask in blocks)
    return Degree(count, algebra.order**eq.arity)


def excluded_middle_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x | ~x = 1 over a bounded algebra.

    Defined in the usual treatment only for bounded commutative algebras;
    on a non-commutative input the literal term degree is computed and the
    result carries a warning note instead of erroring.
    """
    d = ds(algebra, builtin("EM"))
    if not algebra.is_commutative():
        d = Degree(d.count, d.total, note="outside usual hypothesis: algebra is not commutative")
    return d


def double_negation_degree(algebra: BckAlgebra) -> Degree:
    """Degree of ~~x = x over a bounded algebra."""
    return ds(algebra, builtin("DN"))


def commuting_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x & y = y & x."""
    return ds(algebra, builtin("T"))


def positive_implicative_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x . y = (x . y) . y."""
    return ds(algebra, builtin("E1"))


def implicative_degree(algebra: BckAlgebra) -> Degree:
    """Degree of x . (y . x) = x."""
    return ds(algebra, builtin("I"))


DEGREE_FUNCTIONS = {
    "emd": excluded_middle_degree,
    "dnd": double_negation_degree,
    "cd": commuting_degree,
    "pid": positive_implicative_degree,
    "id": implicative_degree,
}

DEGREE_EQUATION_NAMES = {"emd": "EM", "dnd": "DN", "cd": "T", "pid": "E1", "id": "I"}


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


@dataclass(frozen=True)
class GapEvidence:
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


@dataclass(frozen=True)
class ChainDecomposition:
    """Multiset of chain lengths whose direct product is isomorphic to the
    input; empty for the one-element algebra. Lengths are all >= 2 and
    their product is the algebra order."""

    chain_lengths: tuple[int, ...]


def _factorizations(n: int, max_factor: int):
    # non-increasing factor tuples with product n, factors >= 2
    if n == 1:
        yield ()
        return
    for f in range(min(n, max_factor), 1, -1):
        if n % f == 0:
            for rest in _factorizations(n // f, f):
                yield (f,) + rest


def decompose_commutative(algebra: BckAlgebra) -> ChainDecomposition:
    """Factor a commutative algebra into a direct product of chains.

    Searches factor multisets of the order in non-increasing order and
    returns the first whose chain product is isomorphic to the input; the
    isomorphism check is part of the search, so a returned decomposition
    is always verified. Raises :class:`NotCommutativeError` for
    non-commutative input and :class:`DecompositionError`, loudly, when no
    decomposition exists (possible only for unbounded commutative input).
    """
    if not algebra.is_commutative():
        raise NotCommutativeError("chain decomposition applies to commutative algebras only")
    for factors in _factorizations(algebra.order, algebra.order):
        candidate = reduce(direct_product, (chain(j) for j in factors), trivial())
        if candidate.is_isomorphic(algebra):
            return ChainDecomposition(tuple(sorted(factors)))
    raise DecompositionError(
        f"no chain-product decomposition of this order-{algebra.order} commutative algebra"
        + ("" if algebra.bound is not None else " (it is unbounded, so none is guaranteed)")
    )
