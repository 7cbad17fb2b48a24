"""Constructors for the named algebras and families used throughout.

Index layouts are fixed so that emitted tables are byte-stable:

- bck_union(A, B): A keeps its indices, B's non-zero elements follow
  (b >= 1 maps to |A| + b - 1).
- iseki_extension(A): the new top gets the last index |A|.
- direct_product(A, B): row-major pairs, (a, b) maps to a*|B| + b.

Each constructor broadcasts its operands' arrays into one table array and
builds its algebra once; ``family`` builds B, M, P and P' from their closed
forms. None runs the axiom checker on its output: each builds a
BCK-algebra by a theorem, and the test suite checks their outputs over
wide ranges of arguments (tests/test_constructions.py). Tables that
arrive from outside are checked once, by ``from_table``.
"""

from __future__ import annotations

import numpy as np

from .algebra import BckAlgebra, _build

FAMILY_NAMES = ("C", "D", "Q", "B", "M", "P", "Pprime")


def trivial() -> BckAlgebra:
    """The one-element algebra (bounded, with 1 = 0)."""
    return _build([[0]])


def two() -> BckAlgebra:
    """The unique order-2 algebra; implicative."""
    return _build([[0, 0], [1, 0]])


def pi() -> BckAlgebra:
    """Order-3 algebra that is positive implicative but not commutative."""
    return _build([[0, 0, 0], [1, 0, 0], [2, 2, 0]])


def tc() -> BckAlgebra:
    """Order-3 algebra that is commutative but not positive implicative."""
    return _build([[0, 0, 0], [1, 0, 0], [2, 1, 0]])


def chain(n: int) -> BckAlgebra:
    """The chain C_n on {0..n-1} with x*y = max(x-y, 0); linear, commutative."""
    if n < 2:
        raise ValueError(f"chain needs n >= 2, got {n}")
    x = np.arange(n)
    return _build(np.maximum(x[:, None] - x, 0))


def bck_union(a: BckAlgebra, b: BckAlgebra) -> BckAlgebra:
    """Disjoint union glued at 0: x*y is the component operation when x, y
    share a component, else x. Order |A| + |B| - 1."""
    n, size = a.order, a.order + b.order - 1
    t = np.repeat(np.arange(size), size).reshape(size, size)
    t[:n, :n] = a.array
    lift = np.r_[0, n:size]  # b's element j in the union
    t[np.ix_(lift, lift)] = lift[b.array]
    return _build(t)


def _iseki(s: np.ndarray) -> np.ndarray:
    # iseki_extension on tables
    n = len(s)
    t = np.zeros((n + 1, n + 1), dtype=np.intp)
    t[:n, :n] = s
    t[n, :n] = n
    return t


def iseki_extension(a: BckAlgebra) -> BckAlgebra:
    """Adjoin a new top T with x*T = 0, T*T = 0, T*x = T.

    The result is bounded, and non-commutative whenever |A| >= 2.
    """
    return _build(_iseki(a.array))


def direct_product(a: BckAlgebra, b: BckAlgebra) -> BckAlgebra:
    """Componentwise product on pairs; (0, 0) is index 0."""
    n, m = a.order, b.order
    # axes (xa, xb, ya, yb), so rows are xa*m + xb and columns ya*m + yb
    t = a.array[:, None, :, None] * m + b.array[None, :, None, :]
    return _build(t.reshape(n * m, n * m))


def d_algebra(n: int) -> BckAlgebra:
    """One-element extension of the chain C_n by a new top n, with
    n*k = n-k-1 for 1 <= k <= n-2 and n*(n-1) = 1.

    Order n+1; bounded with bound n; non-commutative (the pair (n, n-1)
    fails to commute). The double-negation degree is n/(n+1), the largest
    value a bounded non-commutative algebra of this order can attain.
    """
    if n < 3:
        raise ValueError(f"d_algebra needs n >= 3, got {n}")
    x = np.arange(n)
    t = _iseki(np.maximum(x[:, None] - x, 0))  # C_n and a top, whose row is changed
    t[n, 1:n] = np.r_[n - 2 : 0 : -1, 1]  # n*k = n-k-1, n*(n-1) = 1
    return _build(t)


def q_algebra(n: int) -> BckAlgebra:
    """Commutative algebra on {0, a, b_1..b_{n-2}} with 0 < a < every b_i and
    the b_i pairwise incomparable; b_i*a = b_i*b_j = a.

    Index layout: 0 -> 0, a -> 1, b_i -> i+1. Realizes the minimum positive
    implicative (and implicative) degree (4n-4)/n^2 among order-n algebras.
    """
    if n < 3:
        raise ValueError(f"q_algebra needs n >= 3, got {n}")
    t = np.ones((n, n), dtype=np.intp)  # b_i*a = b_i*b_j = a
    t[:, 0] = np.arange(n)
    t[0] = 0
    t[1, 2:] = 0  # a <= b_i
    np.fill_diagonal(t, 0)
    return _build(t)


def family(name: str, n: int) -> BckAlgebra:
    """Build a member of one of the named families.

    C: chain of order n (n >= 2).
    D: extension of C_n by a new top, order n+1 (n >= 3).
    Q: unique-atom commutative algebra of order n (n >= 3).
    B: order n (n >= 3), base pi(), then repeated union with two();
       realizes the maximum commuting degree (n^2-2)/n^2.
    M: order n (n >= 3), base pi(), then repeated top extension;
       realizes the minimum commuting degree (3n-2)/n^2.
    P: order n (n >= 3), base tc(), then repeated union with two();
       realizes the maximum positive implicative degree (n^2-1)/n^2.
    Pprime: order n (n >= 3), base tc(), then repeated top extension;
       same maximum positive implicative degree, but linear.

    B, M, P and Pprime are built in closed form: outside the base block
    {0, 1, 2}, x*y = x for x != y after unions, x*y = x for x > y and 0
    for x < y after top extensions; x*x = 0.
    """
    if name == "C":
        return chain(n)
    if name == "D":
        return d_algebra(n)
    if name == "Q":
        return q_algebra(n)
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}, expected one of {FAMILY_NAMES}")
    if n < 3:
        raise ValueError(f"family {name} needs n >= 3, got {n}")
    x = np.arange(n)[:, None]
    t = np.where(x > x.T if name in ("M", "Pprime") else x != x.T, x, 0)
    t[:3, :3] = (pi() if name in ("B", "M") else tc()).array
    return _build(t)
