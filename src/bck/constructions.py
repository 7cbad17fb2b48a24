"""Constructors for the named algebras and families used throughout.

Index layouts are fixed so that emitted tables are byte-stable:

- bck_union(A, B): A keeps its indices, B's non-zero elements follow
  (b >= 1 maps to |A| + b - 1).
- iseki_extension(A): the new top gets the last index |A|.
- direct_product(A, B): row-major pairs, (a, b) maps to a*|B| + b.

The constructors do not run the axiom checker on their output: each
builds a BCK-algebra by a theorem, and the test suite checks their outputs
over wide ranges of arguments (tests/test_constructions.py). Tables that
arrive from outside are checked once, by ``from_table``.
"""

from __future__ import annotations

from .algebra import BckAlgebra, _build

FAMILY_NAMES = ("C", "D", "Q", "B", "M", "P", "Pprime")


def trivial() -> BckAlgebra:
    """The one-element algebra (bounded, with 1 = 0)."""
    return _build(1, [[0]])


def two() -> BckAlgebra:
    """The unique order-2 algebra; implicative."""
    return _build(2, [[0, 0], [1, 0]])


def pi() -> BckAlgebra:
    """Order-3 algebra that is positive implicative but not commutative."""
    return _build(3, [[0, 0, 0], [1, 0, 0], [2, 2, 0]])


def tc() -> BckAlgebra:
    """Order-3 algebra that is commutative but not positive implicative."""
    return _build(3, [[0, 0, 0], [1, 0, 0], [2, 1, 0]])


def chain(n: int) -> BckAlgebra:
    """The chain C_n on {0..n-1} with x*y = max(x-y, 0); linear, commutative."""
    if n < 2:
        raise ValueError(f"chain needs n >= 2, got {n}")
    return _build(n, [[max(x - y, 0) for y in range(n)] for x in range(n)])


def bck_union(a: BckAlgebra, b: BckAlgebra) -> BckAlgebra:
    """Disjoint union glued at 0: x*y is the component operation when x, y
    share a component, else x. Order |A| + |B| - 1."""
    n, m = a.order, b.order
    size = n + m - 1
    t = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            in_a = x < n
            in_b = x == 0 or x >= n
            y_in_a = y < n
            y_in_b = y == 0 or y >= n
            if in_a and y_in_a:
                t[x][y] = a.op(x, y)
            elif in_b and y_in_b:
                bx = 0 if x == 0 else x - n + 1
                by = 0 if y == 0 else y - n + 1
                v = b.op(bx, by)
                t[x][y] = 0 if v == 0 else v + n - 1
            else:
                t[x][y] = x
    return _build(size, t)


def iseki_extension(a: BckAlgebra) -> BckAlgebra:
    """Adjoin a new top T with x*T = 0, T*T = 0, T*x = T.

    The result is bounded, and non-commutative whenever |A| >= 2.
    """
    n = a.order
    t = [list(row) + [0] for row in a.table]
    t.append([n] * n + [0])
    return _build(n + 1, t)


def direct_product(a: BckAlgebra, b: BckAlgebra) -> BckAlgebra:
    """Componentwise product on pairs; (0, 0) is index 0."""
    n, m = a.order, b.order
    size = n * m
    t = [[0] * size for _ in range(size)]
    for xa in range(n):
        for xb in range(m):
            for ya in range(n):
                for yb in range(m):
                    t[xa * m + xb][ya * m + yb] = a.op(xa, ya) * m + b.op(xb, yb)
    return _build(size, t)


def d_algebra(n: int) -> BckAlgebra:
    """One-element extension of the chain C_n by a new top n, with
    n*k = n-k-1 for 1 <= k <= n-2 and n*(n-1) = 1.

    Order n+1; bounded with bound n; non-commutative (the pair (n, n-1)
    fails to commute). The double-negation degree is n/(n+1), the largest
    value a bounded non-commutative algebra of this order can attain.
    """
    if n < 3:
        raise ValueError(f"d_algebra needs n >= 3, got {n}")
    t = [[max(x - y, 0) for y in range(n)] + [0] for x in range(n)]
    top = [n] + [n - k - 1 for k in range(1, n - 1)] + [1, 0]
    t.append(top)
    return _build(n + 1, t)


def q_algebra(n: int) -> BckAlgebra:
    """Commutative algebra on {0, a, b_1..b_{n-2}} with 0 < a < every b_i and
    the b_i pairwise incomparable; b_i*a = b_i*b_j = a.

    Index layout: 0 -> 0, a -> 1, b_i -> i+1. Realizes the minimum positive
    implicative (and implicative) degree (4n-4)/n^2 among order-n algebras.
    """
    if n < 3:
        raise ValueError(f"q_algebra needs n >= 3, got {n}")
    t = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x == 0 or x == y or (x == 1 and y >= 2):
                t[x][y] = 0
            elif y == 0:
                t[x][y] = x
            else:
                t[x][y] = 1
    return _build(n, t)


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
    a = pi() if name in ("B", "M") else tc()
    for _ in range(n - 3):
        a = bck_union(a, two()) if name in ("B", "P") else iseki_extension(a)
    return a
