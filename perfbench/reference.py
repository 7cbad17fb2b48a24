"""Reference computations for checking `bck` reports, written apart from `bck`.

Nothing here imports `bck`. Tables are numpy integer arrays, axioms are
checked by brute force with numpy gathers, equations have their own term
representation (nested tuples) and are evaluated over the whole
assignment grid at once, and catalogs come from an independent labeled
enumeration followed by brute-force canonical forms and automorphism
counts. The formats of reports (detail strings, candidate sets) follow
the documented behaviour of `bck`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Number of BCK-algebras of order n up to isomorphism, n = 1..5.
CLASS_COUNTS = {1: 1, 2: 1, 3: 3, 4: 14, 5: 88}

# ---------------------------------------------------------------- tables


def as_table(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


def parse_table(text: str) -> np.ndarray:
    """Read the plain-text table format: order line, then n rows; '#' lines
    and blank lines are skipped."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(lines[0][0])
    rows = [[int(v) for v in ln] for ln in lines[1:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("table text does not have n rows of n entries")
    return as_table(rows)


def format_table(t: np.ndarray) -> str:
    return f"{len(t)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in t.tolist())


def axiom_violations(t: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """One lexicographically first witness per violated axiom class."""
    n = len(t)
    out = []
    idx = np.arange(n)
    for x in range(n):  # BCK1, one x at a time to bound memory
        r = t[t[t[x][:, None], t[x][None, :]], t.T]  # [y, z]
        bad = np.argwhere(r != 0)
        if bad.size:
            out.append(("BCK1", (x, int(bad[0][0]), int(bad[0][1]))))
            break
    r = t[t[idx[:, None], t], idx[None, :]]
    bad = np.argwhere(r != 0)
    if bad.size:
        out.append(("BCK2", tuple(int(v) for v in bad[0])))
    for name, mask in (("BCK3", np.diagonal(t) != 0), ("BCK4", t[0] != 0)):
        bad = np.flatnonzero(mask)
        if bad.size:
            out.append((name, (int(bad[0]),)))
    bad = np.argwhere((t == 0) & (t.T == 0) & (idx[:, None] != idx[None, :]))
    if bad.size:
        out.append(("BCK5", tuple(int(v) for v in bad[0])))
    bad = np.flatnonzero(t[:, 0] != idx)
    if bad.size:
        out.append(("X0", (int(bad[0]),)))
    return out


def greatest(t: np.ndarray) -> int | None:
    cols = np.flatnonzero((t == 0).all(axis=0))
    return int(cols[0]) if cols.size else None


def meet_table(t: np.ndarray) -> np.ndarray:
    """m[x, y] = x & y = y*(y*x)."""
    idx = np.arange(len(t))
    return t[idx[None, :], t.T]


def properties(t: np.ndarray) -> dict:
    n = len(t)
    leq = t == 0
    m = meet_table(t)
    idx = np.arange(n)
    atoms = [x for x in range(1, n) if not any(leq[y, x] for y in range(1, n) if y != x)]
    return {
        "order": n,
        "bound": greatest(t),
        "linear": bool((leq | leq.T).all()),
        "commutative": bool((m == m.T).all()),
        "positive_implicative": bool((t == t[t, idx[None, :]]).all()),
        "implicative": bool((t[idx[:, None], t.T] == idx[:, None]).all()),
        "atoms": atoms,
    }


# ---------------------------------------------------------- constructions


def chain(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.maximum(idx[:, None] - idx[None, :], 0)


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Glued at 0; b's non-zero elements follow a's."""
    n, m = len(a), len(b)
    size = n + m - 1
    t = np.tile(np.arange(size)[:, None], (1, size))
    t[:n, :n] = a
    bmap = np.concatenate(([0], np.arange(n, size)))
    t[np.ix_(bmap, bmap)] = bmap[b]
    return t


def iseki(a: np.ndarray) -> np.ndarray:
    n = len(a)
    t = np.zeros((n + 1, n + 1), dtype=np.int64)
    t[:n, :n] = a
    t[n, :n] = n
    return t


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairs (x, y) at index x*|b| + y."""
    m = len(b)
    return (a[:, None, :, None] * m + b[None, :, None, :]).reshape(len(a) * m, len(a) * m)


def d_algebra(n: int) -> np.ndarray:
    t = iseki(chain(n))
    t[n, 1 : n - 1] = [n - k - 1 for k in range(1, n - 1)]
    t[n, n - 1] = 1
    return t


def q_algebra(n: int) -> np.ndarray:
    t = np.ones((n, n), dtype=np.int64)
    t[:, 0] = np.arange(n)
    t[0, :] = 0
    t[1, 2:] = 0
    np.fill_diagonal(t, 0)
    return t


TWO = as_table([[0, 0], [1, 0]])
PI = as_table([[0, 0, 0], [1, 0, 0], [2, 2, 0]])
TC = as_table([[0, 0, 0], [1, 0, 0], [2, 1, 0]])


def family(name: str, n: int) -> np.ndarray:
    if name == "C":
        return chain(n)
    if name == "D":
        return d_algebra(n)
    if name == "Q":
        return q_algebra(n)
    a = PI if name in ("B", "M") else TC
    for _ in range(n - 3):
        a = union(a, TWO) if name in ("B", "P") else iseki(a)
    return a


def relabel(t: np.ndarray, sigma) -> np.ndarray:
    """The table of the same algebra with element x renamed sigma[x]."""
    sigma = np.asarray(sigma)
    inv = np.argsort(sigma)
    return sigma[t[np.ix_(inv, inv)]]


# -------------------------------------------------------------- equations
#
# Terms are nested tuples: ("var", name), ("0",), ("1",), (".", l, r),
# ("&", l, r), ("|", l, r), ("~", child).

PREC = {"|": 1, "&": 2, ".": 3}


def show(term, parent=0, right=False) -> str:
    """Print with the fewest parentheses: infix operators associate left."""
    op = term[0]
    if op == "var":
        return term[1]
    if op in ("0", "1"):
        return op
    if op == "~":
        return "~" + show(term[1], 4)
    s = f"{show(term[1], PREC[op])} {op} {show(term[2], PREC[op], True)}"
    return f"({s})" if PREC[op] < parent or (PREC[op] == parent and right) else s


def parse(text: str):
    """Parse the equation grammar into a (lhs, rhs) pair of terms."""
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("var", text[i:j]))
            i = j
        elif not c.isspace():
            toks.append((c,))
            i += 1
        else:
            i += 1
    pos = 0

    def level(ops, sub):
        nonlocal pos
        t = sub()
        while pos < len(toks) and toks[pos][0] in ops:
            op = toks[pos][0]
            pos += 1
            t = (op, t, sub())
        return t

    def unary():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok[0] == "~":
            return ("~", unary())
        if tok[0] == "(":
            t = expr()
            expect(")")
            return t
        return tok

    def expr():
        return level("|", lambda: level("&", lambda: level(".", unary)))

    def expect(kind):
        nonlocal pos
        if pos >= len(toks) or toks[pos][0] != kind:
            raise ValueError(f"expected {kind!r} at token {pos} of {text!r}")
        pos += 1

    lhs = expr()
    expect("=")
    rhs = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return lhs, rhs


STUDIED = {
    "DN": "~~x = x",
    "EM": "x | ~x = 1",
    "T": "x & y = y & x",
    "E1": "x . y = (x . y) . y",
    "I": "x . (y . x) = x",
}
KIND_EQUATION = {"emd": "EM", "dnd": "DN", "cd": "T", "pid": "E1", "id": "I"}


def variables(term, out=None) -> list[str]:
    out = [] if out is None else out
    if term[0] == "var":
        if term[1] not in out:
            out.append(term[1])
    else:
        for child in term[1:]:
            variables(child, out)
    return out


def _evaluate(term, t, env, one):
    op = term[0]
    if op == "var":
        return env[term[1]]
    if op == "0":
        return np.int64(0)
    if op == "1":
        return np.int64(one)
    if op == "~":
        return t[one, _evaluate(term[1], t, env, one)]
    a = _evaluate(term[1], t, env, one)
    b = _evaluate(term[2], t, env, one)
    if op == ".":
        return t[a, b]
    if op == "&":
        return t[b, t[b, a]]
    na, nb = t[one, a], t[one, b]  # "|": ~(~a & ~b)
    return t[one, t[nb, t[nb, na]]]


def count_satisfying(t: np.ndarray, equation) -> tuple[int, int]:
    """(assignments satisfying the equation, n^k) over the whole grid."""
    lhs, rhs = equation
    names = variables(rhs, variables(lhs))
    n, k = len(t), len(names)
    env = {v: np.arange(n).reshape([n if i == j else 1 for j in range(k)]) for i, v in enumerate(names)}
    one = greatest(t)
    if one is None and any(op in show(lhs) + show(rhs) for op in "1~|"):
        raise ValueError("equation needs a greatest element")
    same = _evaluate(lhs, t, env, one) == _evaluate(rhs, t, env, one)
    return int(np.count_nonzero(np.broadcast_to(same, (n,) * k))), n**k


def degree_json(count: int, total: int) -> dict:
    return {"count": count, "total": total, "reduced": str(Fraction(count, total))}


def kind_degree(t: np.ndarray, kind: str) -> dict:
    return degree_json(*count_satisfying(t, parse(STUDIED[KIND_EQUATION[kind]])))


# ------------------------------------------------------------ enumeration


def labeled_tables(n: int) -> np.ndarray:
    """Every BCK table on 0..n-1. The free cells are filled one at a time
    in row-major order, with every value, and a partial table is dropped as
    soon as an axiom instance that reads only filled cells fails.
    Independent of the enumerator in `bck`."""
    tabs = np.zeros((1, n, n), dtype=np.int64)
    tabs[0, :, 0] = np.arange(n)
    known = np.zeros((n, n), dtype=bool)
    known[0, :] = known[:, 0] = True
    known[np.diag_indices(n)] = True
    for x, y in zip(*np.nonzero(~known)):
        tabs = np.repeat(tabs, n, axis=0)
        tabs[:, x, y] = np.tile(np.arange(n), len(tabs) // n)
        known[x, y] = True
        tabs = tabs[~_definitely_invalid(tabs, known)]
    return tabs


def _definitely_invalid(tabs: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Mask of partial tables with a failing axiom instance that reads only
    filled cells (``known``)."""
    N, n, _ = tabs.shape
    r = np.arange(N)

    def get(a, b, ok):
        ok = ok & known[a, b]
        return np.where(ok, tabs[r, a, b], 0), ok

    bad = np.zeros(N, dtype=bool)
    every = np.ones(N, dtype=bool)
    for x in range(n):
        xs = np.full(N, x)
        for y in range(n):
            ys = np.full(N, y)
            if x != y and known[x, y] and known[y, x]:
                bad |= (tabs[:, x, y] == 0) & (tabs[:, y, x] == 0)  # BCK5
            xy, ok = get(xs, ys, every)
            v, okv = get(xs, xy, ok)
            v, okv = get(v, ys, okv)
            bad |= okv & (v != 0)  # BCK2
            for z in range(n):
                zs = np.full(N, z)
                xz, ok2 = get(xs, zs, every)
                p, okp = get(xy, xz, ok & ok2)
                q, okq = get(zs, ys, every)
                v, okv = get(p, q, okp & okq)
                bad |= okv & (v != 0)  # BCK1
    return bad


def relabelings(tabs: np.ndarray) -> np.ndarray:
    """Every relabeling fixing 0 of every table in ``tabs`` (shape (N, n, n)),
    flattened: shape (N, (n-1)!, n*n)."""
    N, n, _ = tabs.shape
    perms = np.array([(0,) + p for p in itertools.permutations(range(1, n))])
    inv = np.argsort(perms, axis=1)
    # relabeled[s][x][y] = perms[s][t[inv[s][x]][inv[s][y]]]
    moved = tabs[:, inv[:, :, None], inv[:, None, :]]  # (N, m, n, n)
    return perms[np.arange(len(perms))[None, :, None, None], moved].reshape(N, len(perms), n * n)


def _keys(flat: np.ndarray, n: int) -> np.ndarray:
    """Row-major tables as base-n integers, so lexicographic order is
    integer order (exact for n <= 5 in 64 bits)."""
    return flat @ (n ** np.arange(n * n - 1, -1, -1, dtype=np.int64))


def classes(n: int) -> list[tuple]:
    """Sorted canonical tables (lexicographically least relabeling fixing 0)
    of all order-n algebras. The class list is checked against the labeled
    count by Burnside, sum (n-1)!/|Aut| = #labeled, and against the known
    class count."""
    if n > 5:
        raise ValueError("reference catalogs stop at order 5")
    labeled = labeled_tables(n)
    every = relabelings(labeled)
    best = np.take_along_axis(every, _keys(every, n).argmin(axis=1)[:, None, None], axis=1)[:, 0]
    found = sorted({tuple(map(tuple, row.reshape(n, n).tolist())) for row in best})
    canon = np.array(found, dtype=np.int64).reshape(len(found), n, n)
    auts = (relabelings(canon) == canon.reshape(len(found), 1, n * n)).all(axis=2).sum(axis=1)
    orbit_sum = int(sum(math.factorial(n - 1) // a for a in auts.tolist()))
    if orbit_sum != len(labeled):
        raise AssertionError(f"order {n}: Burnside sum {orbit_sum} != {len(labeled)} labeled tables")
    if len(found) != CLASS_COUNTS[n]:
        raise AssertionError(f"order {n}: {len(found)} classes, expected {CLASS_COUNTS[n]}")
    return found


# ------------------------------------------------------------ report bodies


def entry(table) -> dict:
    """One catalog entry as `bck enumerate` reports it."""
    t = as_table(table)
    p = properties(t)
    bounded = p["bound"] is not None
    return {
        "table": t.tolist(),
        "bound": p["bound"],
        "linear": p["linear"],
        "commutative": p["commutative"],
        "positive_implicative": p["positive_implicative"],
        "implicative": p["implicative"],
        "degrees": {
            kind: kind_degree(t, kind) if bounded or kind in ("cd", "pid", "id") else None
            for kind in KIND_EQUATION
        },
    }


def _fraction(d: dict) -> Fraction:
    return Fraction(d["count"], d["total"])


def spectrum(n: int, entries: list[dict], kind: str) -> dict:
    witnesses: dict[Fraction, list] = {}
    for e in entries:
        d = e["degrees"][kind]
        if d is not None and _fraction(d) not in witnesses:
            witnesses[_fraction(d)] = e["table"]
    achieved = sorted(witnesses)
    if kind == "dnd":
        possible = [Fraction(j, n) for j in range(2, n)] + [Fraction(1)]
    elif kind == "cd":
        possible = [Fraction(j, n * n) for j in range(3 * n - 2, n * n - 1, 2)] + [Fraction(1)]
    else:
        possible = None
    missing = [] if possible is None else sorted(set(possible) - set(achieved))
    outside = [] if possible is None else sorted(set(achieved) - set(possible))
    return {
        "order": n,
        "kind": kind,
        "possible": None if possible is None else [str(f) for f in sorted(possible)],
        "achieved": [str(f) for f in achieved],
        "missing": [str(f) for f in missing],
        "outside_possible": [str(f) for f in outside],
        "witnesses": {str(f): tab for f, tab in witnesses.items()},
    }


def involutive(table) -> bool:
    t = as_table(table)
    one = greatest(t)
    return one is not None and bool((t[one, t[one]] == np.arange(len(t))).all())


def audit(n: int, entries: list[dict]) -> dict:
    """The ten bound audits of `bck audit`, with its detail strings."""
    n2 = Fraction(n * n)
    checks = []

    def run(name, condition, holds, detail):
        bad = [{"table": e["table"], "detail": detail(e)} for e in entries if condition(e) and not holds(e)]
        checks.append({"name": name, "passed": not bad, "counterexamples": bad})

    def deg(e, kind):
        return _fraction(e["degrees"][kind])

    def red(e, kind):
        return e["degrees"][kind]["reduced"]

    def bounds(name, kind, flag, lo, hi, bounded=False):
        run(
            name,
            lambda e: not e[flag] and (not bounded or e["bound"] is not None),
            lambda e: lo <= deg(e, kind) <= hi,
            lambda e: f"{kind} = {red(e, kind)} outside [{lo}, {hi}]",
        )

    bounds("cd_bounds_noncommutative", "cd", "commutative", (3 * n - 2) / n2, (n * n - 2) / n2)
    bounds("dnd_bounds_noncommutative_bounded", "dnd", "commutative", Fraction(2, n), Fraction(n - 1, n), True)
    lo, hi = (4 * n - 4) / n2, (n * n - 1) / n2
    bounds("pid_bounds_not_positive_implicative", "pid", "positive_implicative", lo, hi)
    bounds("id_bounds_not_implicative", "id", "implicative", lo, hi)
    lo_lin = Fraction(n * n + 3 * n - 2) / (2 * n2)
    for kind, flag in (("pid", "positive_implicative"), ("id", "implicative")):
        run(
            f"{kind}_linear_lower_bound",
            lambda e, flag=flag: e["linear"] and not e[flag],
            lambda e, kind=kind: deg(e, kind) >= lo_lin,
            lambda e, kind=kind: f"{kind} = {red(e, kind)} below {lo_lin}",
        )
    for kind, flag, words in (
        ("cd", "commutative", "commutative"),
        ("pid", "positive_implicative", "positive implicative"),
        ("id", "implicative", "implicative"),
    ):
        run(
            f"{kind}_one_iff_{flag}",
            lambda e: True,
            lambda e, kind=kind, flag=flag: (deg(e, kind) == 1) == e[flag],
            lambda e, kind=kind, flag=flag, words=words: f"{kind} = {red(e, kind)}, {words} = {e[flag]}",
        )
    # Bounded commutative algebras are MV-algebras, and finite MV-algebras
    # are products of chains (Mundici 1986); every product of chains is
    # bounded, so exactly the unbounded commutative entries fail to factor.
    run(
        "chain_decomposition_commutative",
        lambda e: e["commutative"],
        lambda e: e["bound"] is not None,
        lambda e: f"no chain-product decomposition of this order-{n} commutative algebra"
        " (it is unbounded, so none is guaranteed)",
    )
    return {"order": n, "passed": all(c["passed"] for c in checks), "checks": checks}


def gap(name: str, max_n: int) -> dict:
    """`bck gap` over the chains C_2..C_max_n for a studied equation."""
    eq = parse(STUDIED[name])
    seq = [degree_json(*count_satisfying(chain(n), eq)) for n in range(2, max_n + 1)]
    best = None
    first = None
    for i, d in enumerate(seq):
        if _fraction(d) < 1:
            first = i if first is None else first
            if best is None or _fraction(d) > _fraction(best[1]):
                best = (i + 2, d)
    tail = [_fraction(d) for d in seq[first:]] if first is not None else []
    return {
        "equation": f"{show(eq[0])} = {show(eq[1])}",
        "max_n": max_n,
        "sequence": [{"n": i + 2, "degree": d} for i, d in enumerate(seq)],
        "sub_one_max": None if best is None else {"n": best[0], "degree": best[1]},
        "monotone_nonincreasing_after_first_sub_one": all(a >= b for a, b in zip(tail, tail[1:])),
        "candidate_gap": None if best is None else str(1 - _fraction(best[1])),
    }
