"""The four workloads: their inputs, their command lists, and the expected
report of every command.

``setup`` writes a workload's inputs with the `bck` library (the work a
user does before running commands) and returns the job list. Each job is
one `bck` command line plus a description of what its report must be.
``expect`` turns those descriptions into expected reports with
:mod:`reference` alone; ``check`` compares one command's outcome with its
expectation. Only ``setup`` touches `bck`.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
from fractions import Fraction

import reference as R

KINDS = ("emd", "dnd", "cd", "pid", "id")
GAP_NAMES = ("EM", "DN", "T", "E1", "I")
BOUNDED_FAMILIES = ("C", "D", "M", "Pprime")

# The fault every `audit --catalog` on a tampered index shows until
# `load_catalog` recomputes what it loads.
LOAD_CATALOG_FAULT = "load_catalog trusts the degrees stored in index.json"


# ------------------------------------------------------------------ inputs


def random_labels(rng: random.Random, n: int) -> list[int]:
    """A permutation of 0..n-1 fixing 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabeled_rows(table, sigma) -> list[list[int]]:
    n = len(table)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return rows


def random_equation(rng: random.Random, bounded: bool) -> str:
    """A 3-variable equation with a fixed operator multiset, so that every
    seed costs about the same to evaluate: five binary operators and seven
    variable leaves split over the two sides, plus one negation when the
    target algebra is bounded."""
    ops = [".", ".", ".", "&", "|"] if bounded else [".", ".", ".", "&", "&"]
    rng.shuffle(ops)
    while True:
        leaves = [rng.choice("xyz") for _ in range(len(ops) + 2)]
        if set(leaves) == set("xyz"):
            break
    op_it, leaf_it = iter(ops), iter(leaves)
    negate = rng.randrange(len(ops) + len(leaves)) if bounded else -1
    built = [0]

    def tree(m):
        if m == 0:
            t = ("var", next(leaf_it))
        else:
            i = rng.randrange(m)
            op = next(op_it)
            t = (op, tree(i), tree(m - 1 - i))
        built[0] += 1
        return ("~", t) if built[0] - 1 == negate else t

    split = rng.choice((2, 3))
    lhs, rhs = tree(split), tree(len(ops) - split)
    return f"{R.show(lhs)} = {R.show(rhs)}"


class Inputs:
    """Writes a workload's input files under one directory."""

    def __init__(self, bck, directory: str, rng: random.Random):
        self.bck = bck
        self.dir = directory
        self.rng = rng
        self.written: set[str] = set()
        os.makedirs(os.path.join(directory, "out"), exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write(self, name: str, order: int, rows) -> str:
        path = self.path(name)
        if path in self.written:
            raise ValueError(f"input {path} written twice")
        self.written.add(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.bck.tableio.dumps(order, rows))
        return path

    def family(self, name: str, n: int) -> tuple[str, dict]:
        """A seeded relabeling of a family member; returns its path and
        the description the reference rebuilds it from."""
        algebra = self.bck.family(name, n)
        sigma = random_labels(self.rng, algebra.order)
        path = self.write(f"{name}{n}.tbl", algebra.order, relabeled_rows(algebra.table, sigma))
        return path, {"family": name, "n": n, "sigma": sigma}

    def chain_product(self, lengths: tuple[int, ...]) -> tuple[str, dict]:
        algebra = self.bck.trivial()
        for m in lengths:
            algebra = self.bck.direct_product(algebra, self.bck.chain(m))
        sigma = random_labels(self.rng, algebra.order)
        name = "x".join(f"C{m}" for m in lengths) + ".tbl"
        path = self.write(name, algebra.order, relabeled_rows(algebra.table, sigma))
        return path, {"product": list(lengths), "sigma": sigma}

    def corrupted(self, source: str, spec: dict, copy: int) -> tuple[str, dict]:
        """A copy of ``source`` with one cell changed so that it is no
        longer a BCK-algebra."""
        with open(source, encoding="utf-8") as fh:
            order, rows = self.bck.tableio.loads(fh.read())
        while True:
            x, y = self.rng.randrange(1, order), self.rng.randrange(1, order)
            v = self.rng.randrange(order)
            if x == y or v == rows[x][y]:
                continue
            bad = [row[:] for row in rows]
            bad[x][y] = v
            if not self.bck.check_axioms(order, bad).ok:
                break
        path = self.write(f"{os.path.basename(source)[:-4]}_bad{copy}.tbl", order, bad)
        return path, dict(spec, cell=[x, y, v])


def _cmd(*argv) -> list[str]:
    return [str(a) for a in argv] + ["--format", "json"]


def setup(workload: str, seed: int, directory: str, bck) -> list[dict]:
    """Write the inputs of ``workload`` and return its jobs, in the seeded
    order every round issues them."""
    rng = random.Random(f"{workload}-{seed}")
    jobs = JOB_LISTS[workload](Inputs(bck, directory, rng))
    rng.shuffle(jobs)
    return jobs


# Family members for `bck degree --kind`: tens to low hundreds of elements.
DEGREE_TABLES = {"C": (40, 80, 120), "D": (30, 60, 90), "M": (24, 48), "Pprime": (24, 48),
                 "Q": (40, 80), "B": (24, 48), "P": (24, 48)}
# Targets of the random 3-variable equations (n^3 assignments each).
EQUATION_TARGETS = (("C", 16), ("C", 24), ("C", 32), ("D", 19), ("D", 27), ("M", 20),
                    ("Pprime", 26), ("Q", 18), ("Q", 28), ("B", 22), ("P", 30), ("M", 30))
EQUATIONS_PER_TARGET = 3


def _degrees_jobs(inputs: Inputs) -> list[dict]:
    jobs = []
    for name, orders in DEGREE_TABLES.items():
        for n in orders:
            path, spec = inputs.family(name, n)
            kinds = KINDS if name in BOUNDED_FAMILIES else ("cd", "pid", "id")
            for kind in kinds:
                jobs.append({"argv": _cmd("degree", path, "--kind", kind),
                             "expect": {"type": "degree", "table": spec, "kind": kind}})
    for name, n in EQUATION_TARGETS:
        path, spec = inputs.family(name, n)
        for _ in range(EQUATIONS_PER_TARGET):
            eq = random_equation(inputs.rng, name in BOUNDED_FAMILIES)
            jobs.append({"argv": _cmd("degree", path, "--eq", eq),
                         "expect": {"type": "degree", "table": spec, "eq": eq}})
    return jobs


# Family member order and number of corrupted copies. The order-48 tables
# get more copies so that the median command lies inside their cluster of
# equal-cost commands, not between two clusters.
SWEEP_TABLES = {"C": (128, 4), "D": (95, 4), "Q": (96, 4), "B": (48, 6), "M": (48, 6), "P": (48, 6),
                "Pprime": (48, 6)}
CONSTRUCTIONS = (("union", ("M", 20), ("C", 30)), ("union", ("B", 20), ("Q", 24)),
                 ("union", ("Pprime", 16), ("D", 12)), ("product", ("C", 6), ("C", 7)),
                 ("product", ("D", 4), ("Q", 8)), ("product", ("Q", 5), ("M", 9)),
                 ("iseki", ("B", 40)), ("iseki", ("P", 40)))
GAP_MAX_N = 40
DECOMPOSE = ((2, 3), (2, 4), (2, 2, 2), (3, 3))


def _sweep_jobs(inputs: Inputs) -> list[dict]:
    jobs = []
    for name, (n, copies) in SWEEP_TABLES.items():
        for m in (n, n // 2):
            out = inputs.path(f"out/{name}{m}.tbl")
            jobs.append({"argv": _cmd("family", "--name", name, "--n", m, "--out", out),
                         "expect": {"type": "file", "path": out, "table": {"family": name, "n": m}}})
        path, spec = inputs.family(name, n)
        tables = [(path, spec)] + [inputs.corrupted(path, spec, c) for c in range(copies)]
        for p, s in tables:
            jobs.append({"argv": _cmd("verify", p), "expect": {"type": "verify", "table": s}})
            jobs.append({"argv": _cmd("props", p), "expect": {"type": "props", "table": s}})
    for i, (op, *operands) in enumerate(CONSTRUCTIONS):
        paths, specs = zip(*(inputs.family(name, n) for name, n in operands))
        out = inputs.path(f"out/construct{i}.tbl")
        jobs.append({"argv": _cmd("construct", op, *paths, "--out", out),
                     "expect": {"type": "file", "path": out, "table": {"construct": op, "operands": list(specs)}}})
    for name in GAP_NAMES:
        jobs.append({"argv": _cmd("gap", "--kind", name, "--max-n", GAP_MAX_N),
                     "expect": {"type": "gap", "name": name, "max_n": GAP_MAX_N}})
    for lengths in DECOMPOSE:
        path, spec = inputs.chain_product(lengths)
        jobs.append({"argv": _cmd("decompose", path), "expect": {"type": "decompose", "table": spec}})
    return jobs


CATALOG_ORDERS = (1, 2, 3, 4, 5)
AUDIT_ORDERS = (3, 4, 5)
FRESH_SPECTRUM_ORDERS = (3, 4)
# The tampered catalog: the order-3 algebra below gets a stored cd of 1/9
# (its true cd is 7/9).
TAMPERED_TABLE = [[0, 0, 0], [1, 0, 0], [2, 2, 0]]


def _catalog_jobs(inputs: Inputs) -> list[dict]:
    bck = inputs.bck
    jobs = []
    for n in CATALOG_ORDERS:
        cat = inputs.path(f"cat{n}")
        bck.save_catalog(bck.enumerate_algebras(n), cat)
        out = inputs.path(f"out/cat{n}")
        jobs.append({"argv": _cmd("enumerate", "--order", n, "--out", out),
                     "expect": {"type": "enumerate", "order": n, "out": out}})
        for fname in sorted(os.listdir(cat)):
            if fname.endswith(".tbl"):
                p = os.path.join(cat, fname)
                spec = {"file": p}
                jobs.append({"argv": _cmd("verify", p), "expect": {"type": "verify", "table": spec}})
                jobs.append({"argv": _cmd("props", p), "expect": {"type": "props", "table": spec}})
        if n in AUDIT_ORDERS:
            for kind in KINDS:
                jobs.append({"argv": _cmd("spectrum", "--order", n, "--kind", kind, "--catalog", cat),
                             "expect": {"type": "spectrum", "order": n, "kind": kind}})
            for extra in ([], ["--catalog", cat]):
                jobs.append({"argv": _cmd("audit", "--order", n, *extra),
                             "expect": {"type": "audit", "order": n}})
        if n in FRESH_SPECTRUM_ORDERS:
            for kind in KINDS:
                jobs.append({"argv": _cmd("spectrum", "--order", n, "--kind", kind),
                             "expect": {"type": "spectrum", "order": n, "kind": kind}})
    tampered = inputs.path("cat3_tampered")
    shutil.copytree(inputs.path("cat3"), tampered)
    with open(os.path.join(tampered, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    for rec in index["algebras"]:
        with open(os.path.join(tampered, rec["file"]), encoding="utf-8") as fh:
            if bck.tableio.loads(fh.read())[1] == TAMPERED_TABLE:
                rec["degrees"]["cd"] = {"count": 1, "total": 9, "reduced": "1/9"}
    with open(os.path.join(tampered, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    # the known wrong report is the audit of the stored, tampered degrees
    jobs.append({"argv": _cmd("audit", "--order", 3, "--catalog", tampered),
                 "expect": {"type": "audit", "order": 3},
                 "fault": {"name": LOAD_CATALOG_FAULT, "expect": {"type": "audit", "order": 3, "tampered": True}}})
    return jobs


# Chain orders for `bck degree --eq --jobs 2`: 3-variable equations from
# 27 to 216 000 assignments, on both sides of where the pool pays (it
# loses at 27 000 = 30^3 and wins at 216 000 = 60^3). The smallest orders
# get ten equations each, so that a round issues 100 commands, and orders
# 11-24 one each, so that latencies near the 90th percentile rise in small
# steps.
PARALLEL_ORDERS = tuple(range(3, 11)) * 10 + tuple(range(11, 25)) + (26, 30, 36, 40, 60)
PARALLEL_GAPS = (("EM", 20), ("I", 20), ("T", 20))
JOBS = 2


def _parallel_jobs(inputs: Inputs) -> list[dict]:
    jobs = []
    tables = {n: inputs.family("C", n) for n in sorted(set(PARALLEL_ORDERS))}
    for n in PARALLEL_ORDERS:
        path, spec = tables[n]
        eq = random_equation(inputs.rng, True)
        jobs.append({"argv": _cmd("degree", path, "--eq", eq, "--jobs", JOBS),
                     "expect": {"type": "degree", "table": spec, "eq": eq}})
    for name, max_n in PARALLEL_GAPS:
        jobs.append({"argv": _cmd("gap", "--kind", name, "--max-n", max_n, "--jobs", JOBS),
                     "expect": {"type": "gap", "name": name, "max_n": max_n}})
    jobs.append({"argv": _cmd("enumerate", "--order", 5, "--jobs", JOBS),
                 "expect": {"type": "enumerate", "order": 5, "out": None}})
    return jobs


JOB_LISTS = {"degrees": _degrees_jobs, "sweep": _sweep_jobs, "catalog": _catalog_jobs, "parallel": _parallel_jobs}


# ------------------------------------------------------------ expectations


class Expectations:
    """Builds expected reports with the reference checker alone, caching
    the catalogs it enumerates."""

    def __init__(self):
        self._catalogs: dict[int, list[dict]] = {}

    def table(self, spec: dict):
        if "file" in spec:
            with open(spec["file"], encoding="utf-8") as fh:
                return R.parse_table(fh.read())
        if "family" in spec:
            t = R.family(spec["family"], spec["n"])
        elif "product" in spec:
            t = R.as_table([[0]])
            for m in spec["product"]:
                t = R.product(t, R.chain(m))
        else:
            a, *rest = (self.table(s) for s in spec["operands"])
            t = {"union": R.union, "product": R.product}[spec["construct"]](a, *rest) if rest else R.iseki(a)
        if "sigma" in spec:
            t = R.relabel(t, spec["sigma"])
        if "cell" in spec:
            x, y, v = spec["cell"]
            t = t.copy()
            t[x, y] = v
        return t

    def catalog(self, n: int) -> list[dict]:
        if n not in self._catalogs:
            entries = [R.entry(tab) for tab in R.classes(n)]
            _check_audit_classes(n, entries)
            self._catalogs[n] = entries
        return self._catalogs[n]

    def expected(self, e: dict) -> dict:
        """What the command's report must be: ``results`` of its JSON
        report, a file's bytes, or its stderr."""
        kind = e["type"]
        if kind == "file":
            return {"file": e["path"], "text": R.format_table(self.table(e["table"]))}
        if kind == "gap":
            results = R.gap(e["name"], e["max_n"])
            _check_gap(e["name"], results)
            return {"results": results}
        if kind == "spectrum":
            return {"results": R.spectrum(e["order"], self.catalog(e["order"]), e["kind"])}
        if kind == "audit":
            entries = self.catalog(e["order"])
            return {"results": R.audit(e["order"], tampered(entries) if e.get("tampered") else entries)}
        if kind == "enumerate":
            entries = self.catalog(e["order"])
            out = {"results": {"order": e["order"], "count": len(entries), "algebras": entries}}
            return dict(out, catalog=e["out"]) if e["out"] else out
        t = self.table(e["table"])
        if kind == "verify":
            viol = R.axiom_violations(t)
            return {"results": {"valid": not viol,
                                "violations": [{"axiom": a, "witness": list(w)} for a, w in viol]}}
        if kind == "props":
            viol = R.axiom_violations(t)
            if viol:
                ids = ", ".join(a for a, _ in viol)
                return {"stderr": f"error: table is not a BCK-algebra (violates {ids})\n"}
            return {"results": R.properties(t)}
        if kind == "decompose":
            return {"results": {"chain_lengths": sorted(e["table"]["product"])}}
        if kind == "degree":
            return {"results": self.degree(t, e)}
        raise ValueError(f"unknown expectation {kind!r}")

    def degree(self, t, e: dict) -> dict:
        if "eq" in e:
            lhs, rhs = R.parse(e["eq"])
            shown, kind, note = f"{R.show(lhs)} = {R.show(rhs)}", None, None
            d = R.degree_json(*R.count_satisfying(t, (lhs, rhs)))
        else:
            kind = e["kind"]
            shown = R.STUDIED[R.KIND_EQUATION[kind]]
            d = R.kind_degree(t, kind)
            commutative = R.properties(t)["commutative"]
            note = "outside usual hypothesis: algebra is not commutative" if kind == "emd" and not commutative else None
            _check_closed_form(e["table"], kind, d)
        return {"equation": shown, "kind": kind, "degree": d, "note": note}


# Closed forms the constructors document, as functions of the family index.
CLOSED_FORMS = {
    ("D", "dnd"): lambda n: Fraction(n, n + 1),
    ("B", "cd"): lambda n: Fraction(n * n - 2, n * n),
    ("M", "cd"): lambda n: Fraction(3 * n - 2, n * n),
    ("P", "pid"): lambda n: Fraction(n * n - 1, n * n),
    ("Pprime", "pid"): lambda n: Fraction(n * n - 1, n * n),
    ("Q", "pid"): lambda n: Fraction(4 * n - 4, n * n),
    ("Q", "id"): lambda n: Fraction(4 * n - 4, n * n),
    ("C", "emd"): lambda n: Fraction(2, n),
}
GAPS = {"EM": Fraction(1, 3), "E1": Fraction(1, 9), "I": Fraction(1, 9)}


def _check_closed_form(spec: dict, kind: str, d: dict) -> None:
    form = CLOSED_FORMS.get((spec.get("family"), kind))
    if form and Fraction(d["count"], d["total"]) != form(spec["n"]):
        raise AssertionError(f"{kind}({spec['family']}_{spec['n']}) = {d['reduced']}, closed form {form(spec['n'])}")


def _check_gap(name: str, results: dict) -> None:
    want = GAPS.get(name)
    got = results["candidate_gap"]
    if (want is None and got is not None) or (want is not None and got != str(want)):
        raise AssertionError(f"candidate gap of {name} is {got}, expected {want}")


def _check_audit_classes(n: int, entries: list[dict]) -> None:
    """Acceptance criterion 8's classes: the dnd ceiling fails exactly on
    the bounded non-commutative algebras with an involutive negation, and
    chain factorization exactly on the unbounded commutative ones."""
    checks = {c["name"]: c for c in R.audit(n, entries)["checks"]}
    got = [c["table"] for c in checks["dnd_bounds_noncommutative_bounded"]["counterexamples"]]
    want = [e["table"] for e in entries if not e["commutative"] and R.involutive(e["table"])]
    if got != want:
        raise AssertionError(f"order {n}: dnd ceiling counterexamples {got} != {want}")
    got = [c["table"] for c in checks["chain_decomposition_commutative"]["counterexamples"]]
    want = [e["table"] for e in entries if e["commutative"] and e["bound"] is None]
    if got != want:
        raise AssertionError(f"order {n}: chain factorization counterexamples {got} != {want}")
    failing = {name for name, c in checks.items() if not c["passed"]}
    if failing - {"chain_decomposition_commutative", "dnd_bounds_noncommutative_bounded"}:
        raise AssertionError(f"order {n}: audit checks {sorted(failing)} fail on the true catalog")


def tampered(entries: list[dict]) -> list[dict]:
    """The catalog entries as the tampered index.json stores them."""
    out = copy.deepcopy(entries)
    for e in out:
        if e["table"] == TAMPERED_TABLE:
            e["degrees"]["cd"] = R.degree_json(1, 9)
    return out


def expect(jobs: list[dict]) -> list[dict]:
    """Each job's expected outcome. A job with a known fault also gets
    ``fault``: the fault's name and the wrong outcome it is known to give."""
    ex = Expectations()
    out = []
    for job in jobs:
        exp = ex.expected(job["expect"])
        if "fault" in job:
            exp["fault"] = dict(ex.expected(job["fault"]["expect"]), name=job["fault"]["name"])
        out.append(exp)
    return out


# ------------------------------------------------------------------ checks


def check(expected: dict, rc: int, stdout: str, stderr: str) -> str | None:
    """None when the outcome is right, else what is wrong. The exit code is
    not judged: `audit` exits 1 on counterexamples by design."""
    if "file" in expected:
        try:
            with open(expected["file"], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return f"output file: {exc}"
        return None if text == expected["text"] else "output table differs"
    if "stderr" in expected:
        return None if stderr == expected["stderr"] and not stdout else f"stderr {stderr!r}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"no JSON report (exit {rc}): {stderr.strip()[-200:]!r}"
    if report.get("results") != expected["results"]:
        return "results differ: " + _first_difference(report.get("results"), expected["results"])
    if "catalog" in expected:
        return _check_catalog_dir(expected["catalog"], expected["results"])
    return None


def _check_catalog_dir(directory: str, results: dict) -> str | None:
    try:
        with open(os.path.join(directory, "index.json"), encoding="utf-8") as fh:
            index = json.load(fh)
        recs = index["algebras"]
        if index["order"] != results["order"] or len(recs) != len(results["algebras"]):
            return "saved catalog has the wrong order or size"
        for rec, e in zip(recs, results["algebras"]):
            with open(os.path.join(directory, rec["file"]), encoding="utf-8") as fh:
                if R.parse_table(fh.read()).tolist() != e["table"]:
                    return f"saved table {rec['file']} differs"
            if {k: v for k, v in rec.items() if k != "file"} != {k: v for k, v in e.items() if k != "table"}:
                return f"saved index entry for {rec['file']} differs"
    except (OSError, ValueError, KeyError) as exc:
        return f"saved catalog unreadable: {exc}"
    return None


def _first_difference(got, want, path="results") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            if got.get(key) != want.get(key):
                return _first_difference(got.get(key), want.get(key), f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _first_difference(g, w, f"{path}[{i}]")
    return f"{path}: got {json.dumps(got)[:120]}, want {json.dumps(want)[:120]}"
