"""Per-layer tracing of `bck` from the outside.

Every public function of the layer modules is wrapped where its callers
look it up: in the module that defines it and in every `bck` module that
imported it by name. A wrapper records a span (calls, inclusive time, and
self time, which is the span minus its child spans) and the work counts
its arguments or result imply. Spans stay in memory as totals per
function. ``uninstall`` puts the original functions back, so untraced
rounds run the program exactly as shipped.

Not wrapped: `cli` functions other than ``main`` (argument parsing and
JSON encoding count as `cli` self time) and the per-assignment evaluator
``terms.eval_term``/``terms.holds``, whose millions of calls are timed as
part of ``degrees.ds``.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "tableio", "terms", "algebra", "constructions", "degrees", "enumeration")
SKIP = {"terms.eval_term", "terms.holds"}


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.active: Counter[str] = Counter()  # open spans per function
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- installation

    def install(self) -> None:
        modules = {layer: sys.modules[f"bck.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                key = f"{layer}.{name}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and key not in SKIP
                    and (layer != "cli" or name == "main")
                ):
                    wrappers[fn] = self._wrap(key, fn)
        for mod in [sys.modules["bck"], *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, fn in self._patches:
            setattr(mod, name, fn)
        self._patches.clear()

    # ------------------------------------------------------------- spans

    def _wrap(self, key, fn):
        count = getattr(self, "_count_" + key.replace(".", "_"), None)

        def traced(*args, **kwargs):
            self.stack.append([0.0])
            self.active[key] += 1
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = time.perf_counter() - start
                self.active[key] -= 1
                child = self.stack.pop()[0]
                if self.stack:
                    self.stack[-1][0] += span
                self.calls[key] += 1
                self.total[key] += span
                self.own[key] += span - child
                if count:
                    count(span, result, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------- counts at the boundary
    # _count_<layer>_<function> runs after every call of that function.

    def _count_degrees_ds(self, span, result, algebra, eq, jobs=1):
        self.counts["degrees.ds.assignments"] += algebra.order ** eq.arity
        if jobs > 1:
            self.counts["degrees.ds.parallel_calls"] += 1
            self.total["degrees.ds.parallel_wait"] += span

    def _count_algebra_check_axioms(self, span, result, order, table):
        self.counts["algebra.check_axioms.triples"] += order**3

    def _count_algebra_canonical_table(self, span, result, order, table):
        self.counts["algebra.canonical_table.relabelings"] += math.factorial(order - 1)
        if self.active["enumeration.enumerate_algebras"]:
            self.counts["enumeration.tables_completed"] += 1
        if self.active["degrees.decompose_commutative"]:
            # each candidate chain product is compared by two canonical forms
            self.counts["degrees.decompose_commutative.canonical_forms"] += 1

    def _count_enumeration_enumerate_algebras(self, span, result, *args, **kwargs):
        if result is not None:
            self.counts["enumeration.classes"] += len(result)

    def _count_enumeration_save_catalog(self, span, result, catalog, dirpath):
        self.counts["enumeration.save_catalog.bytes"] += _dir_bytes(dirpath)

    def _count_tableio_loads(self, span, result, text):
        self.counts["tableio.loads.bytes"] += len(text.encode())

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of everything traced so far."""
        c, s, own = self.calls, self.total, self.own
        m: dict[str, float] = {}
        for key in ("degrees.ds", "terms.parse", "algebra.check_axioms", "algebra.canonical_table",
                    "enumeration.spectrum", "enumeration.save_catalog", "tableio.loads", "tableio.dumps"):
            m[f"{key}.calls"] = c[key]
            m[f"{key}.s"] = s[key]
        for key in ("degrees.decompose_commutative", "enumeration.enumerate_algebras",
                    "enumeration.profile_algebra", "enumeration.audit_bounds",
                    "enumeration.load_catalog", "cli.main"):
            m[f"{key}.calls"] = c[key]
            m[f"{key}.self_s"] = own[key]
        m["constructions.calls"] = sum(v for k, v in c.items() if k.startswith("constructions."))
        m["constructions.self_s"] = sum(v for k, v in own.items() if k.startswith("constructions."))
        for key in ("degrees.ds.assignments", "degrees.ds.parallel_calls", "algebra.check_axioms.triples",
                    "algebra.canonical_table.relabelings", "enumeration.tables_completed",
                    "enumeration.classes", "enumeration.save_catalog.bytes", "tableio.loads.bytes"):
            m[key] = self.counts[key]
        m["degrees.decompose_commutative.candidates"] = self.counts["degrees.decompose_commutative.canonical_forms"] // 2
        m["degrees.ds.parallel_wait_s"] = s["degrees.ds.parallel_wait"]
        m["degrees.ds.assignments_per_s"] = m["degrees.ds.assignments"] / s["degrees.ds"] if s["degrees.ds"] else 0.0
        tables = m["enumeration.tables_completed"]
        m["enumeration.classes_per_table"] = m["enumeration.classes"] / tables if tables else 0.0
        return m


def is_count(name: str) -> bool:
    """Counts must repeat exactly from round to round; times and ratios of
    times need not."""
    return not name.endswith(("_s", ".s", "per_table"))
