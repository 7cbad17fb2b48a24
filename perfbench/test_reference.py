"""Tests of the reference checker: it reproduces known values and it
rejects wrong reports.

    python3 -m pytest -q perfbench/test_reference.py
"""

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402


def report(results) -> str:
    return json.dumps({"command": "x", "inputs": {}, "results": results})


def test_axiom_witnesses_are_lexicographically_first():
    t = R.chain(4)
    assert R.axiom_violations(t) == []
    # 3*1 = 3 instead of 2. BCK1 first fails at (3, 0, 2):
    # ((3*0)*(3*2))*(2*0) = (3*1)*2 = 3*2 = 1; no x < 3 fails, since rows 1
    # and 2 only reach the bad cell as (v)*3 = 0. BCK2 at (3, 2):
    # (3*(3*2))*2 = (3*1)*2 = 1, while (3*(3*1))*1 = (3*3)*1 = 0.
    t[3, 1] = 3
    assert R.axiom_violations(t) == [("BCK1", (3, 0, 2)), ("BCK2", (3, 2))]
    t = R.chain(3)
    t[2, 1] = 0  # 2 <= 1 and 1 <= 2
    assert ("BCK5", (1, 2)) in R.axiom_violations(t)


def test_constructions_are_bck_algebras_with_their_closed_forms():
    for name in ("C", "D", "Q", "B", "M", "P", "Pprime"):
        for n in (3, 5, 9):
            assert R.axiom_violations(R.family(name, n)) == [], (name, n)
    for (name, kind), form in W.CLOSED_FORMS.items():
        for n in (4, 7):
            d = R.kind_degree(R.family(name, n), kind)
            assert Fraction(d["count"], d["total"]) == form(n), (name, kind, n)
    assert R.axiom_violations(R.product(R.chain(3), R.union(R.TWO, R.TWO))) == []
    assert R.axiom_violations(R.iseki(R.q_algebra(5))) == []


def test_equations_print_and_parse_back():
    for text in ("x . y . y = x . (y . y)", "~(x | y) & z = ~~x", "(x & y) . z = x & y . z"):
        assert "{} = {}".format(*map(R.show, R.parse(text))) == text


def test_gaps_over_chains():
    assert R.gap("EM", 30)["candidate_gap"] == "1/3"
    assert R.gap("E1", 30)["candidate_gap"] == "1/9"
    assert R.gap("I", 30)["candidate_gap"] == "1/9"
    assert R.gap("T", 30)["candidate_gap"] is None


def test_class_counts_and_burnside():
    assert [len(R.classes(n)) for n in (1, 2, 3, 4)] == [1, 1, 3, 14]
    assert len(R.labeled_tables(4)) == 67


def test_wrong_class_count_is_rejected(monkeypatch):
    expected = W.Expectations().expected({"type": "enumerate", "order": 4, "out": None})
    results = json.loads(json.dumps(expected["results"]))
    assert W.check(expected, 0, report(results), "") is None
    results["algebras"].pop()
    results["count"] -= 1
    assert W.check(expected, 0, report(results), "").startswith("results differ: results.algebras")
    monkeypatch.setitem(R.CLASS_COUNTS, 4, 13)
    with pytest.raises(AssertionError, match="14 classes, expected 13"):
        R.classes(4)


def test_wrong_degree_is_rejected():
    spec = {"type": "degree", "table": {"family": "M", "n": 6}, "kind": "cd"}
    expected = W.Expectations().expected(spec)
    results = json.loads(json.dumps(expected["results"]))
    assert results["degree"] == {"count": 16, "total": 36, "reduced": "4/9"}  # (3n-2)/n^2
    assert W.check(expected, 0, report(results), "") is None
    results["degree"] = {"count": 17, "total": 36, "reduced": "17/36"}
    assert "degree" in W.check(expected, 0, report(results), "")


def test_wrong_witness_is_rejected():
    spec = {"type": "verify", "table": {"family": "C", "n": 4, "cell": [3, 1, 3]}}
    expected = W.Expectations().expected(spec)
    results = json.loads(json.dumps(expected["results"]))
    assert results["violations"][0] == {"axiom": "BCK1", "witness": [3, 0, 2]}
    assert W.check(expected, 1, report(results), "") is None
    results["violations"][0]["witness"] = [3, 1, 2]
    assert "witness" in W.check(expected, 1, report(results), "")


def test_tampered_catalog_audit_differs_from_the_true_audit():
    entries = [R.entry(t) for t in R.classes(3)]
    true = R.audit(3, entries)
    assert [c["name"] for c in true["checks"] if not c["passed"]] == ["chain_decomposition_commutative"]
    tampered = R.audit(3, W.tampered(entries))
    assert tampered["checks"][0]["counterexamples"][0]["detail"] == "cd = 1/9 outside [7/9, 7/9]"
    assert entries == [R.entry(t) for t in R.classes(3)]  # the true entries are left alone


def test_known_fault_is_told_apart_from_other_wrong_audits():
    job = {"expect": {"type": "audit", "order": 3},
           "fault": {"name": W.LOAD_CATALOG_FAULT, "expect": {"type": "audit", "order": 3, "tampered": True}}}
    (expected,) = W.expect([job])
    known = expected["fault"]
    assert known["name"] == W.LOAD_CATALOG_FAULT
    assert W.check(expected, 1, report(known["results"]), "") is not None
    assert W.check(known, 1, report(known["results"]), "") is None
    assert W.check(known, 1, report(expected["results"]), "") is not None  # the true audit
    assert W.check(known, 1, "", "Traceback ...") is not None  # a crash
