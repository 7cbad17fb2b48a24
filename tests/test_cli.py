import argparse
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings

import pytest

from bck import (
    EnumerationLimitError, chain, d_algebra, enumerate_algebras, pi, save_catalog, tc, tableio,
)
from bck import cli, enumeration
from bck.cli import main


@pytest.fixture
def pi_file(tmp_path):
    path = tmp_path / "pi.tbl"
    tableio.dump_algebra(path, pi())
    return str(path)


@pytest.fixture
def tc_file(tmp_path):
    path = tmp_path / "tc.tbl"
    tableio.dump_algebra(path, tc())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_verify_valid(capsys, pi_file):
    code, out, _ = run(capsys, "verify", pi_file)
    assert code == 0
    assert "valid BCK-algebra" in out


def test_verify_invalid_table(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n0 1\n1 0\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "BCK4" in out
    code, rep = run_json(capsys, "verify", str(bad))
    assert code == 1
    assert {"axiom": "BCK4", "witness": [1]} in rep["results"]["violations"]


def test_verify_unparseable_file(capsys, tmp_path):
    empty = tmp_path / "empty.tbl"
    empty.write_text("")
    code, _, err = run(capsys, "verify", str(empty))
    assert code == 2 and "error" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/nowhere.tbl")
    assert code == 2


def test_table_reader_ignores_comments(capsys, tmp_path):
    f = tmp_path / "c.tbl"
    f.write_text("# a comment\n3\n0 0 0\n# another\n1 0 0\n2 1 0\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0


def test_props(capsys, pi_file, tc_file):
    code, rep = run_json(capsys, "props", pi_file)
    assert code == 0
    r = rep["results"]
    assert r["commutative"] is False and r["positive_implicative"] is True
    assert r["bound"] == 2 and r["atoms"] == [1]
    code, out, _ = run(capsys, "props", tc_file)
    assert "commutative: yes" in out and "positive_implicative: no" in out


def test_degree_kind(capsys, pi_file):
    code, rep = run_json(capsys, "degree", pi_file, "--kind", "cd")
    assert code == 0
    assert rep["results"]["degree"] == {"count": 7, "total": 9, "reduced": "7/9"}
    assert rep["results"]["note"] is None


def test_degree_eq_string(capsys, tc_file):
    code, rep = run_json(capsys, "degree", tc_file, "--eq", "x . y = (x . y) . y")
    assert code == 0
    assert rep["results"]["degree"]["reduced"] == "8/9"


def test_degree_emd_hypothesis_note(capsys, pi_file):
    code, rep = run_json(capsys, "degree", pi_file, "--kind", "emd")
    assert code == 0
    assert rep["results"]["note"] is not None


def test_degree_kind_and_eq_mutually_exclusive(capsys, pi_file):
    with pytest.raises(SystemExit) as exc:
        main(["degree", pi_file, "--kind", "cd", "--eq", "x = x"])
    assert exc.value.code == 2


def test_degree_on_d3_dnd(capsys, tmp_path):
    f = tmp_path / "d3.tbl"
    tableio.dump_algebra(f, d_algebra(3))
    code, rep = run_json(capsys, "degree", str(f), "--kind", "dnd")
    assert rep["results"]["degree"]["reduced"] == "3/4"


def test_degree_bad_equation_is_usage_error(capsys, pi_file):
    code, _, err = run(capsys, "degree", pi_file, "--eq", "x + y = x")
    assert code == 2


DEEP_TERMS = ["~" * 3000 + "x", "(" * 3000 + "x" + ")" * 3000, " . ".join(["x"] * 3000)]


@pytest.mark.parametrize("term", DEEP_TERMS, ids=["negations", "parentheses", "chain"])
def test_equations_nested_too_deep_exit_2(capsys, pi_file, term):
    # a term nested past terms.MAX_DEPTH is a syntax error, not a RecursionError
    for argv in (["degree", pi_file], ["gap", "--max-n", "5"]):
        code, out, err = run(capsys, *argv, "--eq", term + " = x")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: term nested deeper than 100 levels (at position ")


def test_equation_nested_too_deep_exits_2_from_a_fresh_process(pi_file):
    for term in DEEP_TERMS:
        argv = ["degree", pi_file, "--eq", term + " = x"]
        proc = _fresh_python(f"import sys\nfrom bck.cli import main\nsys.exit(main({argv!r}))")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: term nested deeper")
        assert len(proc.stderr.splitlines()) == 1


def _variables(k):
    return " . ".join(f"x{i}" for i in range(k))


def test_degree_eq_above_assignment_cap_exits_2(capsys, monkeypatch, tmp_path):
    # n^k assignments are refused above tableio.MAX_ASSIGNMENTS = 2^32 before
    # any is evaluated; 2^32 itself is counted
    from bck import Degree

    def stub(algebra, eq):
        return Degree(1, algebra.order**eq.arity)

    monkeypatch.setattr(cli, "ds", stub)
    c2, c40 = tmp_path / "c2.tbl", tmp_path / "c40.tbl"
    tableio.dump_algebra(c2, chain(2))
    tableio.dump_algebra(c40, chain(40))
    code, rep = run_json(capsys, "degree", str(c2), "--eq", _variables(32) + " = 0")
    assert code == 0 and rep["results"]["degree"]["total"] == 2**32
    monkeypatch.setattr(cli, "ds", None)
    for path, k, count in ((c2, 33, 2**33), (c40, 10, 40**10)):
        code, out, err = run(capsys, "degree", str(path), "--eq", _variables(k) + " = 0")
        assert (code, out) == (2, "")
        assert err == f"error: --eq needs {count} assignments, above 4294967296\n"


def test_gap_eq_above_assignment_cap_exits_2(capsys, monkeypatch):
    # the count is the sum of n^k over the chains 2..max_n: 16^8 is 2^32,
    # and the sum up to 16 is above it
    monkeypatch.setattr(cli, "gap_evidence", None)
    for k, max_n in ((10, 40), (8, 16)):
        code, out, err = run(capsys, "gap", "--eq", _variables(k) + " = 0", "--max-n", str(max_n))
        count = sum(n**k for n in range(2, max_n + 1))
        assert (code, out) == (2, "")
        assert err == f"error: --eq needs {count} assignments, above 4294967296\n"


def test_family_writes_table(capsys, tmp_path):
    out = tmp_path / "m3.tbl"
    code, _, _ = run(capsys, "family", "--name", "M", "--n", "3", "--out", str(out))
    assert code == 0
    assert out.read_text() == tableio.dumps(3, pi().table)


def test_family_stdout_chain(capsys):
    code, out, _ = run(capsys, "family", "--name", "C", "--n", "5")
    assert code == 0
    assert out == tableio.dumps(5, chain(5).table)


def test_family_d4_table(capsys, tmp_path):
    out = tmp_path / "d4.tbl"
    run(capsys, "family", "--name", "D", "--n", "4", "--out", str(out))
    assert out.read_text() == tableio.dumps(5, d_algebra(4).table)


def test_family_bad_range(capsys):
    code, _, err = run(capsys, "family", "--name", "B", "--n", "1")
    assert code == 2


def test_construct_union_round_trip(capsys, tmp_path):
    two_file = tmp_path / "two.tbl"
    two_file.write_text("2\n0 0\n1 0\n")
    out = tmp_path / "u.tbl"
    code, _, _ = run(capsys, "construct", "union", str(two_file), str(two_file), "--out", str(out))
    assert code == 0
    assert out.read_text() == "3\n0 0 0\n1 0 1\n2 2 0\n"


def test_construct_iseki_of_two_is_pi(capsys, tmp_path, pi_file):
    two_file = tmp_path / "two.tbl"
    two_file.write_text("2\n0 0\n1 0\n")
    code, out, _ = run(capsys, "construct", "iseki", str(two_file))
    assert code == 0
    with open(pi_file) as fh:
        assert out == fh.read()


def test_construct_product_order(capsys, tmp_path):
    c2 = tmp_path / "c2.tbl"
    c3 = tmp_path / "c3.tbl"
    tableio.dump_algebra(c2, chain(2))
    tableio.dump_algebra(c3, chain(3))
    code, out, _ = run(capsys, "construct", "product", str(c2), str(c3))
    assert code == 0
    assert out.splitlines()[0] == "6"


def test_gap_em(capsys):
    code, rep = run_json(capsys, "gap", "--kind", "EM", "--max-n", "12")
    assert code == 0
    r = rep["results"]
    assert r["candidate_gap"] == "1/3"
    assert r["sub_one_max"] == {"n": 3, "degree": {"count": 2, "total": 3, "reduced": "2/3"}}
    assert r["sequence"][0] == {"n": 2, "degree": {"count": 2, "total": 2, "reduced": "1"}}


def test_gap_commutativity_all_ones(capsys):
    code, rep = run_json(capsys, "gap", "--kind", "T", "--max-n", "10")
    assert rep["results"]["candidate_gap"] is None
    code, out, _ = run(capsys, "gap", "--kind", "T", "--max-n", "10")
    assert "no sub-1 value" in out


def test_gap_eq_string(capsys):
    code, rep = run_json(capsys, "gap", "--eq", "x = 1", "--max-n", "10")
    assert rep["results"]["candidate_gap"] == "1/2"


def test_enumerate_order_3(capsys):
    code, rep = run_json(capsys, "enumerate", "--order", "3")
    assert code == 0
    assert rep["results"]["count"] == 3


def test_enumerate_persists_catalog(capsys, tmp_path):
    out_dir = tmp_path / "cat3"
    code, _, _ = run(capsys, "enumerate", "--order", "3", "--out", str(out_dir))
    assert code == 0
    index = json.loads((out_dir / "index.json").read_text())
    assert index["order"] == 3 and len(index["algebras"]) == 3


# SHA-256 of `bck enumerate --order 4` in each format, taken while the text
# listing still built every degree record
ENUMERATE_4_DIGESTS = {
    "text": "c2eb8691993fb519937f0577c0d596c670ea7d66ae69e88f031337af6cf6df07",
    "json": "2edc1eef724276ed1bb0691b73e41ab977c4933b724a68cb34dbf917f9d8abf7",
}


def test_enumerate_counts_degrees_only_for_json(capsys, monkeypatch):
    from bck import enumeration

    kinds = []
    real = enumeration.stack_degrees

    def spy(kind, *args):
        kinds.append(kind)
        return real(kind, *args)

    monkeypatch.setattr(enumeration, "stack_degrees", spy)
    for fmt in ("text", "json"):
        kinds.clear()
        code, out, _ = run(capsys, "enumerate", "--order", "4", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_4_DIGESTS[fmt]
        assert sorted(kinds) == ([] if fmt == "text" else ["cd", "dnd", "emd", "id", "pid"])


def test_spectrum_reuses_catalog(capsys, tmp_path):
    out_dir = tmp_path / "cat3"
    run(capsys, "enumerate", "--order", "3", "--out", str(out_dir))
    code, rep = run_json(
        capsys, "spectrum", "--order", "3", "--kind", "dnd", "--catalog", str(out_dir)
    )
    assert code == 0
    r = rep["results"]
    assert r["possible"] == ["2/3", "1"] and r["missing"] == []


def test_spectrum_without_catalog(capsys):
    code, rep = run_json(capsys, "spectrum", "--order", "3", "--kind", "cd")
    assert rep["results"]["achieved"] == ["7/9", "1"]


def test_audit_order_3_reports_decomposition_failure(capsys):
    # exit 1: the catalog contains a commutative algebra with no chain
    # factorization, and the audit must say so
    code, rep = run_json(capsys, "audit", "--order", "3")
    assert code == 1
    assert rep["results"]["passed"] is False
    failing = [c["name"] for c in rep["results"]["checks"] if not c["passed"]]
    assert failing == ["chain_decomposition_commutative"]


def test_decompose_tc(capsys, tc_file):
    code, out, _ = run(capsys, "decompose", tc_file)
    assert code == 0
    assert "chain lengths: 3" in out


def test_decompose_product_file(capsys, tmp_path):
    from bck import direct_product

    f = tmp_path / "c6.tbl"
    tableio.dump_algebra(f, direct_product(chain(2), chain(3)))
    code, rep = run_json(capsys, "decompose", str(f))
    assert rep["results"]["chain_lengths"] == [2, 3]


def test_decompose_relabeled_order_16_product(capsys, tmp_path):
    from bck import direct_product

    square = direct_product(chain(2), chain(2))
    sigma = [0, 9, 4, 15, 1, 12, 7, 3, 14, 2, 11, 6, 10, 5, 13, 8]
    product = direct_product(square, square).relabel(sigma)
    f = tmp_path / "c2x4.tbl"
    tableio.dump_algebra(f, product)
    code, rep = run_json(capsys, "decompose", str(f))
    assert code == 0
    assert rep["results"]["chain_lengths"] == [2, 2, 2, 2]


def test_decompose_noncommutative_exits_1(capsys, pi_file):
    code, _, err = run(capsys, "decompose", pi_file)
    assert code == 1
    assert "commutative" in err


def test_decompose_undecomposable_union_exits_1(capsys, tmp_path):
    f = tmp_path / "u22.tbl"
    f.write_text("3\n0 0 0\n1 0 1\n2 2 0\n")
    code, _, err = run(capsys, "decompose", str(f))
    assert code == 1
    assert "unbounded" in err


def test_degree_unbounded_equation_exits_1(capsys, tmp_path):
    f = tmp_path / "u22.tbl"
    f.write_text("3\n0 0 0\n1 0 1\n2 2 0\n")
    code, _, err = run(capsys, "degree", str(f), "--kind", "dnd")
    assert code == 1
    assert "greatest element" in err


def test_text_and_json_agree_on_numbers(capsys, pi_file):
    _, rep = run_json(capsys, "degree", pi_file, "--kind", "dnd")
    _, out, _ = run(capsys, "degree", pi_file, "--kind", "dnd")
    d = rep["results"]["degree"]
    assert f"degree: {d['reduced']} (count={d['count']} total={d['total']})" in out


def test_cli_deterministic_output(capsys, pi_file):
    first = run(capsys, "props", pi_file)
    second = run(capsys, "props", pi_file)
    assert first == second
    j1 = run_json(capsys, "enumerate", "--order", "3")
    j2 = run_json(capsys, "enumerate", "--order", "3")
    assert j1 == j2


def test_cli_jobs_flag_output_identical(capsys, pi_file):
    base = run(capsys, "degree", pi_file, "--kind", "cd", "--jobs", "1")
    for jobs in ("2", "8"):
        assert run(capsys, "degree", pi_file, "--kind", "cd", "--jobs", jobs) == base


@pytest.mark.parametrize("value", ["0", "-1", str(10**6)])
def test_jobs_out_of_range_is_usage_error(capsys, monkeypatch, pi_file, value):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv in (
        ["degree", pi_file, "--kind", "cd"],
        ["gap", "--kind", "EM", "--max-n", "5"],
        ["enumerate", "--order", "3"],
        ["spectrum", "--order", "3", "--kind", "cd"],
        ["audit", "--order", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", value])
        assert exc.value.code == 2
        assert f"must be between 1 and 64, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1025", str(10**6)])
def test_order_above_ceiling_is_usage_error(capsys, monkeypatch, tmp_path, value):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "family", no_table)
    monkeypatch.setattr(cli, "gap_evidence", no_table)
    monkeypatch.setattr(cli, "enumerate_algebras", no_table)
    monkeypatch.setattr(cli, "load_catalog", no_table)
    for argv in (
        ["family", "--name", "C", "--n", value],
        ["gap", "--kind", "EM", "--max-n", value],
        ["enumerate", "--order", value],
        ["spectrum", "--order", value, "--kind", "cd"],
        ["audit", "--order", value],
        ["audit", "--order", value, "--catalog", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"must be at most 1024, got {value}" in capsys.readouterr().err
    # the order line is refused before any row is read
    path = tmp_path / "huge.tbl"
    path.write_text(f"{value}\nnot a row\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert f"order must be at most 1024, got {value}" in err
    assert cli.size("1024") == 1024


def test_enumeration_out_of_max_nodes_exits_1(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "5", "--max-nodes", "50")
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: enumeration aborted after \d+ placements with \d+ tables completed\n", err)


def test_max_nodes_stops_a_huge_order_at_once():
    # the posets the search runs on are built level by level and charged to
    # the same budget: order 40 stops among the posets on 4 elements. `bck`
    # refuses the order; the library warns and runs it
    with pytest.warns(RuntimeWarning, match="exceeds the practical ceiling"):
        with pytest.raises(EnumerationLimitError) as exc:
            enumerate_algebras(40, max_nodes=10)
    assert (exc.value.nodes, exc.value.found) == (10, 0)
    assert str(exc.value) == "enumeration aborted after 10 placements with 0 tables completed"


class _PosetsBuilt(Exception):
    pass


def _no_posets(*args):
    raise _PosetsBuilt


@pytest.mark.parametrize("argv", [
    ["enumerate", "--order", "9"],
    ["audit", "--order", "12"],
    ["spectrum", "--order", "9", "--kind", "cd"],
    # a budget is no licence: it does not bound the posets' deduplication
    ["enumerate", "--order", "9", "--max-nodes", "5"],
    ["enumerate", "--order", "40", "--max-nodes", "10"],
    ["enumerate", "--order", "12", "--max-nodes", "100000"],
])
def test_runaway_order_is_refused_before_any_poset(capsys, monkeypatch, argv):
    monkeypatch.setattr(enumeration, "_posets", _no_posets)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: order {argv[2]} is above 8, the highest bck enumerates\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--order", "8"],
    ["enumerate", "--order", "8", "--max-nodes", "5"],
    ["audit", "--order", "8"],
    ["spectrum", "--order", "8", "--kind", "cd"],
])
def test_orders_within_the_cap_reach_the_posets(monkeypatch, argv):
    monkeypatch.setattr(enumeration, "_posets", _no_posets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # order 8 is within the warning threshold too
        with pytest.raises(_PosetsBuilt):
            main(argv)


def test_a_saved_catalog_above_the_cap_is_read(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(enumeration, "_posets", _no_posets)
    c9 = str(tmp_path / "c9")
    save_catalog(enumeration.Catalog(9, enumeration._profile(chain(9).array[None])), c9)
    for argv in (["audit", "--order", "9"], ["spectrum", "--order", "9", "--kind", "cd"]):
        code, out, err = run(capsys, *argv, "--catalog", c9)
        assert code in (0, 1) and out.startswith("order 9") and err == ""


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_nodes_below_one_is_usage_error(capsys, monkeypatch, value):
    def no_search(*args, **kwargs):
        raise AssertionError("a search was started")

    monkeypatch.setattr(cli, "enumerate_algebras", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "5", "--max-nodes", value])
    assert exc.value.code == 2
    assert f"must be at least 1, got {value}" in capsys.readouterr().err


def test_construct_iseki_needs_exactly_one_file(capsys, pi_file):
    code, out, err = run(capsys, "construct", "iseki", pi_file, pi_file)
    assert code == 2 and out == ""
    assert "iseki takes exactly one table file, got 2" in err


@pytest.mark.parametrize("operation", ["union", "product"])
def test_construct_needs_at_least_two_files(capsys, pi_file, operation):
    code, out, err = run(capsys, "construct", operation, pi_file)
    assert code == 2 and out == ""
    assert f"{operation} takes at least two table files, got 1" in err


@pytest.mark.parametrize("orders", [(33, 32), (11, 10, 10)])
def test_construct_product_above_max_order_exits_2(capsys, monkeypatch, tmp_path, orders):
    # the order is bounded from the operands' orders before any table is built
    def no_product(*args):
        raise AssertionError("the product was built")

    monkeypatch.setattr(cli, "direct_product", no_product)
    files = []
    for i, n in enumerate(orders):
        files.append(str(tmp_path / f"c{i}.tbl"))
        tableio.dump_algebra(files[-1], chain(n))
    out = tmp_path / "out.tbl"
    code, stdout, err = run(capsys, "construct", "product", *files, "--out", str(out))
    size = math.prod(orders)
    assert (code, stdout, err) == (2, "", f"error: product would have order {size}, above 1024\n")
    assert not out.exists()


INPUT_ERRORS = [
    (["audit", "--order", "4", "--catalog", "{cat3}"], "catalog at {cat3} has order 3, expected 4"),
    (["spectrum", "--order", "4", "--kind", "cd", "--catalog", "{cat3}"],
     "catalog at {cat3} has order 3, expected 4"),
    (["gap", "--kind", "EM", "--max-n", "2"], "max_n must be >= 3, got 2"),
    (["enumerate", "--order", "0"], "order must be >= 1"),
    (["family", "--name", "Q", "--n", "2"], "q_algebra needs n >= 3, got 2"),
]


@pytest.mark.parametrize("argv,message", INPUT_ERRORS, ids=[" ".join(a) for a, _ in INPUT_ERRORS])
def test_input_errors_exit_2(capsys, tmp_path, argv, message):
    # arguments the parser accepts but the command refuses: exit 2 with one
    # error line; {cat3} is a saved catalog of order 3
    cat3 = str(tmp_path / "cat3")
    save_catalog(enumerate_algebras(3), cat3)
    code, out, err = run(capsys, *(a.format(cat3=cat3) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(cat3=cat3)}\n")


def test_audit_rejects_catalog_table_of_another_order(capsys, tmp_path):
    out_dir = tmp_path / "cat3"
    run(capsys, "enumerate", "--order", "3", "--out", str(out_dir))
    index = json.loads((out_dir / "index.json").read_text())
    (out_dir / index["algebras"][0]["file"]).write_text(tableio.dumps(4, chain(4).table))
    code, out, err = run(capsys, "audit", "--order", "3", "--catalog", str(out_dir))
    assert code == 2 and out == ""
    assert "has order 4, but the catalog index says 3" in err


def test_catalog_without_bounded_tables_reports_no_bounded_degrees(capsys, tmp_path):
    # a catalog that lists only the unbounded table of order 3: the bounded
    # kinds count over a stack of no tables
    out_dir = tmp_path / "cat3"
    run(capsys, "enumerate", "--order", "3", "--out", str(out_dir))
    index = json.loads((out_dir / "index.json").read_text())
    index["algebras"] = [e for e in index["algebras"] if e["bound"] is None]
    assert len(index["algebras"]) == 1
    (out_dir / "index.json").write_text(json.dumps(index))
    for kind in ("emd", "dnd"):
        code, out, err = run(capsys, "spectrum", "--order", "3", "--kind", kind, "--catalog", str(out_dir))
        assert (code, err) == (0, "")
        assert out.startswith(f"order 3, kind {kind}\n") and "\nachieved: \n" in out
    # audit reads every kind; it fails only the decomposition conjecture,
    # which holds for bounded algebras
    code, out, err = run(capsys, "audit", "--order", "3", "--catalog", str(out_dir))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "order 3: FAIL", "  FAIL chain_decomposition_commutative"
    ]


# --- usage text, pinned -------------------------------------------------------
#
# Exact stdout, stderr and exit code of `--help` and of usage errors, with
# COLUMNS=80 so that argparse wraps the same way on every terminal. The text
# is argparse's as Python 3.11 prints it (3.10 says "optional arguments:", and
# later versions word some messages differently); on other versions
# test_usage_matches_full_parser still holds main to the full parser's output.

pinned_argparse = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse text pinned as Python 3.11 prints it"
)

COMMANDS = (
    "verify", "props", "degree", "family", "construct",
    "gap", "enumerate", "spectrum", "audit", "decompose",
)

TOP_USAGE = (
    "usage: bck [-h]\n"
    "           {verify,props,degree,family,construct,gap,enumerate,spectrum,audit,decompose}\n"
    "           ...\n"
)

TOP_HELP = TOP_USAGE + (
    "\n"
    "Finite BCK-algebra workbench\n"
    "\n"
    "positional arguments:\n"
    "  {verify,props,degree,family,construct,gap,enumerate,spectrum,audit,decompose}\n"
    "    verify              check a Cayley table file against the axioms\n"
    "    props               print structural property flags and atoms\n"
    "    degree              exact degree of satisfiability of an equation\n"
    "    family              emit a named family member as a table file\n"
    "    construct           combine table files\n"
    "    gap                 chain-sequence satisfiability-gap evidence\n"
    "    enumerate           all algebras of an order up to isomorphism\n"
    "    spectrum            achieved degree values across a catalog\n"
    "    audit               audit degree bounds over a catalog\n"
    "    decompose           factor a commutative algebra into chains\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)

FILE_ONLY_HELP = (
    "usage: bck {} [-h] [--format {{text,json}}] file\n"
    "\n"
    "positional arguments:\n"
    "  file\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {{text,json}}\n"
)

COMMAND_HELP = {
    "verify": FILE_ONLY_HELP.format("verify"),
    "props": FILE_ONLY_HELP.format("props"),
    "degree": (
        "usage: bck degree [-h] [--format {text,json}]\n"
        "                  (--kind {emd,dnd,cd,pid,id} | --eq EQ) [--jobs JOBS]\n"
        "                  file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --kind {emd,dnd,cd,pid,id}\n"
        "  --eq EQ\n"
        "  --jobs JOBS           accepted; degrees count serially\n"
    ),
    "family": (
        "usage: bck family [-h] [--format {text,json}] --name {C,D,Q,B,M,P,Pprime} --n\n"
        "                  N [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --name {C,D,Q,B,M,P,Pprime}\n"
        "  --n N\n"
        "  --out OUT\n"
    ),
    "construct": (
        "usage: bck construct [-h] [--format {text,json}] [--out OUT]\n"
        "                     {union,product,iseki} files [files ...]\n"
        "\n"
        "positional arguments:\n"
        "  {union,product,iseki}\n"
        "  files\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --out OUT\n"
    ),
    "gap": (
        "usage: bck gap [-h] [--format {text,json}]\n"
        "               (--eq EQ | --kind {DN,EM,T,E1,I,X1,NX1}) --max-n MAX_N\n"
        "               [--jobs JOBS]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --eq EQ\n"
        "  --kind {DN,EM,T,E1,I,X1,NX1}\n"
        "  --max-n MAX_N\n"
        "  --jobs JOBS           accepted; degrees count serially\n"
    ),
    "enumerate": (
        "usage: bck enumerate [-h] [--format {text,json}] --order ORDER [--out OUT]\n"
        "                     [--jobs JOBS] [--max-nodes MAX_NODES]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --order ORDER\n"
        "  --out OUT             directory to persist the catalog in\n"
        "  --jobs JOBS           enumeration worker processes\n"
        "  --max-nodes MAX_NODES\n"
    ),
    "spectrum": (
        "usage: bck spectrum [-h] [--format {text,json}] --order ORDER --kind\n"
        "                    {emd,dnd,cd,pid,id} [--catalog CATALOG] [--jobs JOBS]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --order ORDER\n"
        "  --kind {emd,dnd,cd,pid,id}\n"
        "  --catalog CATALOG     persisted catalog directory to reuse\n"
        "  --jobs JOBS           enumeration worker processes\n"
    ),
    "audit": (
        "usage: bck audit [-h] [--format {text,json}] --order ORDER [--catalog CATALOG]\n"
        "                 [--jobs JOBS]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --order ORDER\n"
        "  --catalog CATALOG     persisted catalog directory to reuse\n"
        "  --jobs JOBS           enumeration worker processes\n"
    ),
    "decompose": FILE_ONLY_HELP.format("decompose"),
}

COMMAND_CHOICES = "'verify', 'props', 'degree', 'family', 'construct', 'gap', 'enumerate', 'spectrum', 'audit', 'decompose'"

# (argv, the parser that reports the error: a command or None for `bck`, message)
USAGE_ERRORS = [
    ([], None, "the following arguments are required: command"),
    (["nosuch"], None, f"argument command: invalid choice: 'nosuch' (choose from {COMMAND_CHOICES})"),
    (["--format", "json", "verify", "t.tbl"], None,
     f"argument command: invalid choice: 'json' (choose from {COMMAND_CHOICES})"),
    (["verify", "t.tbl", "--bogus"], None, "unrecognized arguments: --bogus"),
    (["verify"], "verify", "the following arguments are required: file"),
    (["enumerate"], "enumerate", "the following arguments are required: --order"),
    (["gap", "--kind", "EM"], "gap", "the following arguments are required: --max-n"),
    (["spectrum", "--order", "3"], "spectrum", "the following arguments are required: --kind"),
    (["degree", "t.tbl"], "degree", "one of the arguments --kind --eq is required"),
    (["degree", "t.tbl", "--kind", "nope"], "degree",
     "argument --kind: invalid choice: 'nope' (choose from 'emd', 'dnd', 'cd', 'pid', 'id')"),
    (["family", "--name", "Z", "--n", "3"], "family",
     "argument --name: invalid choice: 'Z' (choose from 'C', 'D', 'Q', 'B', 'M', 'P', 'Pprime')"),
    (["verify", "t.tbl", "--format", "xml"], "verify",
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["construct", "merge", "t.tbl"], "construct",
     "argument operation: invalid choice: 'merge' (choose from 'union', 'product', 'iseki')"),
    (["degree", "t.tbl", "--kind", "cd", "--eq", "x = x"], "degree",
     "argument --eq: not allowed with argument --kind"),
    (["enumerate", "--order", "3", "--jobs", "0"], "enumerate",
     "argument --jobs: must be between 1 and 64, got 0"),
    (["family", "--name", "C", "--n", "1025"], "family", "argument --n: must be at most 1024, got 1025"),
    (["enumerate", "--order", "3", "--max-nodes", "0"], "enumerate",
     "argument --max-nodes: must be at least 1, got 0"),
    (["audit", "--order", "x"], "audit", "argument --order: invalid size value: 'x'"),
]

HELP_CASES = [(["--help"], TOP_HELP)] + [([c, "--help"], COMMAND_HELP[c]) for c in COMMANDS]


def argv_id(argv):
    return " ".join(argv) or "(none)"


def usage_of(command):
    if command is None:
        return TOP_USAGE
    return COMMAND_HELP[command].split("\n\n")[0] + "\n"


def exit_of(capsys, call, argv):
    with pytest.raises(SystemExit) as exc:
        call(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.fixture
def columns80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pinned_argparse
@pytest.mark.parametrize("argv,text", HELP_CASES, ids=[argv_id(a) for a, _ in HELP_CASES])
def test_help_text_pinned(capsys, columns80, argv, text):
    assert exit_of(capsys, main, argv) == (0, text, "")


@pinned_argparse
@pytest.mark.parametrize(
    "argv,command,message", USAGE_ERRORS, ids=[argv_id(a) for a, _, _ in USAGE_ERRORS]
)
def test_usage_errors_pinned(capsys, columns80, argv, command, message):
    prog = "bck" if command is None else f"bck {command}"
    expected = usage_of(command) + f"{prog}: error: {message}\n"
    assert exit_of(capsys, main, argv) == (2, "", expected)


@pytest.mark.parametrize(
    "argv", [a for a, _ in HELP_CASES] + [a for a, _, _ in USAGE_ERRORS], ids=argv_id
)
def test_usage_matches_full_parser(capsys, columns80, argv):
    full = exit_of(capsys, cli.build_parser().parse_args, argv)
    assert exit_of(capsys, main, argv) == full


# --- only the invoked subcommand's parser is built ----------------------------

WELL_FORMED = {
    "verify": ["verify", "{pi}"],
    "props": ["props", "{pi}"],
    "degree": ["degree", "{pi}", "--kind", "cd"],
    "family": ["family", "--name", "C", "--n", "3"],
    "construct": ["construct", "union", "{pi}", "{tc}"],
    "gap": ["gap", "--kind", "EM", "--max-n", "3"],
    "enumerate": ["enumerate", "--order", "2"],
    "spectrum": ["spectrum", "--order", "2", "--kind", "cd"],
    "audit": ["audit", "--order", "2"],
    "decompose": ["decompose", "{tc}"],
}


@pytest.fixture
def parsers_built(monkeypatch):
    # the prog of every argparse parser made, subparsers included, starting
    # from no cached command parser, whatever earlier tests built
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    cli._command_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    yield built
    cli._command_parser.cache_clear()


def test_well_formed_commands_cover_every_subcommand():
    assert tuple(WELL_FORMED) == tuple(cli.COMMANDS) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subparser_built(capsys, parsers_built, pi_file, tc_file, command):
    argv = [a.format(pi=pi_file, tc=tc_file) for a in WELL_FORMED[command]]
    first = run(capsys, *argv)
    assert first[0] == 0 and first[2] == ""
    assert parsers_built == [f"bck {command}"]
    # a second call of the command reuses that parser and builds none
    assert run(capsys, *argv) == first
    assert parsers_built == [f"bck {command}"]


def test_usage_error_after_command_builds_full_parser(capsys, columns80, parsers_built, pi_file):
    code, out, err = exit_of(capsys, main, ["verify", pi_file, "--bogus"])
    assert (code, out) == (2, "")
    assert err.startswith(
        "usage: bck [-h]\n"
        "           {verify,props,degree,family,construct,gap,enumerate,spectrum,audit,decompose}\n"
    )
    assert parsers_built == ["bck verify", "bck", *(f"bck {c}" for c in COMMANDS)]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_matches_its_subparser(columns80, command):
    # the one parser main builds prints the help and usage of the full
    # parser's subparser, byte for byte
    full = cli.build_parser()._subparsers._group_actions[0].choices[command]
    alone = cli._SilentParser(prog=f"bck {command}")
    cli._add_command(alone, command)
    assert alone.format_help() == full.format_help()
    assert alone.format_usage() == full.format_usage()


# --- every report's envelope -------------------------------------------------

# The inputs of each reporting command's JSON report for its WELL_FORMED argv.
REPORT_INPUTS = {
    "verify": {"file": "{pi}"},
    "props": {"file": "{pi}"},
    "degree": {"file": "{pi}", "kind": "cd", "eq": None},
    "gap": {"eq": None, "kind": "EM", "max_n": 3},
    "enumerate": {"order": 2, "out": None},
    "spectrum": {"order": 2, "kind": "cd"},
    "audit": {"order": 2},
    "decompose": {"file": "{tc}"},
}
ENVELOPE_CASES = [(WELL_FORMED[c], inputs, 0) for c, inputs in REPORT_INPUTS.items()] + [
    (["verify", "{bad}"], {"file": "{bad}"}, 1),
    (["audit", "--order", "3"], {"order": 3}, 1),
]


@pytest.mark.parametrize(
    "argv, inputs, code", ENVELOPE_CASES, ids=[" ".join(a) for a, _, _ in ENVELOPE_CASES]
)
def test_report_envelope(capsys, tmp_path, pi_file, tc_file, argv, inputs, code):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n0 1\n1 0\n")
    files = {"pi": pi_file, "tc": tc_file, "bad": str(bad)}
    argv = [a.format(**files) for a in argv]
    inputs = {k: v.format(**files) if isinstance(v, str) else v for k, v in inputs.items()}
    assert run(capsys, *argv, "--format", "text")[0] == code
    json_code, report = run_json(capsys, *argv)
    assert json_code == code
    assert sorted(report) == ["command", "inputs", "results"]
    assert report["command"] == argv[0]
    assert report["inputs"] == inputs


# --- a reused command parser carries nothing from one call to the next ------


def test_usage_error_leaves_the_command_parser_as_new(capsys, columns80, pi_file):
    cli._command_parser.cache_clear()
    fresh = run(capsys, "verify", pi_file)
    cli._command_parser.cache_clear()
    code, out, err = exit_of(capsys, main, ["verify", pi_file, "--bogus"])
    assert (code, out) == (2, "") and err.startswith("usage: bck [-h]\n")
    assert run(capsys, "verify", pi_file) == fresh == (0, "ok: valid BCK-algebra of order 3\n", "")


def test_reused_parser_help_follows_the_terminal_width(capsys, monkeypatch):
    full = cli.build_parser()._subparsers._group_actions[0].choices
    widths = set()
    for columns in ("80", "120", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        for command in COMMANDS:
            code, out, err = exit_of(capsys, main, [command, "--help"])
            assert (code, out, err) == (0, full[command].format_help(), ""), (columns, command)
        widths.add(full["degree"].format_help())
    assert len(widths) == 2  # degree's usage line wraps at 80 columns, not at 120


def test_reused_parser_keeps_no_file_list(capsys, tmp_path, pi_file, tc_file):
    from bck import bck_union, direct_product

    union, product = tmp_path / "union.tbl", tmp_path / "product.tbl"
    assert run(capsys, "construct", "union", pi_file, tc_file, "--out", str(union))[0] == 0
    assert run(capsys, "construct", "product", tc_file, pi_file, pi_file, "--out", str(product))[0] == 0
    assert tableio.load_algebra(union) == bck_union(pi(), tc())
    assert tableio.load_algebra(product) == direct_product(direct_product(tc(), pi()), pi())
    code, out, _ = run(capsys, "construct", "iseki", pi_file)
    assert code == 0 and tableio.loads(out)[0] == 4


def test_reused_parser_reads_patched_limits(capsys, monkeypatch, pi_file):
    # the argument types read MAX_ORDER and MAX_JOBS when they run, so a
    # parser built before a limit changed still applies the new one
    assert run(capsys, "family", "--name", "C", "--n", "5")[0] == 0
    assert run(capsys, "degree", pi_file, "--kind", "cd", "--jobs", "3")[0] == 0
    monkeypatch.setattr(tableio, "MAX_ORDER", 4)
    monkeypatch.setattr(cli, "MAX_JOBS", 2)
    code, out, err = exit_of(capsys, main, ["family", "--name", "C", "--n", "5"])
    assert (code, out) == (2, "") and "argument --n: must be at most 4, got 5" in err
    code, out, err = exit_of(capsys, main, ["degree", pi_file, "--kind", "cd", "--jobs", "3"])
    assert (code, out) == (2, "") and "argument --jobs: must be between 1 and 2, got 3" in err


# each studied kind and the builtin equation it counts
STUDIED_KINDS = {"emd": "EM", "dnd": "DN", "cd": "T", "pid": "E1", "id": "I"}


def test_studied_kinds_table_drives_every_list_of_kinds(capsys, catalog3, tc_file):
    from bck import BUILTIN_EQUATIONS, DEGREE_FUNCTIONS, spectrum

    full = cli.build_parser()._subparsers._group_actions[0].choices

    def kind_choices(command):
        return next(tuple(a.choices) for a in full[command]._actions if a.dest == "kind")

    kinds = tuple(STUDIED_KINDS)
    assert tuple(DEGREE_FUNCTIONS) == kinds
    assert tuple(catalog3.entries[0].degrees) == kinds
    assert kind_choices("degree") == kind_choices("spectrum") == kinds
    for kind, name in STUDIED_KINDS.items():
        code, rep = run_json(capsys, "degree", tc_file, "--kind", kind)
        assert code == 0 and rep["results"]["equation"] == BUILTIN_EQUATIONS[name], kind
    with pytest.raises(ValueError) as exc:
        spectrum(catalog3, "xx")
    assert str(exc.value) == "kind must be one of ('emd', 'dnd', 'cd', 'pid', 'id'), got 'xx'"


def _fresh_python(probe):
    # run `probe` in a new interpreter that imports this checkout's bck
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)


def test_import_leaves_out_pool_and_hash_modules():
    # numpy alone imports none of them, so `import bck.cli` must not either:
    # a pool and hashing are loaded when first used, and the package defines
    # no dataclasses, whose decoration generates code at every start-up
    probe = (
        "import sys\n"
        "import numpy\n"
        "names = ('multiprocessing', 'hashlib', 'dataclasses')\n"
        "before = [m for m in names if m in sys.modules]\n"
        "import bck.cli\n"
        "after = [m for m in names if m in sys.modules]\n"
        "print(before, after)\n"
    )
    done = _fresh_python(probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[] []\n", "")


def test_import_builds_no_relabeling_tables():
    # the canonical-form kernel makes an order's relabelings on first use
    probe = (
        "import bck.cli\n"
        "from bck.algebra import _relabelings\n"
        "print(_relabelings.cache_info().currsize)\n"
    )
    done = _fresh_python(probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_a_budget_aborts_the_same_for_any_jobs():
    # a budgeted search runs in the calling process, so the pool never
    # decides which task's abort is reported, or whether one is
    def enumerate6(jobs):
        return _fresh_python(
            "import sys\n"
            "from bck.cli import main\n"
            f"sys.exit(main(['enumerate', '--order', '6', '--jobs', '{jobs}', '--max-nodes', '500']))\n"
        )

    serial, pooled = enumerate6(1), enumerate6(2)
    assert (serial.returncode, serial.stdout) == (1, "")
    assert serial.stderr == "error: enumeration aborted after 129 placements with 1 tables completed\n"
    assert (pooled.returncode, pooled.stdout, pooled.stderr) == (1, "", serial.stderr)


def test_order_8_enumerates_without_a_warning():
    # in a fresh process, where a warning would reach stderr; the search
    # itself is cut short once the order has passed every check
    probe = (
        "import sys\n"
        "from bck import cli, enumeration\n"
        "def stop(n, budget):\n"
        "    sys.exit(0)\n"
        "enumeration._posets = stop\n"
        "cli.main(['enumerate', '--order', '8'])\n"
    )
    done = _fresh_python(probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
