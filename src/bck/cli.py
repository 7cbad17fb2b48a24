"""Command-line interface.

Exit codes: 0 success, 1 domain-level negative (axiom violation, not
commutative, failed audit, enumeration out of --max-nodes), 2 usage,
parse, or I/O errors. Every command is deterministic given identical
inputs and flags; text and JSON output agree on all numeric content.

``_emit`` builds every report. A reporting command passes it the inputs
and results of its JSON report, which ``_emit`` puts under the command's
name, and the lines of its text report. ``family`` and ``construct``
report nothing: they write a table file whatever ``--format`` is.

Each subcommand's arguments are declared once, in ``COMMANDS``. ``main``
parses with one parser, for the invoked subcommand alone, since building
all ten costs more than most commands. That parser is built on the
command's first call and kept, so later calls in the same process only
parse: 15-24 µs, against 133-184 µs to build and parse. ``--help``
without a command, an unknown command and every usage error are handled
by a freshly built full parser, so usage lines, messages and exit codes
are those of ``build_parser()``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import tableio
from .algebra import (
    _FLAG_LAWS,
    BckAxiomError,
    MalformedTableError,
    UnboundedAlgebraError,
    _axiom_report,
    _stack_flags,
)
from .constructions import FAMILY_NAMES, bck_union, direct_product, family, iseki_extension
from .degrees import (
    DEGREE_FUNCTIONS,
    DEGREE_KINDS,
    DecompositionError,
    NotCommutativeError,
    decompose_commutative,
    ds,
    gap_evidence,
)
from .enumeration import (
    EnumerationLimitError,
    audit_bounds,
    enumerate_algebras,
    load_catalog,
    save_catalog,
    spectrum,
)
from .terms import BUILTIN_EQUATIONS, builtin, parse, pretty


def _emit(args, inputs, results, lines: list[str]) -> None:
    if args.format == "json":
        report = {"command": args.command, "inputs": inputs, "results": results}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_verify(args) -> int:
    order, table = tableio.read_table(args.file)  # shape-checked already
    report = _axiom_report(table)
    results = {
        "valid": report.ok,
        "violations": [{"axiom": vid, "witness": list(w)} for vid, w in report.violations],
    }
    if report.ok:
        lines = [f"ok: valid BCK-algebra of order {order}"]
    else:
        lines = [f"invalid: {len(report.violations)} axiom class(es) violated"]
        lines += [f"  {vid} witness={w}" for vid, w in report.violations]
    _emit(args, {"file": args.file}, results, lines)
    return 0 if report.ok else 1


def cmd_props(args) -> int:
    algebra = tableio.load_algebra(args.file)
    atoms = sorted(algebra.atoms())
    flags = {name: f[0] for name, f in _stack_flags(algebra.array[None]).items()}
    results = {"order": algebra.order, "bound": algebra.bound, **flags, "atoms": atoms}
    lines = [f"order: {algebra.order}"]
    lines.append("bounded: no" if algebra.bound is None else f"bounded: yes (1 = {algebra.bound})")
    lines += [f"{key}: {'yes' if results[key] else 'no'}" for key in _FLAG_LAWS]
    lines.append("atoms: " + " ".join(str(a) for a in atoms))
    _emit(args, {"file": args.file}, results, lines)
    return 0


def cmd_degree(args) -> int:
    algebra = tableio.load_algebra(args.file)
    if args.kind:
        d = DEGREE_FUNCTIONS[args.kind](algebra)
        shown = DEGREE_KINDS[args.kind].source
    else:
        eq = parse(args.eq)
        _refuse_above_cap(algebra.order**eq.arity)
        d = ds(algebra, eq)
        shown = pretty(eq)
    results = {"equation": shown, "kind": args.kind, "degree": d.to_json(), "note": d.note}
    lines = [f"equation: {shown}", f"degree: {d.reduced} (count={d.count} total={d.total})"]
    if d.note:
        lines.append(f"note: {d.note}")
    _emit(args, {"file": args.file, "kind": args.kind, "eq": args.eq}, results, lines)
    return 0


def _refuse_above_cap(assignments: int) -> None:
    # an --eq's assignment count, checked before any block is evaluated
    if assignments > tableio.MAX_ASSIGNMENTS:
        raise ValueError(
            f"--eq needs {assignments} assignments, above {tableio.MAX_ASSIGNMENTS}"
        )


def cmd_family(args) -> int:
    return _write_table(args, family(args.name, args.n))


def _write_table(args, algebra) -> int:
    # the algebra's table file, to --out or stdout
    text = tableio.dumps(algebra.order, algebra.array)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_construct(args) -> int:
    count = len(args.files)
    if args.operation == "iseki" and count != 1:
        raise ValueError(f"iseki takes exactly one table file, got {count}")
    if args.operation != "iseki" and count < 2:
        raise ValueError(f"{args.operation} takes at least two table files, got {count}")
    operands = [tableio.load_algebra(f) for f in args.files]
    # the result's order, bounded before its table is built: the operands
    # of a union share their 0, and iseki adds one element
    orders = [a.order for a in operands]
    order = {"product": math.prod(orders), "union": sum(orders) - (count - 1),
             "iseki": orders[0] + 1}[args.operation]
    if order > tableio.MAX_ORDER:
        raise ValueError(f"{args.operation} would have order {order}, above {tableio.MAX_ORDER}")
    if args.operation == "iseki":
        result = iseki_extension(operands[0])
    else:
        combine = bck_union if args.operation == "union" else direct_product
        result = operands[0]
        for other in operands[1:]:
            result = combine(result, other)
    return _write_table(args, result)


def cmd_gap(args) -> int:
    if args.kind:
        eq = builtin(args.kind)
    else:  # argparse requires one
        eq = parse(args.eq)
        _refuse_above_cap(sum(n**eq.arity for n in range(2, args.max_n + 1)))
    ev = gap_evidence(eq, args.max_n)
    results = {
        "equation": pretty(eq),
        "max_n": ev.max_n,
        "sequence": [
            {"n": i + 2, "degree": d.to_json()} for i, d in enumerate(ev.sequence)
        ],
        "sub_one_max": None
        if ev.sub_one_max is None
        else {"n": ev.sub_one_max[0], "degree": ev.sub_one_max[1].to_json()},
        "monotone_nonincreasing_after_first_sub_one": ev.monotone_nonincreasing_after_first_sub_one,
        "candidate_gap": None if ev.candidate_gap is None else str(ev.candidate_gap),
    }
    lines = [f"equation: {pretty(eq)}"]
    if ev.sub_one_max is None:
        lines.append(f"all chain degrees up to order {ev.max_n} equal 1; no sub-1 value in range")
    else:
        n_at, d = ev.sub_one_max
        lines.append(f"max sub-1 chain degree in range: {d.reduced} at order {n_at}")
        lines.append(f"candidate gap (computed range only): {ev.candidate_gap}")
        lines.append(
            "tail monotone non-increasing: "
            + ("yes" if ev.monotone_nonincreasing_after_first_sub_one else "no")
        )
    lines += [f"  n={i + 2}: {d.reduced}" for i, d in enumerate(ev.sequence)]
    _emit(args, {"eq": args.eq, "kind": args.kind, "max_n": args.max_n}, results, lines)
    return 0


def _catalog_for(args):
    if args.catalog:
        cat = load_catalog(args.catalog)
        if cat.order != args.order:
            raise MalformedTableError(
                f"catalog at {args.catalog} has order {cat.order}, expected {args.order}"
            )
        return cat
    return enumerate_algebras(args.order, jobs=args.jobs)


def cmd_enumerate(args) -> int:
    catalog = enumerate_algebras(args.order, jobs=args.jobs, max_nodes=args.max_nodes)
    if args.out:
        save_catalog(catalog, args.out)
    if args.format == "json":  # only the JSON report prints the degrees
        algebras = [
            {"table": e.algebra.array.tolist(), **e.to_json()}
            for e in catalog.entries
        ]
        results = {"order": args.order, "count": len(catalog), "algebras": algebras}
        _emit(args, {"order": args.order, "out": args.out}, results, [])
        return 0
    lines = [f"order {args.order}: {len(catalog)} algebras up to isomorphism"]
    for e in catalog.entries:
        flags = ["bounded" if e.algebra.bound is not None else "unbounded"]
        flags += [key for key in _FLAG_LAWS if getattr(e, key)]
        row = " ".join(",".join(str(v) for v in r) for r in e.algebra.array.tolist())
        lines.append(f"  [{row}] {' '.join(flags)}")
    _emit(args, None, None, lines)
    return 0


def cmd_spectrum(args) -> int:
    rep = spectrum(_catalog_for(args), args.kind)
    results = {
        "order": rep.order,
        "kind": rep.kind,
        "possible": None if rep.possible is None else [d.reduced for d in rep.possible],
        "achieved": [d.reduced for d in rep.achieved],
        "missing": [d.reduced for d in rep.missing],
        "outside_possible": [d.reduced for d in rep.outside_possible],
        "witnesses": {
            d.reduced: alg.array.tolist() for d, alg in sorted(rep.witnesses.items())
        },
    }
    lines = [f"order {rep.order}, kind {rep.kind}"]
    if rep.possible is not None:
        lines.append("possible: " + " ".join(d.reduced for d in rep.possible))
    lines.append("achieved: " + " ".join(d.reduced for d in rep.achieved))
    lines.append(
        "missing: " + (" ".join(d.reduced for d in rep.missing) if rep.missing else "(none)")
    )
    if rep.outside_possible:
        lines.append("outside possible: " + " ".join(d.reduced for d in rep.outside_possible))
    _emit(args, {"order": args.order, "kind": args.kind}, results, lines)
    return 0


def cmd_audit(args) -> int:
    rep = audit_bounds(_catalog_for(args))
    results = {
        "order": rep.order,
        "passed": rep.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "counterexamples": [
                    {"table": [list(r) for r in tab], "detail": detail}
                    for tab, detail in c.counterexamples
                ],
            }
            for c in rep.checks
        ],
    }
    lines = [f"order {rep.order}: {'PASS' if rep.passed else 'FAIL'}"]
    for c in rep.checks:
        lines.append(f"  {'pass' if c.passed else 'FAIL'} {c.name}")
        for tab, detail in c.counterexamples:
            row = " ".join(",".join(str(v) for v in r) for r in tab)
            lines.append(f"    counterexample [{row}]: {detail}")
    _emit(args, {"order": args.order}, results, lines)
    return 0 if rep.passed else 1


def cmd_decompose(args) -> int:
    algebra = tableio.load_algebra(args.file)
    lengths = decompose_commutative(algebra).chain_lengths
    lines = ["chain lengths: " + (" ".join(map(str, lengths)) or "(empty)")]
    _emit(args, {"file": args.file}, {"chain_lengths": list(lengths)}, lines)
    return 0


# Most worker processes --jobs may ask for.
MAX_JOBS = 64


def jobs(text: str) -> int:
    """argparse type of --jobs: an integer in [1, MAX_JOBS], checked before
    any worker exists."""
    value = int(text)
    if not 1 <= value <= MAX_JOBS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_JOBS}, got {value}")
    return value


def size(text: str) -> int:
    """argparse type of `family --n`, `gap --max-n` and `--order`: an integer
    of at most tableio.MAX_ORDER, checked before any table is built."""
    value = int(text)
    if value > tableio.MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be at most {tableio.MAX_ORDER}, got {value}")
    return value


def positive(text: str) -> int:
    """argparse type of `enumerate --max-nodes`: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _file_argument(p):
    p.add_argument("file")


def _degree_arguments(p):
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kind", choices=tuple(DEGREE_KINDS))
    g.add_argument("--eq")
    p.add_argument("--jobs", type=jobs, default=1, help="accepted; degrees count serially")


def _family_arguments(p):
    p.add_argument("--name", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", required=True, type=size)
    p.add_argument("--out")


def _construct_arguments(p):
    p.add_argument("operation", choices=("union", "product", "iseki"))
    p.add_argument("files", nargs="+")
    p.add_argument("--out")


def _gap_arguments(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--eq")
    g.add_argument("--kind", choices=tuple(BUILTIN_EQUATIONS))
    p.add_argument("--max-n", type=size, required=True)
    p.add_argument("--jobs", type=jobs, default=1, help="accepted; degrees count serially")


def _enumerate_arguments(p):
    p.add_argument("--order", type=size, required=True)
    p.add_argument("--out", help="directory to persist the catalog in")
    p.add_argument("--jobs", type=jobs, default=1, help="enumeration worker processes")
    p.add_argument("--max-nodes", type=positive, default=None)


def _spectrum_arguments(p):
    p.add_argument("--order", type=size, required=True)
    p.add_argument("--kind", choices=tuple(DEGREE_KINDS), required=True)
    p.add_argument("--catalog", help="persisted catalog directory to reuse")
    p.add_argument("--jobs", type=jobs, default=1, help="enumeration worker processes")


def _audit_arguments(p):
    p.add_argument("--order", type=size, required=True)
    p.add_argument("--catalog", help="persisted catalog directory to reuse")
    p.add_argument("--jobs", type=jobs, default=1, help="enumeration worker processes")


# Every subcommand, in the order `bck --help` lists them:
# name -> (handler, help, function adding its arguments besides --format).
COMMANDS = {
    "verify": (cmd_verify, "check a Cayley table file against the axioms", _file_argument),
    "props": (cmd_props, "print structural property flags and atoms", _file_argument),
    "degree": (cmd_degree, "exact degree of satisfiability of an equation", _degree_arguments),
    "family": (cmd_family, "emit a named family member as a table file", _family_arguments),
    "construct": (cmd_construct, "combine table files", _construct_arguments),
    "gap": (cmd_gap, "chain-sequence satisfiability-gap evidence", _gap_arguments),
    "enumerate": (cmd_enumerate, "all algebras of an order up to isomorphism", _enumerate_arguments),
    "spectrum": (cmd_spectrum, "achieved degree values across a catalog", _spectrum_arguments),
    "audit": (cmd_audit, "audit degree bounds over a catalog", _audit_arguments),
    "decompose": (cmd_decompose, "factor a commutative algebra into chains", _file_argument),
}


def build_parser() -> argparse.ArgumentParser:
    """The `bck` parser with every subcommand."""
    top = argparse.ArgumentParser(prog="bck", description="Finite BCK-algebra workbench")
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_command(sub.add_parser(name, help=COMMANDS[name][1]), name)
    return top


def _add_command(p, name):
    # a subcommand's defaults and arguments, on its subparser or its own parser
    fn, _, add_arguments = COMMANDS[name]
    p.set_defaults(fn=fn, command=name)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_arguments(p)


class _UsageError(Exception):
    pass


class _SilentParser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print a usage error and exit.
    argparse calls error() itself for some faults even with exit_on_error
    off (missing required arguments on 3.10-3.11), so it is overridden."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _command_parser(name):
    """The named subcommand's parser alone, under the prog name its
    subparser has, built once per process. Parsing leaves no state on it:
    defaults are copied into each call's namespace, the argument types
    read their limits when they run, and help reads the terminal width
    when it is formatted."""
    parser = _SilentParser(prog=f"bck {name}")
    _add_command(parser, name)
    return parser


def _parse(argv):
    """Parse with the named subcommand's parser; if there is no such
    command, or that parse hits a usage error, parse again with the full
    parser, so that help, usage lines and messages are the full parser's."""
    if argv and argv[0] in COMMANDS:
        try:
            return _command_parser(argv[0]).parse_args(argv[1:])
        except _UsageError:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except (BckAxiomError, NotCommutativeError, UnboundedAlgebraError, DecompositionError,
            EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # table, equation, usage and I/O errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
