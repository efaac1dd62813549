"""Command-line front end.

Commands:
  sat FILE      decide satisfiability of a probability formula, print a model
  valid FILE    decide validity of a probability formula
  jsat FILE     decide satisfiability of a justification formula
  atoms FILE    list the atoms of a formula with per-atom J-satisfiability
  check FILE    re-verify a model file against a formula

Exit codes: 0 = SAT/VALID/true, 1 = UNSAT/NOT-VALID/false,
2 = usage or parse error, 3 = enumeration cap exceeded or a number too
long to print.
"""

from __future__ import annotations

import argparse
import sys

from . import cspec, solver
from .jsem import jformula_sat, jsat_test
from .linrat import system_str
from .syntax import (
    DEFAULT_ATOM_CAP,
    Atom,
    EnumerationLimitError,
    OutputLimitError,
    ParseError,
    assignments,
    basis_of,
    parse_jformula,
    parse_pformula,
    within_cap,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _cap(text):
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return cap


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pjsat",
        description="Exact decision procedure for probabilistic justification logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sat", "decide satisfiability of a probability formula"),
        ("valid", "decide validity of a probability formula"),
        ("jsat", "decide satisfiability of a justification formula"),
        ("atoms", "list atoms with per-atom J-satisfiability"),
        ("check", "re-verify a model file against a formula"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("formula", help="path to the formula file ('-' for stdin)")
        p.add_argument("--cs", dest="cs_path", help="constant specification file")
        if name != "check":
            p.add_argument(
                "--cap",
                type=_cap,
                default=DEFAULT_ATOM_CAP,
                help="atom enumeration cap on the basis size",
            )
        p.add_argument("--require-injective", action="store_true")
        p.add_argument("--require-appropriate", action="store_true")
        if name == "sat":
            p.add_argument("--dump-lp", action="store_true")
            p.add_argument("--model-out", dest="model_out")
        if name == "check":
            p.add_argument("--model", dest="model_path", required=True)
    return parser


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_cs(args):
    cs = cspec.default_cs() if args.cs_path is None else cspec.load_cs(_read(args.cs_path))
    diagnostics = cspec.validate(
        cs,
        require_injective=args.require_injective,
        require_appropriate=args.require_appropriate,
    )
    if diagnostics:
        for d in diagnostics:
            print(d, file=sys.stderr)
        raise cspec.CSFormatError("constant specification fails validation")
    return cs


def run(args) -> int:
    cs = _load_cs(args)
    text = _read(args.formula)

    if args.command == "sat":
        f = parse_pformula(text)
        dump = (lambda s: print(system_str(s))) if args.dump_lp else None
        model = solver.solve_sat(f, cs, cap=args.cap, on_system=dump)
        if model is None:
            print("UNSAT")
            return EXIT_FALSE
        out = solver.format_model(model)
        print(out)
        if args.model_out:
            with open(args.model_out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        return EXIT_TRUE

    if args.command == "valid":
        f = parse_pformula(text)
        ok = solver.valid(f, cs, cap=args.cap)
        print("VALID" if ok else "NOT-VALID")
        return EXIT_TRUE if ok else EXIT_FALSE

    if args.command == "jsat":
        alpha = parse_jformula(text)
        ok = jformula_sat(alpha, cs, cap=args.cap)
        print("SAT" if ok else "UNSAT")
        return EXIT_TRUE if ok else EXIT_FALSE

    if args.command == "atoms":
        try:
            f = parse_pformula(text)
        except ParseError as p_err:
            try:
                f = parse_jformula(text)
            except ParseError as j_err:  # report the parse that got further
                raise p_err if p_err.pos > j_err.pos else j_err
        basis = within_cap(basis_of(f), args.cap)  # before the filter is built
        jsat = jsat_test(basis, cs)
        for i, signs in enumerate(assignments(lambda values: True, len(basis)), 1):
            verdict = "jsat" if jsat(signs) else "junsat"
            print(f"atom {i} {verdict}: {Atom(basis, signs)}")
        return EXIT_TRUE

    if args.command == "check":
        f = parse_pformula(text)
        model = solver.parse_model(_read(args.model_path), f)
        problems = solver.certify_model(model, f, cs)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            print("check FAIL")
            return EXIT_FALSE
        print("check PASS")
        return EXIT_TRUE

    raise AssertionError(f"unknown command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_TRUE
    try:
        return run(args)
    except (EnumerationLimitError, OutputLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        ParseError,
        cspec.CSFormatError,
        solver.ModelFormatError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
