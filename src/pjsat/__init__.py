"""Exact decision procedure for probabilistic justification logic.

Satisfiability and validity of probability formulas over justification
logic, with small-model witnesses carrying certified size bounds.
"""

from .cspec import ConstantSpec, builtin_schemes, cs_contains, default_cs, load_cs, validate
from .jsem import atom_jsat, eval_under_atom, jformula_sat
from .linrat import LinearSystem, Rel, Row, Solution, feasible, integerize, shrink_solution
from .solver import SmallModel, check_model, lift_to_p1, solve_sat, valid
from .syntax import (
    Atom,
    atoms_of,
    basis_of,
    norm,
    parse_jformula,
    parse_pformula,
    parse_term,
    pformula_str,
    jformula_str,
    size_p,
    size_rat,
    subf,
    term_str,
)

__all__ = [
    "ConstantSpec",
    "builtin_schemes",
    "cs_contains",
    "default_cs",
    "load_cs",
    "validate",
    "atom_jsat",
    "eval_under_atom",
    "jformula_sat",
    "LinearSystem",
    "Rel",
    "Row",
    "Solution",
    "feasible",
    "integerize",
    "shrink_solution",
    "SmallModel",
    "check_model",
    "lift_to_p1",
    "solve_sat",
    "valid",
    "Atom",
    "atoms_of",
    "basis_of",
    "norm",
    "parse_jformula",
    "parse_pformula",
    "parse_term",
    "pformula_str",
    "jformula_str",
    "size_p",
    "size_rat",
    "subf",
    "term_str",
]
