"""The decision procedure for probability formulas over justification logic.

Satisfiability goes through three stages, both walks being
``syntax.assignments``: walk the sign tuples over the formula's basis,
holding true the assertions the constant specification derives on its
own, and keep, for each signature (the truth values of the probability
literal bodies), the first one a basic evaluation can satisfy as an
atom; then walk the truth assignments to the formula's probability
literals under which the formula holds, dropping every prefix that
already falsifies it, and translate each one into an exact linear
system over those sign tuples' weights, whose 0/1 coefficients are read
off the signatures; read the model off the first feasible system's
solution.  No assignment past the first feasible one is built.  The
simplex returns a basic solution, so the model has at most one world per
row and weights of certified size; ``certify_model`` checks both on
every model.

Both levels of Boolean structure are evaluated by one compiled test,
``syntax.truth_test``: the formula over the truth values of its
probability literals (three-valued over the walk's partial assignments,
and in the model check), and each literal body over an atom's signs.

Each decision compiles its formula once (``_Form``).  The form walks
nothing itself: it reads the probability literals and ``size_p`` from
``syntax.p_level`` and the basis from ``syntax.basis_of`` over the
literals' bodies, and compiles the body tests, P-level test and J-filter
from them.  The certificate reads the decision's compiled form, so a
model is checked with the tests and the J-filter that produced it, not
with rebuilt ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cspec import ConstantSpec
from .jsem import BasisMismatchError, jsat_test
from .linrat import LinearSystem, Rel, Row, feasible
from .syntax import (
    Assert,
    AtLeast,
    Atom,
    DEFAULT_ATOM_CAP,
    JAnd,
    JNot,
    PFormula,
    ParseError,
    Prop,
    assignments,
    basis_of,
    jformula_str,
    parse_jformula,
    p_level,
    p_level_weight_bound,
    rat_str,
    size_rat,
    truth_test,
    within_cap,
)


def build_system(occs, bits, columns) -> LinearSystem:
    """One weight variable per column entry; a total-measure row plus one
    row per occurrence, ``P(body) >= s`` where its bit is true and
    ``P(body) < s`` where it is false, whose coefficients are its body's
    0/1 column (``columns[body]``, one int per variable)."""
    n = len(next(iter(columns.values())))
    rows = [Row((1,) * n, Rel.EQ, Fraction(1))]
    for occ, bit in zip(occs, bits):
        rows.append(Row(columns[occ.body], Rel.GE if bit else Rel.LT, occ.threshold))
    return LinearSystem(tuple(rows), n)


@dataclass(frozen=True)
class SmallModel:
    """Finite probabilistic model: worlds carrying atoms and positive
    rational weights summing to 1; the event algebra is the implicit
    powerset with additive measure.  Every world's atom is over ``basis``,
    the one basis ``check_model`` and ``certify_model`` read it over."""

    worlds: tuple  # (Atom, Fraction) pairs
    basis: tuple


class _Form:
    """One decision's compiled form of a probability formula f, read by
    both ``solve_sat`` and ``certify_model``.

    It has no walk of its own: ``p_level(f)`` gives the distinct AtLeast
    occurrences (``occs``) and ``size``, and ``basis_of`` over the
    distinct bodies (``bodies``, in first-occurrence order) gives the
    basis.  Compiled from them once, after the cap check: a
    ``truth_test`` per distinct body (``tests``, in ``bodies`` order), the
    P-level ``holds`` and, given cs, ``jsat_test(basis, cs)``; and, when
    first asked for, ``weight_bound``, ``weight_size_bound(f)``.
    """

    def __init__(self, f: PFormula, cs: ConstantSpec | None = None, cap: int | None = None):
        self.occs, self.size = p_level(f)
        self.bodies = list(dict.fromkeys(occ.body for occ in self.occs))
        self.basis = basis_of(*self.bodies)
        if cap is not None:
            within_cap(self.basis, cap)
        index = {b: i for i, b in enumerate(self.basis)}
        self.tests = [truth_test(body, index) for body in self.bodies]
        self.holds = truth_test(f, {occ: i for i, occ in enumerate(self.occs)})
        self.jsat = None if cs is None else jsat_test(self.basis, cs)

    @cached_property
    def weight_bound(self) -> int:
        return p_level_weight_bound(self.occs, self.size)


def check_model(model: SmallModel, f: PFormula, *, form=None) -> bool:
    """Replace every AtLeast by its exact measure comparison and evaluate
    the Boolean structure, over the model's one basis.

    Raises ``BasisMismatchError`` unless f's basis is inside
    ``model.basis`` and every world's atom is over ``model.basis``.  Each
    distinct body is measured by one test over that basis: the tests of
    ``form``, f's compiled form (built here when not given), when the
    model is over the form's basis, and otherwise a ``truth_test`` per
    body compiled once over ``model.basis``."""
    if form is None:
        form = _Form(f)
    if not set(form.basis) <= set(model.basis):
        raise BasisMismatchError("model basis does not cover the formula")
    if any(atom.basis != model.basis for atom, _ in model.worlds):
        raise BasisMismatchError("world atoms are not over the model basis")
    tests = form.tests
    if model.basis != form.basis:
        index = {b: i for i, b in enumerate(model.basis)}
        tests = [truth_test(body, index) for body in form.bodies]
    measure = {
        body: sum((w for atom, w in model.worlds if test(atom.signs)), Fraction(0))
        for body, test in zip(form.bodies, tests)
    }
    return form.holds([measure[occ.body] >= occ.threshold for occ in form.occs])


def certify_model(model: SmallModel, f: PFormula, cs: ConstantSpec, *, form=None):
    """All small-model conditions, as a list of violation strings.

    Checks world count, weight positivity and additivity to 1, weight
    sizes against the certified bound, atom distinctness, per-world atom
    satisfiability, and that the model satisfies the formula.  The weight
    sizes are checked against ``weight_size_bound(f)``, as read off the
    P-level of ``form``, f's compiled form under cs (built here when not
    given), which every other check reads too.  ``check_model`` runs
    first, so a model whose worlds are not all over its basis raises
    ``BasisMismatchError`` before any world is J-checked.  The worlds are
    J-checked by one filter over the model's basis: the form's own when
    the model is over the form's basis, otherwise one
    ``jsat_test(model.basis, cs)``.
    """
    if form is None:
        form = _Form(f, cs)
    satisfied = check_model(model, f, form=form)
    bound = form.weight_bound
    problems = []
    if len(model.worlds) > form.size:
        problems.append(f"too many worlds: {len(model.worlds)} > {form.size}")
    total = sum((w for _, w in model.worlds), Fraction(0))
    if total != 1:
        problems.append(f"weights sum to {rat_str(total)}, not 1")
    for i, (atom, w) in enumerate(model.worlds):
        if w <= 0:
            problems.append(f"world {i + 1} has non-positive weight {rat_str(w)}")
        elif size_rat(w) > bound:
            problems.append(
                f"world {i + 1} weight {rat_str(w)} has size {size_rat(w)} > {bound}"
            )
    atoms = [a for a, _ in model.worlds]
    if len(set(atoms)) != len(atoms):
        problems.append("duplicate atom across worlds")
    jsat = form.jsat if model.basis == form.basis else jsat_test(model.basis, cs)
    for i, atom in enumerate(atoms):
        if not jsat(atom.signs):
            problems.append(f"world {i + 1} atom is not J-satisfiable")
    if not satisfied:
        problems.append("model does not satisfy the formula")
    return problems


def solve_sat(
    f: PFormula,
    cs: ConstantSpec,
    cap: int = DEFAULT_ATOM_CAP,
    on_system=None,
):
    """SAT with a small-model witness (a SmallModel), or None for UNSAT.

    Sign tuples with the same signature give identical columns, so each
    signature keeps one column: its first J-satisfiable sign tuple in
    enumeration order.  The walk holds the CS-forced assertions true,
    since every tuple that negates one is J-unsatisfiable, and sign tuples
    of a signature that already has a representative are not J-checked;
    neither skip changes a representative.  Each body's column is read
    off the signatures.
    The truth assignments to the AtLeast occurrences under which the
    formula holds are walked in ``itertools.product`` order by
    ``assignments``, which fixes them left to right and drops every
    prefix under which the formula is already False, and each is tried
    as a linear system; the first feasible one wins.  Its
    basic solution is the model, one world per positive weight (the only
    sign tuples made into Atoms), and is certified before being returned.
    """
    form = _Form(f, cs, cap)
    basis, occs, tests, jsat = form.basis, form.occs, form.tests, form.jsat
    reps = {}
    for signs in assignments(lambda values: True, len(basis), jsat.cs_forced()):
        key = tuple([test(signs) for test in tests])
        if key not in reps and jsat(signs):
            reps[key] = signs
    columns = {body: tuple(map(int, col)) for body, col in zip(form.bodies, zip(*reps))}
    for bits in assignments(form.holds, len(occs)):
        system = build_system(occs, bits, columns)
        if on_system is not None:
            on_system(system)
        sol = feasible(system)
        if sol is None:
            continue
        worlds = tuple(
            (Atom(basis, signs), w)
            for signs, w in zip(reps.values(), sol.values)
            if w > 0
        )
        model = SmallModel(worlds, basis)
        problems = certify_model(model, f, cs, form=form)
        if problems:
            raise AssertionError(
                "internal invariant violation: " + "; ".join(problems)
            )
        return model
    return None


def valid(f: PFormula, cs: ConstantSpec, cap: int = DEFAULT_ATOM_CAP) -> bool:
    """True iff the negation is unsatisfiable."""
    return solve_sat(JNot(f), cs, cap) is None


def lift_to_p1(alpha) -> PFormula:
    """Embed a justification formula as 'probability at least 1'."""
    return AtLeast(Fraction(1), alpha)


# --- stable model text format ---

def format_model(model: SmallModel) -> str:
    lines = ["SAT"]
    for i, (atom, w) in enumerate(model.worlds, 1):
        lines.append(f"world {i} weight {rat_str(w)} atom {atom}")
    lines.append("check PASS")
    return "\n".join(lines)


class ModelFormatError(ValueError):
    pass


_WORLD_RE = re.compile(r"world\s+(\d+)\s+weight\s+(\d+)(?:/(\d+))?\s+atom\s+(.*)$")


def parse_model(text: str, f: PFormula) -> SmallModel:
    """Parse the line-oriented model format against a formula's basis."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "SAT":
        raise ModelFormatError("model file must start with 'SAT'")
    basis = basis_of(f)
    index = {b: i for i, b in enumerate(basis)}
    worlds = []
    for ln in lines[1:]:
        ln = ln.strip()
        if ln.startswith("check"):
            continue
        m = _WORLD_RE.match(ln)
        if m is None:
            raise ModelFormatError(f"bad model line: {ln!r}")
        try:
            weight = Fraction(int(m.group(2)), int(m.group(3) or 1))
        except ZeroDivisionError:
            raise ModelFormatError("zero denominator in weight") from None
        except ValueError:  # longer than the interpreter's int-string limit
            raise ModelFormatError("weight numeral too long") from None
        try:
            conj = parse_jformula(m.group(4))
        except ParseError as exc:
            raise ModelFormatError(f"bad atom string: {exc}") from exc
        signs = [None] * len(basis)
        for basic, sign in _conjunct_literals(conj):
            if basic not in index:
                raise ModelFormatError(f"atom literal outside basis: {jformula_str(basic)}")
            if signs[index[basic]] is not None:
                raise ModelFormatError(f"atom names {jformula_str(basic)} twice")
            signs[index[basic]] = sign
        if any(s is None for s in signs):
            raise ModelFormatError("atom does not cover the formula basis")
        worlds.append((Atom(basis, tuple(signs)), weight))
    return SmallModel(tuple(worlds), basis)


def _conjunct_literals(conj):
    if isinstance(conj, JAnd):
        yield from _conjunct_literals(conj.left)
        yield from _conjunct_literals(conj.right)
    elif isinstance(conj, JNot) and isinstance(conj.body, (Prop, Assert)):
        yield conj.body, False
    elif isinstance(conj, (Prop, Assert)):
        yield conj, True
    else:
        raise ModelFormatError(f"not an atom literal: {jformula_str(conj)}")
