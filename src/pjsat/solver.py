"""The decision procedure for probability formulas over justification logic.

Satisfiability goes through three stages.  First, the sign tuples over
the formula's basis are the bits of a truth table, one 2^n-bit int per
set of tuples (Knuth, TAOCP 4A, 7.1.3): the tuples that hold true the
assertions the constant specification derives on its own, and each
probability literal body's set.  Second, the truth assignments to the
formula's probability literals under which the formula holds are walked
by ``syntax.assignments``, which drops every prefix that already
falsifies it.  Third, the first assignment with a model gives it.

The first assignment is tried on a point mass alone: weight 1 on the
first tuple, in enumeration order, that meets every literal and that a
basic evaluation can satisfy as an atom, an AND of the bodies' sets.
Most decisions end there.  Otherwise the tuples are partitioned by the
bodies' sets, each cell, one signature (the truth values of those
bodies), keeping its first such tuple, and each assignment, the first
again, becomes an exact linear system over the representatives'
weights, whose 0/1 coefficients are read off the signatures.  An
assignment with a dead literal, or with two literals whose bounds leave
no room, builds none: a clash table read off the columns, one int mask
per column, refutes it, and of any other system it keeps the rows the
simplex gets, the total row and the tightest bound per column and
direction, which imply the rest.  A kept system is decided by its point
mass when it has one, and otherwise by the simplex.  Either gives a
basic solution, so the model has at most one world per row and weights
of certified size; ``certify_model`` checks both on every model.

The formula over the truth values of its probability literals is
evaluated by one compiled test, ``syntax.truth_test``, three-valued over
the walk's partial assignments and two-valued in the model check, which
also measures each literal body over an atom's signs with the same
compiled test, built over the model's basis.

Each decision compiles its formula once (``_Form``).  The form walks
nothing itself: it reads the probability literals and ``size_p`` from
``syntax.p_level`` and the basis from ``syntax.basis_of`` over the
literals' bodies, and compiles the P-level test and the J-filter from
them.  The certificate reads the decision's compiled form, so a model
is checked with the J-filter that produced it, and with body tests
compiled apart from the bitsets that made its columns.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cspec import ConstantSpec
from .jsem import BasisMismatchError, jsat_test
from .linrat import LinearSystem, Rel, Row, feasible, over_lcm
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
    size_int,
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
    distinct bodies (``bodies``, in first-occurrence order, read by each
    occurrence through its index, ``slots``) gives the basis.  Compiled
    from them once, after the cap check: the P-level
    ``holds`` and, given cs, ``jsat_test(basis, cs)``; and, when first
    asked for, ``weight_bound``, ``weight_size_bound(f)``.
    """

    def __init__(self, f: PFormula, cs: ConstantSpec | None = None, cap: int | None = None):
        self.occs, self.size = p_level(f)
        index = {}
        self.slots = [index.setdefault(occ.body, len(index)) for occ in self.occs]
        self.bodies = list(index)
        self.basis = basis_of(*self.bodies)
        if cap is not None:
            within_cap(self.basis, cap)
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
    distinct body of ``form``, f's compiled form (built here when not
    given), is measured by one ``truth_test`` compiled over
    ``model.basis``, once per call, as an exact int m over the worlds'
    common denominator d: ``P(body) >= s`` is ``m * den(s) >= num(s) * d``."""
    if form is None:
        form = _Form(f)
    if not set(form.basis) <= set(model.basis):
        raise BasisMismatchError("model basis does not cover the formula")
    if any(atom.basis != model.basis for atom, _ in model.worlds):
        raise BasisMismatchError("world atoms are not over the model basis")
    index = {b: i for i, b in enumerate(model.basis)}
    tests = [truth_test(body, index) for body in form.bodies]
    d, weights = over_lcm([(w.numerator, w.denominator) for _, w in model.worlds])
    measure = [  # P(body) times d, by slot
        sum(m for (atom, _), m in zip(model.worlds, weights) if test(atom.signs)) for test in tests
    ]
    return form.holds([
        measure[slot] * g.threshold.denominator >= g.threshold.numerator * d
        for g, slot in zip(form.occs, form.slots)
    ])


def certify_model(model: SmallModel, f: PFormula, cs: ConstantSpec, *, form=None):
    """All small-model conditions, as a list of violation strings.

    Checks world count, weight positivity and additivity to 1 (an exact
    int sum over the worlds' common denominator d, equal to d), weight
    sizes against the certified bound, atom distinctness (of sign tuples,
    as every world is over ``model.basis``), per-world atom
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
    d, weights = over_lcm([(w.numerator, w.denominator) for _, w in model.worlds])
    if sum(weights) != d:
        problems.append(f"weights sum to {rat_str(Fraction(sum(weights), d))}, not 1")
    for i, (atom, w) in enumerate(model.worlds):
        if w.numerator <= 0:
            problems.append(f"world {i + 1} has non-positive weight {rat_str(w)}")
        elif (size := size_int(w.numerator) + size_int(w.denominator)) > bound:
            problems.append(f"world {i + 1} weight {rat_str(w)} has size {size} > {bound}")
    atoms = [a for a, _ in model.worlds]
    if len({atom.signs for atom in atoms}) != len(atoms):
        problems.append("duplicate atom across worlds")
    jsat = form.jsat if model.basis == form.basis else jsat_test(model.basis, cs)
    for i, atom in enumerate(atoms):
        if not jsat(atom.signs):
            problems.append(f"world {i + 1} atom is not J-satisfiable")
    if not satisfied:
        problems.append("model does not satisfy the formula")
    return problems


def _truth_table(n):
    """Position k's column of the truth table over n positions, as a
    2^n-bit int: bit i is set iff position k is True in the i-th tuple of
    ``itertools.product((True, False), repeat=n)``, that is iff bit n-1-k
    of i is 0.  Each is a block of 2^(n-1-k) ones, doubled up to width."""
    width = 1 << n
    columns = []
    for k in range(n):
        half = 1 << (n - 1 - k)
        column, span = (1 << half) - 1, 2 * half
        while span < width:
            column |= column << span
            span *= 2
        columns.append(column)
    return columns


def _body_set(body, leaves, full):
    """The bits of the truth table where body holds: ``JNot`` is
    ``full ^ x``, ``JAnd`` is ``a & b``, any other node reads
    ``leaves[node]``.  A postorder walk on a stack, where a connective's
    class stands for applying it, so a deep body does not recurse."""
    stack, values = [body], []
    while stack:
        g = stack.pop()
        if g is JNot:
            values.append(full ^ values.pop())
        elif g is JAnd:
            values.append(values.pop() & values.pop())
        elif isinstance(g, JNot):
            stack += (JNot, g.body)
        elif isinstance(g, JAnd):
            stack += (JAnd, g.right, g.left)
        else:
            values.append(leaves[g])
    return values.pop()


def _table(form):
    """The truth table over the basis, built once per decision: the
    CS-forced cell, the tuples that hold every CS-forced assertion true,
    since every tuple that negates one is J-unsatisfiable; each distinct
    body's set of tuples, by slot; and ``first(cell)``, the lowest bit of
    a cell whose tuple passes ``form.jsat``, with that tuple, or None.
    The sign tuples are the bits of the table, in enumeration order."""
    n = len(form.basis)
    leaves = dict(zip(form.basis, _truth_table(n)))
    full = (1 << (1 << n)) - 1
    sets = [_body_set(body, leaves, full) for body in form.bodies]
    forced = full
    for j in form.jsat.cs_forced():
        forced &= leaves[form.basis[j]]
    # tuple i is high[i >> half] + low[i & mask]: product order, decoded by halves
    half = n // 2
    high = list(itertools.product((True, False), repeat=n - half))
    low = list(itertools.product((True, False), repeat=half))
    mask = len(low) - 1

    def first(cell):
        while cell:
            i = (cell & -cell).bit_length() - 1
            signs = high[i >> half] + low[i & mask]
            if form.jsat(signs):
                return i, signs
            cell &= cell - 1
        return None

    return forced, sets, first


def _point_mass(form, table, bits):
    """The first sign tuple, in enumeration order, that passes
    ``form.jsat`` and on which weight 1 alone meets every literal of the
    assignment bits, or None: the lowest such bit of the CS-forced cell
    ANDed, by slot, with each True literal's body set and each False
    literal's complement, for s > 0 only, as ``P(b) >= 0`` always holds
    and ``P(b) < 0`` never does.  That AND is a union of signature cells,
    so the tuple is the first representative meeting every literal."""
    cell, sets, first = table
    for occ, slot, bit in zip(form.occs, form.slots, bits):
        if occ.threshold.numerator:
            cell &= sets[slot] if bit else ~sets[slot]
        elif not bit:
            return None
    found = first(cell)
    return found and found[1]


def _signatures(form, table):
    """The representative sign tuples, in enumeration order, and each
    body's 0/1 column over them (``columns[body]``, one int per
    representative), read off the truth table (``_table``).

    A depth first refinement splits the CS-forced cell by each body's set
    in turn, drops empty parts and carries the truth values taken, so
    every leaf is one signature's cell and its key is that signature.  A
    cell's representative is its lowest bit whose tuple passes
    ``form.jsat``, the first J-satisfiable tuple of the signature in
    enumeration order; a cell none of whose tuples passes has none."""
    cell, sets, first = table
    reps = []
    stack = [(cell, ())]  # a cell and its key so far, one 0/1 per body
    while stack:
        cell, key = stack.pop()
        for bodyset in sets[len(key):]:
            inside = cell & bodyset
            if inside == cell:
                key += (1,)
            else:
                if inside:
                    stack.append((inside, key + (1,)))
                cell ^= inside
                key += (0,)
        if found := first(cell):
            reps.append((*found, key))
    reps.sort()
    columns = zip(*[key for _, _, key in reps])
    return [signs for _, signs, _ in reps], dict(zip(form.bodies, columns))


def _kept_rows(form, columns):
    """A function of the truth assignments to ``form.occs``: None when
    the assignment's system has a dead literal or two literals whose
    bounds leave no room, which the columns decide with no tableau
    (Andersen and Andersen, Math. Programming 1995), and otherwise the
    positions k in occs of the literals whose rows reach the tableau,
    beside the total row.

    A literal's row is ``a.x >= s`` when it is True and ``a.x < s`` when
    it is False, a its body's column, beside the total row ``1.x = 1``.
    Each column is read once per slot as one int mask, a byte per
    representative: equal masks are one column, and ``mask ^ ones`` is
    its complement (1 minus it), ``ones`` the all-ones column's mask.
    The walk keys bounds by small ints named after the masks, as an int's
    hash is not kept and a mask's takes a pass over its bytes.  Dead:
    False on the all-ones column, True with s > 0 on the all-zeros
    column, mask 0, and False with s = 0 on any column.  No room, on the
    other columns: one mask's largest lower bound is at least its
    smallest upper bound, or two complementary masks' lower bounds sum
    past 1, or their upper bounds sum to 1 or less, a complement with no
    upper bound reading 1, so that an upper bound 0 alone is dead.

    The kept literals are, per mask and direction, the tightest bound
    (the first on ties), in its first literal's place.  The
    rows left out, looser bounds and literals that hold on all-ones or
    all-zeros columns, are implied, so a Farkas certificate over the kept
    rows gives 0 to every other literal row.

    Each refutation is a Farkas certificate, multipliers +1 or -1 on at
    most two literal rows and the total row, that sums to a false
    constant row.  A dead literal on an all-zeros column is its row
    alone, ``0 >= s``; on an all-ones column, its row less the total row,
    ``0 < s - 1``; False with s = 0 is its row alone, ``a.x < 0``, false
    as a and x are non-negative.  A lower bound s and an upper bound u on
    one column subtract to ``0 > s - u``.  Lower bounds s and t on
    complementary columns, less the total row, sum to ``0 >= s + t - 1``,
    and upper bounds to ``0 < s + t - 1``."""
    one = math.lcm(*(occ.threshold.denominator for occ in form.occs))  # a threshold s is s * one
    width = len(next(iter(columns.values())))  # the representatives
    ones = int.from_bytes(bytes([1]) * width, "big")
    masks = [int.from_bytes(bytes(columns[body]), "big") for body in form.bodies]
    name = {}  # a mask to 4k, its complement to 4k + 2, k the first literal on either
    literals = []
    for k, (occ, slot) in enumerate(zip(form.occs, form.slots)):
        mask = masks[slot]
        if mask not in name:
            name[mask], name[mask ^ ones] = 4 * k, 4 * k + 2
        s = occ.threshold.numerator * (one // occ.threshold.denominator)
        dead = False if mask == ones else s > 0 if mask == 0 else None
        literals.append((name[mask], s, dead))
    above = one + 1  # no upper bound, as -1 is no lower bound: neither decides a test

    def kept_rows(bits):
        # keyed by a mask's name for its lower bound, the name + 1 for its
        # upper, so key ^ 1 is the other direction and key ^ 2 the
        # complement's: the tightest bound and its literal, which keeps
        # the first literal's place
        bound, pos = {}, {}
        for k, ((c, s, dead), bit) in enumerate(zip(literals, bits)):
            if dead is not None:
                if bit == dead:
                    return None
                continue
            key = c if bit else c + 1
            old = bound.get(key)
            if old is None or (s > old if bit else s < old):
                bound[key] = s
                pos[key] = k
        for key, s in bound.items():
            if key & 1 == 0:
                if s >= bound.get(key + 1, above) or s + bound.get(key ^ 2, -1) > one:
                    return None
            elif s + bound.get(key ^ 2, one) <= one:
                return None
        return list(pos.values())

    return kept_rows


def solve_sat(
    f: PFormula,
    cs: ConstantSpec,
    cap: int = DEFAULT_ATOM_CAP,
    on_system=None,
):
    """SAT with a small-model witness (a SmallModel), or None for UNSAT.

    The truth assignments to the AtLeast occurrences under which the
    formula holds are walked in ``itertools.product`` order by
    ``assignments``, which drops every prefix under which the formula is
    already False; the first one with a model wins.  Unless
    ``on_system`` is given, the first is tried on its point mass
    (``_point_mass``) over the truth table (``_table``) before anything
    else.  Only when that fails are the signatures partitioned
    (``_signatures``), each keeping its first J-satisfiable tuple, and
    each assignment, the first again, goes through the clash table
    (``_kept_rows``): one it refutes builds no system, and neither
    ``feasible`` nor ``on_system`` sees it.  Any other assignment's
    system, one row per literal, is built only for ``on_system``, and is
    decided by its point mass when it has one, else by ``feasible`` on
    the literals the clash table keeps.  The winning basic solution is
    the model, one world per positive weight, certified before it is
    returned.
    """
    form = _Form(f, cs, cap)
    basis, occs = form.basis, form.occs
    table = _table(form)
    walk = assignments(form.holds, len(occs))
    bits = next(walk, None)
    if bits is None:
        return None
    signs = _point_mass(form, table, bits) if on_system is None else None
    if signs is not None:
        worlds = ((Atom(basis, signs), Fraction(1)),)
    else:
        reps, columns = _signatures(form, table)
        kept_rows = _kept_rows(form, columns)
        for bits in itertools.chain((bits,), walk):
            kept = kept_rows(bits)
            if kept is None:
                continue
            if on_system is not None:
                on_system(build_system(occs, bits, columns))
            signs = _point_mass(form, table, bits)
            if signs is not None:
                worlds = ((Atom(basis, signs), Fraction(1)),)
                break
            sol = feasible(build_system([occs[k] for k in kept], [bits[k] for k in kept], columns))
            if sol is not None:
                worlds = tuple((Atom(basis, signs), w) for signs, w in zip(reps, sol.values) if w)
                break
        else:
            return None
    model = SmallModel(worlds, basis)
    problems = certify_model(model, f, cs, form=form)
    if problems:
        raise AssertionError("internal invariant violation: " + "; ".join(problems))
    return model


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
