"""Independent checks of pjsat's verdicts and models.

Nothing here calls pjsat's solver, J-semantics or LP code.  The checks use
pjsat's syntax tree (the parsed formula) and nothing else of the program:

* measures are computed with this module's own truth-table evaluator;
* J-satisfiability of an atom is judged by a bottom-up pattern closure of
  the evidence function (``EvidenceClosure``), a different algorithm
  from pjsat.jsem's goal-directed derivation search;
* UNSAT verdicts of random formulas are confirmed by ``oracle_sat``: truth
  tables at the P-level, atoms filtered by the pattern closure, and
  Fourier-Motzkin elimination from the test suite's oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from pjsat.syntax import (
    App,
    Assert,
    AtLeast,
    Bang,
    Const,
    JAnd,
    JNot,
    PAnd,
    PNot,
    Prop,
    Sum,
)


# --- structure of a probability formula ---

def walk(f):
    """Every node of a formula tree (both languages), with repeats."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (JNot, PNot)):
            stack.append(g.body)
        elif isinstance(g, (JAnd, PAnd)):
            stack += (g.left, g.right)
        elif isinstance(g, (Assert, AtLeast)):
            stack.append(g.body)


def basics(f):
    """The propositions and assertions of a formula, as a set."""
    return {g for g in walk(f) if isinstance(g, (Prop, Assert))}


def size_p(f):
    """Number of symbols at the P-level, each threshold literal counting 2."""
    if isinstance(f, AtLeast):
        return 2
    if isinstance(f, PNot):
        return 1 + size_p(f.body)
    return size_p(f.left) + 1 + size_p(f.right)


def rat_bits(r: Fraction) -> int:
    return max(1, r.numerator.bit_length()) + max(1, r.denominator.bit_length())


def weight_bound(f) -> int:
    """The paper's cap on the size of each weight of a small model:
    2 (n ||f|| + n log2 n + 1) with n = size_p(f)."""
    n = size_p(f)
    norm = max(rat_bits(g.threshold) for g in walk(f) if isinstance(g, AtLeast))
    return math.floor(2 * (n * norm + n * math.log2(n) + 1))


def holds(phi, signs) -> bool:
    """Truth of a justification formula given the truth of its basics."""
    if isinstance(phi, (Prop, Assert)):
        return signs[phi]
    if isinstance(phi, JNot):
        return not holds(phi.body, signs)
    return holds(phi.left, signs) and holds(phi.right, signs)


def p_holds(f, truth) -> bool:
    """Boolean value of a probability formula given each literal's truth."""
    if isinstance(f, AtLeast):
        return truth[f]
    if isinstance(f, PNot):
        return not p_holds(f.body, truth)
    return p_holds(f.left, truth) and p_holds(f.right, truth)


# --- J-satisfiability by pattern closure ---
#
# E(t), the minimal evidence set of term t, is represented by a finite set
# of patterns whose ground instances are exactly its members:
#   constants: the patterns of their axiom schemes;
#   u+v:       E(u) and E(v);
#   u.v:       mgu-instances of B for (A -> B) in E(u) and A in E(v);
#   every term additionally its hypotheses (positive assertions on it).
# '!' and variables have hypotheses only.


@dataclass(frozen=True)
class Meta:
    n: int


def _imp(a, b):
    return JNot(JAnd(a, JNot(b)))


def _default_schemes():
    A, B, C, S, T = (Meta(i) for i in range(5))
    return {
        "c_taut1": (_imp(A, _imp(B, A)),),
        "c_taut2": (_imp(_imp(A, _imp(B, C)), _imp(_imp(A, B), _imp(A, C))),),
        "c_taut3": (_imp(_imp(JNot(A), JNot(B)), _imp(B, A)),),
        "c_app": (_imp(Assert(S, _imp(A, B)), _imp(Assert(T, A), Assert(App(S, T), B))),),
        "c_sum_l": (_imp(Assert(S, A), Assert(Sum(S, T), A)),),
        "c_sum_r": (_imp(Assert(T, A), Assert(Sum(S, T), A)),),
    }


DEFAULT_SCHEMES = _default_schemes()


def _kids(p):
    if isinstance(p, JNot):
        return (p.body,)
    if isinstance(p, Bang):
        return (p.inner,)
    if isinstance(p, (JAnd, App, Sum)):
        return (p.left, p.right)
    if isinstance(p, Assert):
        return (p.term, p.body)
    return ()


def _rebuild(p, kids):
    return type(p)(*kids) if kids else p


def _resolve(p, s):
    while isinstance(p, Meta) and p in s:
        p = s[p]
    return p


def _occurs(m, p, s):
    p = _resolve(p, s)
    if p == m:
        return True
    return any(_occurs(m, k, s) for k in _kids(p))


def unify(x, y, s):
    x, y = _resolve(x, s), _resolve(y, s)
    if x == y:
        return s
    if isinstance(y, Meta):
        x, y = y, x
    if isinstance(x, Meta):
        if _occurs(x, y, s):
            return None
        return {**s, x: y}
    if type(x) is not type(y):
        return None
    kx, ky = _kids(x), _kids(y)
    if not kx:
        return None  # distinct leaves
    for a, b in zip(kx, ky):
        s = unify(a, b, s)
        if s is None:
            return None
    return s


def _apply(p, s):
    p = _resolve(p, s)
    kids = _kids(p)
    return _rebuild(p, tuple(_apply(k, s) for k in kids)) if kids else p


def _shift(p, base, names):
    """Rename metas to base, base+1, ... in order of first occurrence."""
    if isinstance(p, Meta):
        if p not in names:
            names[p] = Meta(base + len(names))
        return names[p]
    kids = _kids(p)
    return _rebuild(p, tuple(_shift(k, base, names) for k in kids)) if kids else p


class EvidenceClosure:
    """Pattern sets E(t) for the terms of one atom, under the default
    constant specification."""

    def __init__(self, positives):
        self.hyps = {}
        for t, phi in positives:
            self.hyps.setdefault(t, []).append(phi)
        self.memo = {}

    def patterns(self, t):
        if t in self.memo:
            return self.memo[t]
        out = list(self.hyps.get(t, ()))
        if isinstance(t, Const):
            out += DEFAULT_SCHEMES.get(t.name, ())
        elif isinstance(t, Sum):
            out += self.patterns(t.left) + self.patterns(t.right)
        elif isinstance(t, App):
            for p in self.patterns(t.left):
                for q in self.patterns(t.right):
                    # rename apart: stored patterns number their metas from 0
                    p1 = _shift(p, 0, {})
                    q1 = _shift(q, 1000, {})
                    a, b = Meta(2000), Meta(2001)
                    s = unify(p1, _imp(a, b), {})
                    s = None if s is None else unify(a, q1, s)
                    if s is not None:
                        out.append(_shift(_apply(b, s), 0, {}))
        pats = list(dict.fromkeys(out))
        self.memo[t] = pats
        return pats

    def contains(self, t, phi) -> bool:
        return any(unify(p, phi, {}) is not None for p in self.patterns(t))


def atom_jsat(signs) -> bool:
    """True iff no negated assertion of the atom lies in the evidence
    closure generated by its positive assertions and the default
    constant specification."""
    pos = [(b.term, b.body) for b, v in signs.items() if v and isinstance(b, Assert)]
    closure = EvidenceClosure(pos)
    return not any(
        closure.contains(b.term, b.body)
        for b, v in signs.items()
        if not v and isinstance(b, Assert)
    )


# --- SAT models ---

def check_model(f, model):
    """Problems of a SAT model of f, as a list of strings (empty if none).

    ``model.worlds`` is a sequence of (atom, weight) pairs; an atom carries
    its ``basis`` and ``signs``.
    """
    problems = []
    if len({(a.basis, a.signs) for a, _ in model.worlds}) != len(model.worlds):
        problems.append("repeated atom")
    worlds = [(dict(zip(a.basis, a.signs)), w) for a, w in model.worlds]
    if sum((w for _, w in worlds), Fraction(0)) != 1:
        problems.append("mass is not 1")
    if any(w <= 0 for _, w in worlds):
        problems.append("non-positive weight")
    if len(worlds) > size_p(f):
        problems.append(f"{len(worlds)} worlds > size_p {size_p(f)}")
    bound = weight_bound(f)
    if any(rat_bits(w) > bound for _, w in worlds):
        problems.append(f"weight larger than {bound} bits")
    need = basics(f)
    if any(not need <= s.keys() for s, _ in worlds):
        problems.append("atom does not cover the formula's basis")
        return problems
    truth = {
        g: sum((w for s, w in worlds if holds(g.body, s)), Fraction(0)) >= g.threshold
        for g in walk(f)
        if isinstance(g, AtLeast)
    }
    if not p_holds(f, truth):
        problems.append("formula false under the model's measure")
    if not all(atom_jsat(s) for s, _ in worlds):
        problems.append("J-unsatisfiable world atom")
    return problems


# --- UNSAT oracle for random formulas ---

@dataclass(frozen=True)
class _Row:
    coeffs: tuple
    rel: object
    rhs: Fraction


@dataclass(frozen=True)
class _System:
    rows: tuple
    var_count: int


def oracle_sat(f, fm_feasible, rel) -> bool:
    """Satisfiability of f by truth tables and Fourier-Motzkin.

    Every assignment of truth values to the distinct P>= literals that
    makes f true is tried; its linear system has one weight per
    J-satisfiable atom over f's basis (judged by ``atom_jsat`` above) and
    is decided by ``fm_feasible``.  ``rel`` is the relation enum that
    ``fm_feasible`` reads (GE, LT, EQ members).
    """
    occs = list(dict.fromkeys(g for g in walk(f) if isinstance(g, AtLeast)))
    basis = list(basics(f))
    atoms = []
    for bits in itertools.product((True, False), repeat=len(basis)):
        signs = dict(zip(basis, bits))
        if atom_jsat(signs):
            atoms.append(signs)
    total = _Row((Fraction(1),) * len(atoms), rel.EQ, Fraction(1))
    for bits in itertools.product((True, False), repeat=len(occs)):
        truth = dict(zip(occs, bits))
        if not p_holds(f, truth):
            continue
        rows = [total]
        for g, bit in truth.items():
            coeffs = tuple(Fraction(holds(g.body, a)) for a in atoms)
            rows.append(_Row(coeffs, rel.GE if bit else rel.LT, g.threshold))
        if fm_feasible(_System(tuple(rows), len(atoms))):
            return True
    return False


def check_verdict(expect_sat, f, model, fm_feasible, rel):
    """Problems of pjsat's answer for f: a model (SAT) or None (UNSAT).

    A SAT answer is proven by its model.  An UNSAT answer is checked
    against the verdict known by construction, or, where none is known,
    against ``oracle_sat``.
    """
    if model is not None:
        problems = check_model(f, model)
        if expect_sat is False:
            problems.append("SAT answer for a formula UNSAT by construction")
        return problems
    if expect_sat is True:
        return ["UNSAT answer for a formula SAT by construction"]
    if expect_sat is None and oracle_sat(f, fm_feasible, rel):
        return ["UNSAT answer where the oracle finds SAT"]
    return []


# --- self-test: the checks must reject broken answers ---

@dataclass(frozen=True)
class _Atom:
    basis: tuple
    signs: tuple


@dataclass(frozen=True)
class _Model:
    worlds: tuple


def self_test(cases, fm_feasible, rel):
    """Feed check_verdict broken answers built from the first SAT case and
    the first UNSAT case of ``cases`` ((expect_sat, formula, model)
    triples): a perturbed weight, a dropped world, a J-unsatisfiable world
    atom and both flipped verdicts.  Each must be rejected, the atom for
    the reason expected.  Returns the broken answers that were accepted."""
    sat = next((c for c in cases if c[2] is not None), None)
    unsat = next((c for c in cases if c[2] is None), None)
    if sat is None:
        return ["self-test: no SAT answer to break"]
    expect, f, model = sat
    worlds = list(model.worlds)
    atom0, w0 = worlds[0]

    perturbed = [(atom0, w0 + Fraction(1, 7))] + worlds[1:]
    forced = Assert(Const("c_taut1"), _imp(Prop(1), _imp(Prop(1), Prop(1))))
    unsat_atom = [
        (_Atom(a.basis + (forced,), a.signs + (i > 0,)), w)
        for i, (a, w) in enumerate(worlds)
    ]
    trials = [
        ("a perturbed weight", expect, f, _Model(tuple(perturbed)), None),
        ("a dropped world", expect, f, _Model(tuple(worlds[:-1])), None),
        ("a J-unsatisfiable world atom", expect, f, _Model(tuple(unsat_atom)),
         "J-unsatisfiable world atom"),
        ("a SAT formula answered UNSAT", expect, f, None, None),
    ]
    if unsat is not None:
        trials.append(("an UNSAT formula answered SAT", unsat[0], unsat[1], model, None))
    problems = []
    for label, exp, g, answer, reason in trials:
        found = check_verdict(exp, g, answer, fm_feasible, rel)
        if not found or (reason is not None and reason not in found):
            problems.append(f"self-test: the checks accept {label}")
    return problems
