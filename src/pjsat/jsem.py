"""Justification semantics at the atom level.

An atom fixes a sign for every basic subformula of some formula.  Whether
the atom is satisfiable by a basic evaluation comes down to a closure
question: the positive assertions together with the constant specification
generate a minimal evidence assignment, closed under the application and
sum conditions, and the atom is satisfiable iff none of its negated
assertions falls inside that closure.  Membership is decided by a
goal-directed search over the term structure, with first-order unification
over the two-sorted pattern language (formula and term metavariables).
A constant's formulas are ``ConstantSpec.patterns``: each scheme's shared
pattern, which ``cspec.unify_scheme`` unifies with the goal renamed apart
from every other use, building only the pieces that goal metavariables
are bound to.  Each application step's antecedent is a fresh
metavariable, which equals only itself.

The filter is compiled once per formula (``jsat_test``): the search for a
negated assertion reads only the positives on the terms it visits, so
each verdict is decided once per sign pattern of those assertions and
reused across every atom of the formula.  The same filter names the
assertions the constant specification derives on its own (CS-forced):
no J-satisfiable atom negates one, so ``jformula_sat`` passes them to
``syntax.assignments`` as positions it holds true, and ``solver.solve_sat``
partitions only the sign tuples that hold them true.
"""

from __future__ import annotations

from .cspec import ConstantSpec, FMeta, unify, unify_scheme
from .syntax import (
    App,
    Assert,
    Atom,
    Const,
    JAnd,
    JNot,
    Sum,
    basis_of,
    DEFAULT_ATOM_CAP,
    assignments,
    truth_test,
    within_cap,
)


class BasisMismatchError(ValueError):
    """A formula mentions a basic subformula outside the atom's basis."""


def derives(positives, cs: ConstantSpec, t, phi, subst=None):
    """Yield every substitution under which phi belongs to the minimal
    evidence set of term t generated by the positive assertions, given as
    (term, body) pairs, and the constant spec cs.

    Rules: (hyp) positives on exactly t; (cs) then ``cs.patterns`` of a
    constant; (app) t = u.v via an implication with a fresh antecedent;
    (sum) either summand.  '!' and variables admit only (hyp).
    """
    if subst is None:
        subst = {}
    for s, gamma in positives:
        if s == t:
            s2 = unify(gamma, phi, subst)
            if s2 is not None:
                yield s2
    if isinstance(t, Const):
        for pattern in cs.patterns(t.name):
            s2 = unify_scheme(pattern, phi, subst, {})
            if s2 is not None:
                yield s2
    if isinstance(t, App):
        antecedent = FMeta()
        implication = JNot(JAnd(antecedent, JNot(phi)))
        for s1 in derives(positives, cs, t.left, implication, subst):
            yield from derives(positives, cs, t.right, antecedent, s1)
    elif isinstance(t, Sum):
        yield from derives(positives, cs, t.left, phi, subst)
        yield from derives(positives, cs, t.right, phi, subst)


def jsat_test(basis, cs: ConstantSpec):
    """Compile J-satisfiability over a basis into a predicate over sign
    tuples: True iff no negated assertion is forced by the minimal closure
    of the positive assertions.  Propositional literals never conflict.

    A negated ``t:phi`` at position j is forced or not depending only on
    the signs of its reads, the assertions whose term ``derives`` visits
    from t: t and, through application and sum (not '!'), its parts.  The
    reads are found once per distinct term, by a walk with no recursion.
    The predicate decides each (j, signs at j's reads) once, from only
    those positives, and remembers the verdict for as long as the
    predicate lives.

    ``test.cs_forced()`` lazily yields the positions of the assertions cs
    derives with no positives, each decided as the memo entry of its
    all-reads-negative key.  ``derives`` is monotone in the positives, so
    every tuple that negates one fails the predicate: a walk may hold
    them True.
    """
    asserts = [(j, b) for j, b in enumerate(basis) if isinstance(b, Assert)]
    reads_of = {}
    checks = []
    for j, b in asserts:
        reads = reads_of.get(b.term)
        if reads is None:
            visited, stack = set(), [b.term]
            while stack:
                t = stack.pop()
                if t not in visited:
                    visited.add(t)
                    if isinstance(t, (App, Sum)):
                        stack += (t.left, t.right)
            reads = reads_of[b.term] = tuple(i for i, c in asserts if c.term in visited)
        checks.append((j, b, reads))
    memo = {}

    def forced(j, b, reads, read_signs):
        """Whether cs derives b from the positives among j's reads."""
        key = (j, read_signs)
        verdict = memo.get(key)
        if verdict is None:
            positives = tuple(
                (basis[i].term, basis[i].body) for i, s in zip(reads, read_signs) if s
            )
            derivation = next(derives(positives, cs, b.term, b.body), None)
            verdict = memo[key] = derivation is not None
        return verdict

    def test(signs):
        for j, b, reads in checks:
            if not signs[j] and forced(j, b, reads, tuple([signs[i] for i in reads])):
                return False
        return True

    def cs_forced():
        for j, b, reads in checks:
            if forced(j, b, reads, (False,) * len(reads)):
                yield j

    test.cs_forced = cs_forced
    return test


def atom_jsat(atom: Atom, cs: ConstantSpec) -> bool:
    """Is the atom satisfiable by some basic evaluation under cs?"""
    return jsat_test(atom.basis, cs)(atom.signs)


def eval_under_atom(phi, atom: Atom) -> bool:
    """Truth value of phi under the atom's literal assignment."""
    try:
        holds = truth_test(phi, {b: i for i, b in enumerate(atom.basis)})
    except KeyError as exc:
        raise BasisMismatchError(
            f"basic subformula not in atom basis: {exc.args[0]}"
        ) from None
    return holds(atom.signs)


def jformula_sat(alpha, cs: ConstantSpec, cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Satisfiability of a justification formula: is some sign tuple that
    satisfies alpha and holds the CS-forced assertions true J-satisfiable?
    The walk drops every prefix of signs that already falsifies alpha."""
    basis = within_cap(basis_of(alpha), cap)
    holds = truth_test(alpha, {b: i for i, b in enumerate(basis)})
    jsat = jsat_test(basis, cs)
    return any(map(jsat, assignments(holds, len(basis), jsat.cs_forced())))
