"""Seeded random generators for formulas, terms, atoms, models and systems."""

from __future__ import annotations

from fractions import Fraction

from pjsat.linrat import LinearSystem, Rel, Row
from pjsat.solver import SmallModel
from pjsat.syntax import (
    App,
    Assert,
    AtLeast,
    Atom,
    Bang,
    Const,
    JAnd,
    JNot,
    PAnd,
    PNot,
    Prop,
    Sum,
    Var,
    basis_of,
    jimp,
)

DEFAULT_CONSTS = ("s", "t", "u", "c_app", "c_sum_l", "c_sum_r")


def rand_term(rng, depth=3, consts=DEFAULT_CONSTS):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.75:
            return Const(rng.choice(consts))
        return Var(rng.randint(1, 3))
    kind = rng.random()
    if kind < 0.45:
        return App(rand_term(rng, depth - 1, consts), rand_term(rng, depth - 1, consts))
    if kind < 0.85:
        return Sum(rand_term(rng, depth - 1, consts), rand_term(rng, depth - 1, consts))
    return Bang(rand_term(rng, depth - 1, consts))


def rand_jformula(rng, depth=3, consts=DEFAULT_CONSTS, props=3):
    if depth == 0 or rng.random() < 0.3:
        return Prop(rng.randint(1, props))
    kind = rng.random()
    if kind < 0.3:
        return JNot(rand_jformula(rng, depth - 1, consts, props))
    if kind < 0.65:
        return JAnd(
            rand_jformula(rng, depth - 1, consts, props),
            rand_jformula(rng, depth - 1, consts, props),
        )
    return Assert(
        rand_term(rng, min(depth - 1, 2), consts),
        rand_jformula(rng, depth - 1, consts, props),
    )


THRESHOLDS = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
)


def rand_pformula(rng, depth=3, body_depth=2, consts=DEFAULT_CONSTS):
    if depth == 0 or rng.random() < 0.4:
        return AtLeast(
            rng.choice(THRESHOLDS), rand_jformula(rng, body_depth, consts, props=2)
        )
    if rng.random() < 0.45:
        return PNot(rand_pformula(rng, depth - 1, body_depth, consts))
    return PAnd(
        rand_pformula(rng, depth - 1, body_depth, consts),
        rand_pformula(rng, depth - 1, body_depth, consts),
    )


def rand_atom_for(rng, phi_or_basis):
    """Random sign assignment over a formula's basis (or an explicit one)."""
    basis = (
        phi_or_basis
        if isinstance(phi_or_basis, tuple)
        else basis_of(phi_or_basis)
    )
    return Atom(basis, tuple(rng.random() < 0.5 for _ in basis))


# denominators of random model weights, two of them past 2^64
WEIGHT_DENS = (1, 2, 3, 7, 2**64 + 13, 3**41)


def rand_model(rng, basis, max_worlds=4):
    """A SmallModel over basis with up to max_worlds worlds, whose atoms
    may repeat.  Its weights are equal shares of 1, or positive weights
    scaled to sum to 1, or any weights, zero, negative and sums other
    than 1 among them, with denominators from WEIGHT_DENS."""
    k = rng.randint(0, max_worlds)
    atoms = [Atom(basis, tuple(rng.random() < 0.5 for _ in basis)) for _ in range(k)]
    kind = rng.randrange(3)
    if kind == 0:
        weights = [Fraction(1, k)] * k if k else []
    elif kind == 1:
        parts = [Fraction(rng.randint(1, 9), rng.choice(WEIGHT_DENS)) for _ in range(k)]
        weights = [w / sum(parts) for w in parts]
    else:
        weights = [Fraction(rng.randint(-2, 4), rng.choice(WEIGHT_DENS)) for _ in range(k)]
    return SmallModel(tuple(zip(atoms, weights)), basis)


def trap_jformula(rng, consts=("s", "t")):
    """Application-closure traps: s:(a->b) & t:a & ~(s.t):b and variants."""
    s = Const(rng.choice(consts))
    t = Const(rng.choice(consts))
    a = rand_jformula(rng, 1, props=2)
    b = rand_jformula(rng, 1, props=2)
    kind = rng.randrange(3)
    if kind == 0:
        return JAnd(
            JAnd(Assert(s, jimp(a, b)), Assert(t, a)),
            JNot(Assert(App(s, t), b)),
        )
    if kind == 1:
        return JAnd(Assert(s, a), JNot(Assert(Sum(s, t), a)))
    return JAnd(
        JAnd(Assert(s, jimp(a, b)), Assert(t, a)), Assert(App(s, t), b)
    )


_TAUT1, _TAUT2, _S, _T = (Const(c) for c in ("c_taut1", "c_taut2", "s", "t"))
CS_TERMS = (
    _TAUT1, _TAUT2, _S, App(_TAUT1, _TAUT1), App(App(_TAUT2, _TAUT1), _TAUT1),
    Sum(_TAUT1, _TAUT2), Sum(_TAUT1, _S), App(Sum(_TAUT1, _TAUT2), Sum(_TAUT1, _TAUT2)),
    App(_S, _T), App(_TAUT1, _S),
)


def cs_assert_jformula(rng, assertions=3):
    """A conjunction of assertions and negated assertions over terms built
    from the default constant specification's TAUT1 and TAUT2 constants
    and from s and t, with bodies that are random formulas or the
    tautologies a -> (b -> a) and a -> a: some assertions are derivable
    from the constant specification alone, some only from other
    positives, some not at all."""
    a, b = rand_jformula(rng, 1, props=2), rand_jformula(rng, 1, props=2)
    bodies = (a, b, jimp(a, jimp(b, a)), jimp(b, jimp(a, b)), jimp(a, a), jimp(a, b))
    phi = None
    for _ in range(assertions):
        g = Assert(rng.choice(CS_TERMS), rng.choice(bodies))
        if rng.random() < 0.3:
            g = JNot(g)
        phi = g if phi is None else JAnd(phi, g)
    return phi


def rand_system_with_point(rng, max_rows=5, max_vars=6):
    """Random integer-coefficient system plus a non-negative point that
    satisfies it by construction."""
    n = rng.randint(1, max_vars)
    r = rng.randint(1, max_rows)
    x = [Fraction(rng.choice((0, 0, 1, 1, 2))) for _ in range(n)]
    rows = []
    for _ in range(r):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        value = sum(c * v for c, v in zip(coeffs, x))
        rel = rng.choice((Rel.EQ, Rel.LE, Rel.GE, Rel.LT))
        if rel is Rel.EQ:
            rhs = value
        elif rel is Rel.LE:
            rhs = value + rng.choice((0, 1))
        elif rel is Rel.GE:
            rhs = value - rng.choice((0, 1))
        else:
            rhs = value + 1
        rows.append(Row(tuple(coeffs), rel, rhs))
    return LinearSystem(tuple(rows), n), tuple(x)


def rand_feasibility_system(rng, max_rows=6, max_vars=4):
    """Random small system for feasible-vs-oracle comparisons, roughly
    half feasible."""
    n = rng.randint(1, max_vars)
    r = rng.randint(1, max_rows)
    rows = []
    for _ in range(r):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        rel = rng.choice((Rel.EQ, Rel.LE, Rel.GE, Rel.LT))
        rhs = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        rows.append(Row(coeffs, rel, rhs))
    return LinearSystem(tuple(rows), n)
