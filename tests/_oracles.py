"""Independent oracles and random generators for the test suite.

Nothing here reuses the solution paths it checks: feasibility is decided
by Fourier-Motzkin elimination, formula evaluation by exhaustive truth
tables, and atom satisfiability by bounded forward saturation of the
evidence closure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from pjsat.cspec import FMeta, TMeta, scheme_named
from pjsat.linrat import Rel
from pjsat.syntax import (
    App,
    Assert,
    AtLeast,
    Bang,
    Const,
    JAnd,
    JNot,
    PNot,
    Prop,
    Sum,
    Var,
    preorder,
    subf,
)


# --- Fourier-Motzkin feasibility ---

def fm_feasible(system) -> bool:
    """Exact Fourier-Motzkin elimination over x >= 0.

    Identical columns are merged first (their variables only ever appear
    with the same coefficients, so summing them preserves feasibility of
    a non-negative system exactly).
    """
    n = system.var_count
    cons = []
    for row in system.rows:
        c = tuple(row.coeffs)
        r = row.rhs
        if row.rel is Rel.EQ:
            cons.append((c, False, r))
            cons.append((tuple(-x for x in c), False, -r))
        elif row.rel is Rel.LE:
            cons.append((c, False, r))
        elif row.rel is Rel.GE:
            cons.append((tuple(-x for x in c), False, -r))
        else:
            cons.append((c, True, r))

    # merge identical columns
    profiles = {}
    for j in range(n):
        key = tuple(c[j] for c, _, _ in cons)
        profiles.setdefault(key, []).append(j)
    groups = list(profiles.values())
    cons = [
        (tuple(c[g[0]] for g in groups), strict, r) for c, strict, r in cons
    ]
    k = len(groups)
    for j in range(k):
        e = [Fraction(0)] * k
        e[j] = Fraction(-1)
        cons.append((tuple(e), False, Fraction(0)))

    def constant_ok(con):
        c, strict, r = con
        return r > 0 if strict else r >= 0

    def normalize(con):
        # scale by a positive rational so duplicates and multiples collapse
        c, strict, r = con
        nums = [abs(v.numerator) for v in c if v != 0] + (
            [abs(r.numerator)] if r != 0 else []
        )
        dens = [v.denominator for v in c] + [r.denominator]
        scale = Fraction(math.lcm(*dens), math.gcd(*nums) if nums else 1)
        return (tuple(v * scale for v in c), strict, r * scale)

    remaining = list(range(k))
    while remaining:
        var = min(
            remaining,
            key=lambda j: sum(1 for c in cons if c[0][j] > 0)
            * sum(1 for c in cons if c[0][j] < 0),
        )
        remaining.remove(var)
        zero, pos, neg = [], [], []
        for con in cons:
            a = con[0][var]
            if a == 0:
                zero.append(con)
            elif a > 0:
                pos.append(con)
            else:
                neg.append(con)
        new = set(zero)
        for cp, sp, rp in pos:
            ap = cp[var]
            for cn, sn, rn in neg:
                an = cn[var]
                coeffs = tuple(-an * x + ap * y for x, y in zip(cp, cn))
                con = normalize((coeffs, sp or sn, -an * rp + ap * rn))
                if all(v == 0 for v in con[0]):
                    if not constant_ok(con):
                        return False
                else:
                    new.add(con)
        cons = list(new)

    return all(constant_ok(con) for con in cons)


# --- truth-table evaluation ---

def tt_eval(phi, atom) -> bool:
    """Evaluate phi by enumerating all assignments over the atom's basis
    and picking the unique one satisfying the atom's literals."""
    basis = list(atom.basis)
    matches = []
    for bits in itertools.product((True, False), repeat=len(basis)):
        assign = dict(zip(basis, bits))
        if all(assign[b] == s for b, s in atom.literals()):
            matches.append(assign)
    assert len(matches) == 1
    assign = matches[0]

    def go(f):
        if isinstance(f, (Prop, Assert)):
            return assign[f]
        if isinstance(f, JNot):
            return not go(f.body)
        return go(f.left) and go(f.right)

    return go(phi)


# --- probability-level measures ---

def p_occurrences(f):
    """The distinct AtLeast occurrences of f, in preorder."""
    return list(dict.fromkeys(g for g in preorder(f) if isinstance(g, AtLeast)))


def p_size(f) -> int:
    """size_p by its recursive definition: 2 per literal, 1 per ~ and &."""
    if isinstance(f, AtLeast):
        return 2
    if isinstance(f, PNot):
        return 1 + p_size(f.body)
    return p_size(f.left) + 1 + p_size(f.right)


# --- bounded forward-saturation atom satisfiability ---

def _pattern_metas(pat, out):
    if isinstance(pat, (FMeta, TMeta)):
        out.add(pat)
    elif isinstance(pat, (Prop, Const, Var)):
        pass
    elif isinstance(pat, (JNot, Bang)):
        _pattern_metas(getattr(pat, "body", None) or pat.inner, out)
    elif isinstance(pat, (JAnd, App, Sum)):
        _pattern_metas(pat.left, out)
        _pattern_metas(pat.right, out)
    elif isinstance(pat, Assert):
        _pattern_metas(pat.term, out)
        _pattern_metas(pat.body, out)
    return out


def _instantiate(pat, binding):
    if isinstance(pat, (FMeta, TMeta)):
        return binding[pat]
    if isinstance(pat, (Prop, Const, Var)):
        return pat
    if isinstance(pat, JNot):
        return JNot(_instantiate(pat.body, binding))
    if isinstance(pat, JAnd):
        return JAnd(_instantiate(pat.left, binding), _instantiate(pat.right, binding))
    if isinstance(pat, Assert):
        return Assert(_instantiate(pat.term, binding), _instantiate(pat.body, binding))
    if isinstance(pat, App):
        return App(_instantiate(pat.left, binding), _instantiate(pat.right, binding))
    if isinstance(pat, Sum):
        return Sum(_instantiate(pat.left, binding), _instantiate(pat.right, binding))
    if isinstance(pat, Bang):
        return Bang(_instantiate(pat.inner, binding))
    raise TypeError(pat)


def _subterms(t, out):
    out.add(t)
    if isinstance(t, (App, Sum)):
        _subterms(t.left, out)
        _subterms(t.right, out)
    elif isinstance(t, Bang):
        _subterms(t.inner, out)
    return out


def _closure(pos, cs, terms, pool_f, pool_t):
    ev = {t: set() for t in terms}
    derived = set()
    for t, g in pos:
        ev[t].add(g)
    pool_f = sorted(pool_f, key=str)
    pool_t = sorted(pool_t, key=str)
    for t in terms:
        if isinstance(t, Const):
            for sname in cs.schemes_of(t.name):
                pat = scheme_named(sname).pattern
                metas = sorted(_pattern_metas(pat, set()), key=lambda m: m.name)
                pools = [
                    pool_f if isinstance(m, FMeta) else pool_t for m in metas
                ]
                for combo in itertools.product(*pools):
                    ev[t].add(_instantiate(pat, dict(zip(metas, combo))))
            for cname, psi in cs.finite:
                if cname == t.name:
                    ev[t].add(psi)
    changed = True
    while changed:
        changed = False
        for t in terms:
            if isinstance(t, App):
                for f in list(ev[t.left]):
                    if (
                        isinstance(f, JNot)
                        and isinstance(f.body, JAnd)
                        and isinstance(f.body.right, JNot)
                    ):
                        a, b = f.body.left, f.body.right.body
                        if a in ev[t.right] and b not in ev[t]:
                            ev[t].add(b)
                            derived.add(b)
                            changed = True
            elif isinstance(t, Sum):
                extra = (ev[t.left] | ev[t.right]) - ev[t]
                if extra:
                    ev[t] |= extra
                    changed = True
    return ev, derived


def jsat_oracle(atom, cs, rounds=2) -> bool:
    """Atom satisfiability by bounded forward saturation.

    Scheme instances are drawn from a candidate pool of subformulas and
    subterms; the pool is enriched from the computed evidence sets for a
    fixed number of rounds.
    """
    pos, neg = [], []
    for basic, sign in atom.literals():
        if isinstance(basic, Assert):
            (pos if sign else neg).append((basic.term, basic.body))
    terms = set()
    pool_f = set()
    pool_t = set()
    for t, g in pos + neg:
        _subterms(t, terms)
        pool_f |= {f for f in subf(g) if not isinstance(f, (Const, Var))}
    pool_t |= terms
    for f in set(pool_f):
        for sf in subf(f):
            if isinstance(sf, Assert):
                _subterms(sf.term, pool_t)
    ev = {}
    for _ in range(rounds):
        ev, derived = _closure(pos, cs, sorted(terms, key=str), pool_f, pool_t)
        # enrich only from application conclusions: enriching from the raw
        # scheme instances makes the candidate pool blow up without ever
        # contributing a binding a chained derivation could not reach
        new_pool = set(pool_f)
        for f in derived:
            new_pool |= {
                g for g in subf(f) if not isinstance(g, (Const, Var))
            }
        if new_pool == pool_f:
            break
        pool_f = new_pool
    return not any(g in ev[s] for s, g in neg)
