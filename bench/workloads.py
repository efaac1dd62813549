"""Formula texts of the four benchmark workloads, made from a seed.

A workload is a list of ``Instance`` values: the formula text, the verdict
known apart from the solver (None where only the oracle in checks.py can
tell), and whether it is the workload's named largest instance.

In every workload the seed only renames the propositions, keeping their
order and their two-digit width, so every seed asks the same questions of
the same size in different words.  In ``small`` the questions are random
formulas from a fixed draw (SMALL_DRAW), in fixed quotas per basis size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    expect_sat: bool | None  # None: decided by the oracle in checks.py
    largest: bool = False


def _props(rng, n):
    """n proposition names p10..p99, drawn by the seed, in ascending order."""
    return [f"p{i}" for i in sorted(rng.sample(range(10, 100), n))]


# --- atoms: 2^b atoms, half J-satisfiable, one LP column each ---

def basis_family(p, b, core):
    """B(b): b-3 propositions plus three assertions.  B(b)+U adds a
    two-literal core (P>=1 ~p1 against P>=1/2 p1) that makes it UNSAT.
    For b >= 8 this is the family of ROADMAP.md; below 8 only the
    disjunctions over existing propositions (i <= b-4) are kept."""
    lits = [f"P>=1/{i + 2} ({p[i - 1]} | {p[i]})" for i in range(1, min(5, b - 3))]
    lits.append("P>=0 (" + " & ".join(p[: b - 3]) + ")")
    lits.append(f"P>=1/3 (s:{p[0]} -> c_taut1:({p[0]} -> ({p[1]} -> {p[0]})))")
    lits.append(f"~P>=1/4 (s.t):{p[1]}")
    if core:
        lits.append(
            f"~(~P>=1 ~{p[0]} & ~P>=1 ~{p[1]}) & P>=1/2 {p[0]} & P>=1/2 {p[1]}"
        )
    return " & ".join(lits)


ATOMS = ((6, False), (6, True), (7, False))
ATOMS_LARGEST = (6, True)


def atoms(seed):
    p = _props(random.Random(seed), max(b for b, _ in ATOMS) - 3)
    return [
        Instance(
            f"B({b})" + ("+U" if core else ""),
            basis_family(p, b, core),
            not core,
            (b, core) == ATOMS_LARGEST,
        )
        for b, core in ATOMS
    ]


# --- plevel: 2^k P-level assignments, many small LPs ---

def or_family(p, m, core):
    """O(m): m P-level disjunctions plus P>=1 ~p1, ~p3, ~p5; the closing
    P>=1/2 p1 (the core) makes it UNSAT."""
    lits = [f"~(~P>=1/2 {p[2 * i]} & ~P>=1/2 {p[2 * i + 1]})" for i in range(m)]
    lits += [f"P>=1 ~{p[0]}", f"P>=1 ~{p[2]}", f"P>=1 ~{p[4]}"]
    if core:
        lits.append(f"P>=1/2 {p[0]}")
    return " & ".join(lits)


def wide_family(p, k, core):
    """W(k): k distinct lower bounds over p1 | p2 and p1 & ~p2; the point
    mass on p1 & ~p2 meets them all.  The core ~P>=1/3 (p1 | p2) contradicts
    the bound k/(k+1) >= 1/3 on one of the two bodies."""
    bodies = (f"({p[0]} | {p[1]})", f"({p[0]} & ~{p[1]})")
    lits = [f"P>={j}/{k + 1} {bodies[j % 2]}" for j in range(1, k + 1)]
    if core:
        lits.append(f"~P>=1/3 {bodies[0]}")
    return " & ".join(lits)


PLEVEL = (
    ("O", 1, True), ("O", 1, False),
    ("W", 8, False), ("W", 8, True), ("W", 9, False), ("W", 9, True), ("W", 10, True),
)
PLEVEL_LARGEST = ("W", 10, True)


def plevel(seed):
    p = _props(random.Random(seed), 6)
    out = []
    for fam, size, core in PLEVEL:
        build = or_family if fam == "O" else wide_family
        out.append(
            Instance(
                f"{fam}({size})" + ("+U" if core else ""),
                build(p, size, core),
                not core,
                (fam, size, core) == PLEVEL_LARGEST,
            )
        )
    return out


# --- evidence: deep evidence terms, the J-filter's derivation search ---

PHIS = (
    "({0} -> {0})",
    "({0} -> ({1} -> {0}))",
    "({1} -> ({0} -> {1}))",
    "(({0} -> {1}) -> ({0} -> {1}))",
    "({1} -> {1})",
)


def evidence_term(d):
    """T_d: d-fold left-nested application of (c_taut1+c_taut2)."""
    t = "(c_taut1+c_taut2)"
    for _ in range(d):
        t = f"({t}.(c_taut1+c_taut2))"
    return t


def evidence_family(p, d, k, core):
    """E(d,k): k lower bounds P>=1/(i+2) T_d:phi_i joined with
    P>=1/2 (s:p1 & t:p2).  The core asks for mass 1/2 off an assertion
    the default constant specification derives (the I combinator)."""
    t = evidence_term(d)
    lits = [f"P>=1/{i + 2} {t}:{PHIS[i].format(*p)}" for i in range(k)]
    lits.append(f"P>=1/2 (s:{p[0]} & t:{p[1]})")
    if core:
        lits.append(f"P>=1/2 ~((c_taut2.c_taut1).c_taut1):({p[0]} -> {p[0]})")
    return " & ".join(lits)


EVIDENCE = (
    (2, 2, False), (2, 2, True), (2, 3, False), (2, 3, True), (4, 3, False), (4, 3, True),
)
EVIDENCE_LARGEST = (4, 3, True)


def evidence(seed):
    p = _props(random.Random(seed), 2)
    return [
        Instance(
            f"E({d},{k})" + ("+U" if core else ""),
            evidence_family(p, d, k, core),
            not core,
            (d, k, core) == EVIDENCE_LARGEST,
        )
        for d, k, core in EVIDENCE
    ]


# --- small: seeded random formulas, basis <= 6, P-depth <= 3 ---

THRESHOLDS = ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1")
CONSTS = ("s", "t", "u", "c_app", "c_sum_l", "c_sum_r")


def _term(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.75:
            return rng.choice(CONSTS)
        return f"x{rng.randint(1, 3)}"
    kind = rng.random()
    if kind < 0.45:
        return f"({_term(rng, depth - 1)}.{_term(rng, depth - 1)})"
    if kind < 0.85:
        return f"({_term(rng, depth - 1)}+{_term(rng, depth - 1)})"
    return "!" + _term(rng, depth - 1)


def _body(rng, depth, p, basics):
    """A justification formula over p[0], p[1], printed as a factor.  Its
    propositions and assertions are added to ``basics`` by their text,
    which names each one uniquely since nothing here uses -> or |."""
    if depth == 0 or rng.random() < 0.3:
        text = rng.choice(p)
    else:
        kind = rng.random()
        if kind < 0.3:
            return "~" + _body(rng, depth - 1, p, basics)
        if kind < 0.65:
            left = _body(rng, depth - 1, p, basics)
            return f"({left} & {_body(rng, depth - 1, p, basics)})"
        term = _term(rng, min(depth - 1, 2))
        text = f"{term}:{_body(rng, depth - 1, p, basics)}"
    basics.add(text)
    return text


def _pformula(rng, depth, p, basics, literals):
    """A probability formula; its distinct P>= literals go to ``literals``."""
    if depth == 0 or rng.random() < 0.4:
        text = f"P>={rng.choice(THRESHOLDS)} {_body(rng, 2, p, basics)}"
        literals.add(text)
        return text
    if rng.random() < 0.45:
        return "~" + _pformula(rng, depth - 1, p, basics, literals)
    left = _pformula(rng, depth - 1, p, basics, literals)
    return f"({left} & {_pformula(rng, depth - 1, p, basics, literals)})"


def _trap(rng, p, sat):
    """An application-closure trap.  (s.t):b holds wherever s:(a -> b) and
    t:a do, and (t+s):a wherever t:a does; only the J-filtered atoms know
    this.  So the trap is SAT iff y < w and x + y - 1 < z, which picks the
    thresholds for the verdict asked for.  Basis 6."""
    s, t = rng.sample(("s", "t", "u"), 2)
    a, b = rng.sample(p, 2)
    a = rng.choice(("", "~")) + a
    while True:
        x, y, z, w = (rng.choice(THRESHOLDS[1:]) for _ in range(4))
        fx, fy, fz, fw = (Fraction(v) for v in (x, y, z, w))
        if (fy < fw and fx + fy - 1 < fz) == sat:
            break
    return (
        f"P>={x} {s}:({a} -> {b}) & P>={y} {t}:{a} & ~P>={z} ({s}.{t}):{b}"
        f" & ~P>={w} ({t}+{s}):{a}"
    )


# (basis size, distinct P>= literals): count.  The proportions follow the
# unconstrained generator's; fixing them keeps the cost of a round steady
# across seeds.
SMALL_QUOTAS = {
    (1, 1): 50, (1, 2): 10, (1, 3): 2,
    (2, 1): 34, (2, 2): 18, (2, 3): 9, (2, 4): 4,
    (3, 1): 17, (3, 2): 14, (3, 3): 10, (3, 4): 5,
    (4, 2): 10, (4, 3): 6, (4, 4): 3,
    (5, 3): 3, (5, 4): 2,
    (6, 4): 2,
}
# The draw of the formulas, fixed so that every seed asks the same questions:
# with a draw per seed, decide_s spread by 18-20% over ten seeds.
SMALL_DRAW = 0
# Random formulas with at most this many literals get an UNSAT companion.
SMALL_COMPANION_LITERALS = 2
SMALL_TRAPS = 10
SMALL_LARGEST = (
    "P>=1/2 s:({0} -> {1}) & P>=1/2 t:{0} & ~P>=1/3 (s.t):{1}"
    " & ~P>=1/4 (t+s):{0}"
)


def small(seed):
    """Random formulas in fixed quotas (SMALL_QUOTAS), the small ones each
    followed by an UNSAT companion; then SAT and UNSAT traps, and the named
    largest instance, which is UNSAT because (t+s):p1 holds wherever t:p1
    does.

    The companion of G is (G) & P>=1 b & P>=1/2 ~b for a basic formula b
    of G: no measure gives b mass 1 and ~b mass 1/2, so the LP of every
    disjunct of G must be refuted.  Companions fix most of the workload's
    UNSAT time, which random formulas alone (about 10% UNSAT) leave to the
    draw; above two literals their cost grows too uneven to keep steady."""
    p = _props(random.Random(seed), 2)
    rng = random.Random(SMALL_DRAW)
    left = dict(SMALL_QUOTAS)
    out = []
    while any(left.values()):
        basics, literals = set(), set()
        text = _pformula(rng, 3, p, basics, literals)
        cell = (len(basics), len(literals))
        if left.get(cell):
            left[cell] -= 1
            b = rng.choice(sorted(basics))
            name = f"r{len(out)}"
            out.append(Instance(name, text, None))
            if len(literals) <= SMALL_COMPANION_LITERALS:
                out.append(Instance(name + "-", f"({text}) & P>=1 {b} & P>=1/2 ~{b}", False))
    for i in range(SMALL_TRAPS):
        out.append(Instance(f"trap{i}+", _trap(rng, p, True), True))
        out.append(Instance(f"trap{i}-", _trap(rng, p, False), False))
    out.append(Instance("largest", SMALL_LARGEST.format(*p), False, True))
    return out


WORKLOADS = {"small": small, "atoms": atoms, "plevel": plevel, "evidence": evidence}
