"""Independent oracles and random generators for the test suite.

Nothing here reuses the solution paths it checks: feasibility is decided
by Fourier-Motzkin elimination, formula evaluation by exhaustive truth
tables, atom satisfiability by bounded forward saturation of the
evidence closure, parsing by the earlier tokenizer and parser, which
backtrack by exception, the parser's token scan by the earlier scan with
its length check, unification by the earlier recursive unifier,
the solver's choice of tableau rows by presolve rules written out on
their own, the clash table by those rules and a test of every pair
of rows, and the small-model certificate's measures and weight checks
by ``Fraction`` arithmetic over truth tables.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

from pjsat.cspec import FMeta, TMeta, scheme_named
from pjsat.linrat import Rel, Row
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
    ParseError,
    Prop,
    Sum,
    Var,
    jimp,
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


# --- the tableau rows, by presolve rules ---

HOLDS = {Rel.EQ: operator.eq, Rel.LE: operator.le, Rel.GE: operator.ge, Rel.LT: operator.lt}


def ref_presolve(rows):
    """The rows that become tableau rows, in order, or None when a row the
    equalities decide fails, by three presolve rules (Andersen and
    Andersen, Math. Programming 1995): the oracle of the rows that the
    solver's clash table hands ``feasible``.  An equality stays.  An
    all-zero inequality is compared with 0, and one whose coefficients
    equal some equality's with the first such equality's rhs; it goes
    when that holds.  Any other inequality stands for every inequality
    with its coefficients and relation, in the first one's place, as
    their tightest."""
    out = []
    for i, row in enumerate(rows):
        if row.rel is Rel.EQ:
            out.append(row)
            continue
        same = [r.rhs for r in rows if r.rel is Rel.EQ and r.coeffs == row.coeffs]
        if all(c == 0 for c in row.coeffs):
            same = [0]
        if same:
            if not HOLDS[row.rel](same[0], row.rhs):
                return None
            continue
        group = [j for j, r in enumerate(rows) if (r.coeffs, r.rel) == (row.coeffs, row.rel)]
        if group[0] == i:
            tightest = (max if row.rel is Rel.GE else min)(rows[j].rhs for j in group)
            out.append(Row(row.coeffs, row.rel, tightest))
    return out


def ref_clashes(rows):
    """Whether rows are refuted with no tableau: a row the equalities
    decide fails (``ref_presolve`` answers None), or two distinct
    inequalities it keeps contradict each other (``ref_clash``), alone or
    beside some non-zero coefficient vector's first equality.  On a
    solver system, whose only equality is the total row, these are the
    dead literals and the pairs of bounds that leave no room: the oracle
    of the solver's clash table.  A ``<`` row with right-hand side 0 and
    coefficients >= 0 fails on its own, as non-negative weights never sum
    below 0."""
    if any(r.rel is Rel.LT and r.rhs == 0 and min(r.coeffs) >= 0 for r in rows):
        return True
    kept = ref_presolve(rows)
    if kept is None:
        return True
    firsts = {}
    for r in rows:
        if r.rel is Rel.EQ and any(c != 0 for c in r.coeffs):
            firsts.setdefault(r.coeffs, r.rhs)
    ineqs = [r for r in kept if r.rel is not Rel.EQ]
    return any(ref_clash(x, y, firsts) for x, y in itertools.permutations(ineqs, 2))


def ref_clash(x, y, firsts):
    """Whether the inequalities x and y contradict each other, alone or
    beside an equality q . v = e, e = firsts[q]: x bounds its vector from
    below and y the same one from above, or both bound two vectors that
    sum to q from the same side, beyond what e leaves them."""
    if x.coeffs == y.coeffs and x.rel is Rel.GE and y.rel is not Rel.GE:
        return not HOLDS[y.rel](x.rhs, y.rhs)
    for q, e in firsts.items():
        if any(cx + cy != cq for cx, cy, cq in zip(x.coeffs, y.coeffs, q)):
            continue
        total = x.rhs + y.rhs
        if x.rel is Rel.GE and y.rel is Rel.GE and total > e:
            return True
        if x.rel is not Rel.GE and y.rel is not Rel.GE:
            if total <= e if Rel.LT in (x.rel, y.rel) else total < e:
                return True
    return False


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


# --- the small-model certificate on Fraction arithmetic ---

def ref_measure(model, body) -> Fraction:
    """The ``Fraction`` sum of the weights of the worlds whose atom
    satisfies body by truth table."""
    return sum((w for a, w in model.worlds if tt_eval(body, a)), Fraction(0))


def ref_holds(model, f) -> bool:
    """f in the model: each AtLeast compares its body's ref_measure with
    its threshold."""
    if isinstance(f, AtLeast):
        return ref_measure(model, f.body) >= f.threshold
    if isinstance(f, PNot):
        return not ref_holds(model, f.body)
    return ref_holds(model, f.left) and ref_holds(model, f.right)


def _size(q: Fraction) -> int:
    """|numerator| + |denominator| in bits, 0 counting as one bit."""
    return max(q.numerator.bit_length(), 1) + q.denominator.bit_length()


def ref_certify(model, f):
    """certify_model's problem list for a formula whose bodies hold no
    assertion, so that every world is J-satisfiable: the world count
    against p_size(f), the weights' sum, signs and sizes as ``Fraction``s,
    the worlds' atoms compared whole, and ref_holds.  The size bound is
    floor(2 * (r*l + r*log2(r) + 1)), r = p_size(f) and l the largest
    threshold size."""
    r = p_size(f)
    l = max(_size(g.threshold) for g in p_occurrences(f))
    bound = math.floor(2 * (r * l + r * math.log2(r) + 1))
    problems = []
    if len(model.worlds) > r:
        problems.append(f"too many worlds: {len(model.worlds)} > {r}")
    total = sum((w for _, w in model.worlds), Fraction(0))
    if total != 1:
        problems.append(f"weights sum to {total}, not 1")
    for i, (_, w) in enumerate(model.worlds, 1):
        if w <= 0:
            problems.append(f"world {i} has non-positive weight {w}")
        elif _size(w) > bound:
            problems.append(f"world {i} weight {w} has size {_size(w)} > {bound}")
    atoms = [a for a, _ in model.worlds]
    if len(set(atoms)) != len(atoms):
        problems.append("duplicate atom across worlds")
    if not ref_holds(model, f):
        problems.append("model does not satisfy the formula")
    return problems


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


# --- reference unifier ---
# The recursive unifier that pjsat.cspec replaced, kept verbatim: an
# isinstance ladder behind a structural equality test, with a recursive
# occurs-check.

def _ref_occurs(meta, pat, subst):
    if isinstance(pat, (FMeta, TMeta)):
        if pat == meta:
            return True
        bound = subst.get(pat)
        return bound is not None and _ref_occurs(meta, bound, subst)
    if isinstance(pat, (Prop, Const, Var)):
        return False
    if isinstance(pat, (JNot,)):
        return _ref_occurs(meta, pat.body, subst)
    if isinstance(pat, (JAnd, App, Sum)):
        return _ref_occurs(meta, pat.left, subst) or _ref_occurs(meta, pat.right, subst)
    if isinstance(pat, Assert):
        return _ref_occurs(meta, pat.term, subst) or _ref_occurs(meta, pat.body, subst)
    if isinstance(pat, Bang):
        return _ref_occurs(meta, pat.inner, subst)
    raise TypeError(f"bad pattern: {pat!r}")


def _ref_resolve(pat, subst):
    while isinstance(pat, (FMeta, TMeta)) and pat in subst:
        pat = subst[pat]
    return pat


def ref_unify(x, y, subst):
    """Most general unifier extending subst, or None on failure."""
    x = _ref_resolve(x, subst)
    y = _ref_resolve(y, subst)
    if x == y:
        return subst
    if isinstance(x, (FMeta, TMeta)):
        if _ref_occurs(x, y, subst):
            return None
        out = dict(subst)
        out[x] = y
        return out
    if isinstance(y, (FMeta, TMeta)):
        return ref_unify(y, x, subst)
    if isinstance(x, JNot) and isinstance(y, JNot):
        return ref_unify(x.body, y.body, subst)
    if isinstance(x, JAnd) and isinstance(y, JAnd):
        s = ref_unify(x.left, y.left, subst)
        return None if s is None else ref_unify(x.right, y.right, s)
    if isinstance(x, Assert) and isinstance(y, Assert):
        s = ref_unify(x.term, y.term, subst)
        return None if s is None else ref_unify(x.body, y.body, s)
    if isinstance(x, App) and isinstance(y, App):
        s = ref_unify(x.left, y.left, subst)
        return None if s is None else ref_unify(x.right, y.right, s)
    if isinstance(x, Sum) and isinstance(y, Sum):
        s = ref_unify(x.left, y.left, subst)
        return None if s is None else ref_unify(x.right, y.right, s)
    if isinstance(x, Bang) and isinstance(y, Bang):
        return ref_unify(x.inner, y.inner, subst)
    return None


# --- reference parser ---
# The tokenizer and parser that pjsat.syntax replaced, kept verbatim: one
# (kind, text, position, value) tuple per token, and a '(' in a
# justification factor that first tries a term and backtracks on failure.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<pge>P>=)
  | (?P<plt>P<)
  | (?P<arrow>->)
  | (?P<prop>p[0-9]+)(?![A-Za-z0-9_])
  | (?P<var>x[0-9]+)(?![A-Za-z0-9_])
  | (?P<const>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>\d+)
  | (?P<sym>[~&():.+!/|])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    """(kind, text, position, value) tuples; value is the int a numeral,
    proposition or variable token reads as, else None."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "ws":
            val = m.group()
            value = None
            if kind == "sym":
                kind = val
            elif kind in ("num", "prop", "var"):
                try:
                    value = int(val.lstrip("px"))
                except ValueError:  # longer than the interpreter's int-string limit
                    raise ParseError("numeral too long", pos) from None
            tokens.append((kind, val, pos, value))
        pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("eof", "", len(text), None))
    return tokens


_SPACE_RE = re.compile(r"\s+|\#[^\n]*")
_SCAN_RE = re.compile(  # whitespace and comments, then a token or none
    rf"""(?:{_SPACE_RE.pattern})*
    ( P>= | P< | -> | p[0-9]+(?![A-Za-z0-9_]) | x[0-9]+(?![A-Za-z0-9_])
    | [A-Za-z_][A-Za-z0-9_]* | \d+ | [~&():.+!/|] )?""", re.VERBOSE)


def ref_tokens(text):
    """The token strings of the parser's earlier scan, one findall, when
    their total length is that of the text without spaces and comments;
    else the position of its first stray character, an int."""
    toks = _SCAN_RE.findall(text)
    if len("".join(toks)) == len(_SPACE_RE.sub("", text)):
        return [tok for tok in toks if tok]
    for m in _SCAN_RE.finditer(text):
        if m.group(1) is None:
            return m.end()


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def fail(self, message):
        tok = self.tokens[self.i]
        raise ParseError(message, tok[2])

    def chain(self, operand, symbol, join):
        """operand (symbol operand)*, joined to the left."""
        tokens = self.tokens
        left = operand()
        while tokens[self.i][0] == symbol:
            self.i += 1
            left = join(left, operand())
        return left

    # terms

    def term(self):
        return self.chain(self.tfactor, "+", Sum)

    def tfactor(self):
        return self.chain(self.tprim, ".", App)

    def tprim(self):
        kind = self.peek()
        if kind == "!":
            self.next()
            return Bang(self.tprim())
        if kind == "const":
            return Const(self.next()[1])
        if kind == "var":
            return Var(self.next()[3])
        if kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        self.fail("expected a term")

    # justification formulas (with '->' and '|' sugar)

    def jformula(self):
        left = self.jor()
        if self.peek() == "arrow":
            self.next()
            right = self.jformula()
            return jimp(left, right)
        return left

    def jor(self):
        return self.chain(self.jand, "|", lambda f, g: JNot(JAnd(JNot(f), JNot(g))))

    def jand(self):
        return self.chain(self.jfactor, "&", JAnd)

    def jfactor(self):
        kind = self.peek()
        if kind == "~":
            self.next()
            return JNot(self.jfactor())
        if kind == "prop":
            return Prop(self.next()[3])
        if kind in ("const", "var", "!"):
            t = self.term()
            self.expect(":")
            return Assert(t, self.jfactor())
        if kind == "(":
            # '(' opens either a parenthesized formula or a term before ':'
            save = self.i
            try:
                t = self.term()
                self.expect(":")
                return Assert(t, self.jfactor())
            except ParseError:
                self.i = save
            self.next()
            f = self.jformula()
            self.expect(")")
            return f
        self.fail("expected a justification formula")

    # probability formulas

    def pformula(self):
        return self.chain(self.pfactor, "&", PAnd)

    def pfactor(self):
        kind = self.peek()
        if kind == "~":
            self.next()
            return PNot(self.pfactor())
        if kind == "(":
            self.next()
            f = self.pformula()
            self.expect(")")
            return f
        if kind in ("pge", "plt"):
            self.next()
            f = AtLeast(self.rational(), self.jfactor())
            return f if kind == "pge" else PNot(f)
        self.fail("expected a probability formula")

    def rational(self):
        tok = self.expect("num")
        num = tok[3]
        den = 1
        if self.peek() == "/":
            self.next()
            den = self.expect("num")[3]
            if den == 0:
                raise ParseError("zero denominator", tok[2])
        if num > den:
            raise ParseError(f"threshold {num}/{den} outside [0,1]", tok[2])
        return Fraction(num, den)


def ref_parse(text, rule):
    """Parse text whole by the reference parser's rule: "pformula",
    "jformula" or "term"."""
    p = _Parser(text)
    tree = getattr(p, rule)()
    p.expect("eof")
    return tree
