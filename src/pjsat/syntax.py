"""Abstract syntax, parsing, printing and structural measures.

Three layers of syntax:

  * justification terms: constants, variables, application (.), sum (+)
    and the proof-checker prefix (!);
  * justification formulas: propositions p<i>, negation, conjunction and
    assertions ``t : body``;
  * probability formulas: ``P>=s body``, negation and conjunction.

All nodes are frozen dataclasses, so values are hashable and shareable;
each composite node computes its hash once and keeps it (``_node``).
Thresholds are stored as reduced ``fractions.Fraction`` in [0, 1].

Boolean structure is compiled once (``truth_test``); every enumeration of
truth values, P-level or sign tuple, is the one walk ``assignments``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction


class ParseError(ValueError):
    """Raised on malformed input; carries the character position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EnumerationLimitError(RuntimeError):
    """Raised when an atom enumeration would exceed the configured cap."""


class OutputLimitError(RuntimeError):
    """Raised when a number is too long for the interpreter to print."""


def _node(cls):
    """A frozen dataclass whose hash is computed once, on first use, and
    kept on the instance outside its fields, so a lookup no longer
    re-hashes the whole subtree.  Equality, repr and fields are the
    dataclass's own; pickling drops the kept hash, since string hashes
    differ between processes."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls._hash = None  # a class default, so the first lookup raises nothing
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# --- terms ---

@dataclass(frozen=True)
class Const:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("constant name must be nonempty")


@dataclass(frozen=True)
class Var:
    index: int


@_node
class App:
    left: "Term"
    right: "Term"


@_node
class Sum:
    left: "Term"
    right: "Term"


@_node
class Bang:
    inner: "Term"


Term = Const | Var | App | Sum | Bang


# --- justification formulas ---

@dataclass(frozen=True)
class Prop:
    index: int


@_node
class JNot:
    body: "JFormula"


@_node
class JAnd:
    left: "JFormula"
    right: "JFormula"


@_node
class Assert:
    term: Term
    body: "JFormula"


JFormula = Prop | JNot | JAnd | Assert


# --- probability formulas ---

@_node
class AtLeast:
    threshold: Fraction
    body: JFormula

    def __post_init__(self):
        if not (0 <= self.threshold <= 1):
            raise ValueError(f"threshold {self.threshold} outside [0,1]")


@_node
class PNot:
    body: "PFormula"


@_node
class PAnd:
    left: "PFormula"
    right: "PFormula"


PFormula = AtLeast | PNot | PAnd


def jimp(a, b):
    """Implication sugar, stored desugared as ~(a & ~b)."""
    return JNot(JAnd(a, JNot(b)))


# --- printing ---

def rat_str(r: Fraction) -> str:
    try:
        if r.denominator == 1:
            return str(r.numerator)
        return f"{r.numerator}/{r.denominator}"
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise OutputLimitError("a number has too many digits to print") from None


def term_str(t: Term, prec: int = 0) -> str:
    # precedence: 0 = sum, 1 = application, 2 = primary
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Bang):
        return "!" + term_str(t.inner, 2)
    if isinstance(t, Sum):
        s = f"{term_str(t.left, 0)}+{term_str(t.right, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, App):
        s = f"{term_str(t.left, 1)}.{term_str(t.right, 2)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a term: {t!r}")


def jformula_str(f, prec: int = 0) -> str:
    """Print a formula of either language; ``pformula_str`` is this function."""
    # precedence: 0 = conjunction, 1 = factor
    if isinstance(f, Prop):
        return f"p{f.index}"
    if isinstance(f, (JNot, PNot)):
        return "~" + jformula_str(f.body, 1)
    if isinstance(f, Assert):
        return f"{term_str(f.term)}:{jformula_str(f.body, 1)}"
    if isinstance(f, AtLeast):
        return f"P>={rat_str(f.threshold)} {jformula_str(f.body, 1)}"
    if isinstance(f, (JAnd, PAnd)):
        s = f"{jformula_str(f.left, 0)} & {jformula_str(f.right, 1)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


pformula_str = jformula_str


# --- lexer / parser ---

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


def _parse(text, rule):
    p = _Parser(text)
    tree = rule(p)
    p.expect("eof")
    return tree


def parse_pformula(text: str) -> PFormula:
    return _parse(text, _Parser.pformula)


def parse_jformula(text: str) -> JFormula:
    return _parse(text, _Parser.jformula)


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


# --- structural measures ---

def preorder(f):
    """Yield the subformula occurrences of f, each before its children and
    left before right; mixes both languages for probability formulas."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (JAnd, PAnd)):
            stack += (g.right, g.left)
        elif isinstance(g, (JNot, PNot, Assert, AtLeast)):
            stack.append(g.body)
        elif not isinstance(g, Prop):
            raise TypeError(f"not a formula: {g!r}")
        yield g


def subf(f):
    """The subformula set."""
    return frozenset(preorder(f))


def truth_test(f, index):
    """Compile the Boolean structure of f into a predicate over a sequence
    of truth values.  Negation and conjunction of either language are the
    connectives; any other node is a leaf, read at position ``index[node]``
    (a KeyError when the leaf is not in ``index``).

    The predicate is three-valued (Kleene): a leaf read as None is
    unknown, ``~x`` is unknown when x is, and ``x & y`` is False when
    either side is False, True when both are, and unknown (None)
    otherwise.  On a sequence of bools it is the two-valued test."""
    if isinstance(f, (JNot, PNot)):
        body = truth_test(f.body, index)
        return lambda values: None if (v := body(values)) is None else not v
    if isinstance(f, (JAnd, PAnd)):
        left, right = truth_test(f.left, index), truth_test(f.right, index)
        return lambda values: (
            False
            if (a := left(values)) is False or (b := right(values)) is False
            else a and b
        )
    return operator.itemgetter(index[f])


def assignments(holds, n, fixed=()):
    """The tuples of n truth values under which the predicate ``holds``
    (three-valued, as compiled by ``truth_test``) is True and that are
    True at every position in ``fixed``, in ``itertools.product`` order
    over ``(True, False)``: the filtered product, without testing all 2^n.

    A depth-first walk that fixes positions left to right, True before
    False, and tests each prefix with the rest read as None: a prefix
    under which ``holds`` is False is dropped with all its completions,
    an undecided one is extended, and one under which it is True yields
    every completion untested.  Positions in ``fixed``, read on the first
    ``next()``, are only ever True."""
    fixed = frozenset(fixed)
    values = [None] * n
    trues = []  # the positions not in fixed that are True, innermost last
    k = 0  # values[:k] is the prefix
    while True:
        verdict = holds(values)
        if verdict is None:
            values[k] = True
            if k not in fixed:
                trues.append(k)
            k += 1
            continue
        if verdict:
            yield from itertools.product(
                *[(v,) for v in values[:k]],
                *[(True,) if i in fixed else (True, False) for i in range(k, n)],
            )
        if not trues:
            return
        k = trues.pop()
        values[k] = False
        values[k + 1:] = [None] * (n - 1 - k)
        k += 1


def basis_of(*formulas):
    """All propositions and justification assertions among the subformulas
    of the formulas (the basis of their conjunction), in canonical order:
    propositions ascending by index, then assertions by printed string."""
    props = set()
    asserts = set()
    for f in formulas:
        for g in preorder(f):
            if isinstance(g, Prop):
                props.add(g)
            elif isinstance(g, Assert):
                asserts.add(g)
    ordered = sorted(props, key=lambda p: p.index)
    ordered += sorted(asserts, key=jformula_str)
    return tuple(ordered)


@dataclass(frozen=True)
class Atom:
    """A signed conjunction over a basis of basic formulas.

    ``signs[i]`` is True when ``basis[i]`` occurs positively.
    """

    basis: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.basis) != len(self.signs):
            raise ValueError("basis and signs lengths differ")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("basis entries must be pairwise distinct")

    def literals(self):
        return tuple(zip(self.basis, self.signs))

    def __str__(self):
        parts = []
        for b, sign in zip(self.basis, self.signs):
            s = jformula_str(b, 1)
            parts.append(s if sign else "~" + s)
        return " & ".join(parts)


DEFAULT_ATOM_CAP = 20


def within_cap(basis, cap: int = DEFAULT_ATOM_CAP):
    """The basis, once it is known to be nonempty and its 2^|basis| sign
    tuples within the cap; called before anything is enumerated over it."""
    if len(basis) == 0:
        raise ValueError("formula has no basic subformulas")
    if len(basis) > cap:
        raise EnumerationLimitError(
            f"basis has {len(basis)} entries, enumeration cap is {cap}"
        )
    return basis


def atoms_of(f, cap: int = DEFAULT_ATOM_CAP):
    """All 2^|basis| atoms of f, in ``itertools.product`` order of their
    signs; a basis past the cap is refused when this is called."""
    basis = within_cap(basis_of(f), cap)
    return (Atom(basis, s) for s in assignments(lambda values: True, len(basis)))


def p_level(f: PFormula):
    """The distinct AtLeast occurrences of f in first-occurrence order, and
    ``size_p(f)``: 2 per literal occurrence, 1 per ~ and &.  One iterative
    walk over the probability level, which does not enter the bodies."""
    occs = {}
    size = 0
    stack = [f]
    while stack:
        g = stack.pop()
        size += 1
        if isinstance(g, AtLeast):
            occs[g] = None
            size += 1
        elif isinstance(g, PAnd):
            stack += (g.right, g.left)
        elif isinstance(g, PNot):
            stack.append(g.body)
        else:
            raise TypeError(f"not a probability formula: {g!r}")
    return list(occs), size


def size_p(f: PFormula) -> int:
    return p_level(f)[1]


def size_int(n: int) -> int:
    """Binary length, with |0| = 1."""
    if n < 0:
        raise ValueError("size is defined for non-negative integers")
    return 1 if n == 0 else n.bit_length()


def size_rat(r: Fraction) -> int:
    """|numerator| + |denominator| for the reduced representation.

    Fraction always stores reduced form; 0 is 0/1 with size 1 + 1 = 2.
    """
    if r < 0:
        raise ValueError("size is defined for non-negative rationals")
    return size_int(r.numerator) + size_int(r.denominator)


def shrink_bound(r: int, l: int) -> float:
    """Size cap on each entry of a basic solution of r integer rows whose
    entries have size at most l: 2*(r*l + r*log2(r) + 1)."""
    if r == 0:
        return 2.0
    return 2 * (r * l + r * math.log2(r) + 1)


def norm(f: PFormula) -> int:
    """Max size over all thresholds occurring in f."""
    return max(size_rat(g.threshold) for g in p_level(f)[0])


def weight_size_bound(f: PFormula) -> int:
    """Certified cap on the size of each world weight in a small model of f,
    from ``size_p(f)`` and ``norm(f)`` read off one ``p_level`` walk."""
    return p_level_weight_bound(*p_level(f))


def p_level_weight_bound(occs, size) -> int:
    """``weight_size_bound`` of the formula whose ``p_level`` is (occs, size)."""
    return math.floor(shrink_bound(size, max(size_rat(g.threshold) for g in occs)))
