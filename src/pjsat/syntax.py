"""Abstract syntax, parsing, printing and structural measures.

Three layers of syntax:

  * justification terms: constants, variables, application (.), sum (+)
    and the proof-checker prefix (!);
  * justification formulas: propositions p<i>, negation, conjunction and
    assertions ``t : body``;
  * probability formulas: ``P>=s body`` under the same ``~`` and ``&``
    nodes, ``JNot`` and ``JAnd``; the probability-level names of those
    two classes are aliases, kept for importers.

All nodes are frozen dataclasses, so values are hashable and shareable;
each composite node computes its hash once and keeps it (``_node``).
Thresholds are stored as reduced ``fractions.Fraction`` in [0, 1].

Parsing is one findall of a flat pattern over the text, which reads
symbols, ASCII words, numerals (any decimal digits), comments, and any
other non-space character as a token of its own, then recursive descent
over the token strings, which accepts no such stray character; a failed
parse rescans the text for the error to report.  '(' in a justification
formula is tried as a term before ':' only when the run of term tokens
after it is balanced and ends at ':'.

Boolean structure is compiled once (``truth_test``); every enumeration of
truth values, P-level or sign tuple, is the one walk ``assignments``,
except the solver's signatures, which partition a truth table held as
bitsets instead of enumerating its tuples.
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
    re-hashes the whole subtree.  The hash computed is the class's own
    ``__hash__`` where its body defines one, else the dataclass's.
    Equality, repr and fields are the dataclass's own; pickling drops the
    kept hash, since string hashes differ between processes."""
    cls = dataclass(frozen=True)(cls)  # keeps a __hash__ the body defines
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
        t = self.threshold  # a Fraction or int: two int comparisons
        if not 0 <= t.numerator <= t.denominator:
            raise ValueError(f"threshold {t} outside [0,1]")

    def __hash__(self):
        """Over the reduced numerator and denominator: equal thresholds, int
        or Fraction, hash equal, with no ``Fraction.__hash__`` (a modular inverse)."""
        t = self.threshold
        return hash((t.numerator, t.denominator, self.body))


PNot, PAnd = JNot, JAnd
PFormula = AtLeast | JNot | JAnd


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
    if isinstance(f, JNot):
        return "~" + jformula_str(f.body, 1)
    if isinstance(f, Assert):
        return f"{term_str(f.term)}:{jformula_str(f.body, 1)}"
    if isinstance(f, AtLeast):
        return f"P>={rat_str(f.threshold)} {jformula_str(f.body, 1)}"
    if isinstance(f, JAnd):
        s = f"{jformula_str(f.left, 0)} & {jformula_str(f.right, 1)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


pformula_str = jformula_str


# --- lexer / parser ---

_SCAN = re.compile(r"P>=|P<|->|[A-Za-z_][A-Za-z0-9_]*|\d+|\#[^\n]*|\S")
_SYMBOLS = frozenset(("P>=", "P<", "->", *"~&():.+!/|"))


class _Error(Exception):
    """A parse failure: (message, index of the token it is reported at)."""


def _fail(text, message=None, index=0):
    """Raise the ParseError for text, found by rescanning it: its first stray
    character (a token of the scan that is no symbol, numeral or ASCII
    word) or numeral past the int-string limit, else message at the
    index-th token, comments skipped (the text's end past the last); else
    return."""
    pos = len(text)
    n = 0
    for m in _SCAN.finditer(text):
        tok = m.group()
        if tok[0] == "#":
            continue
        digits = tok[1:] if tok[0] in "px" else tok
        if digits.isdecimal():
            try:
                int(digits)
            except ValueError:
                raise ParseError("numeral too long", m.start()) from None
        elif not (tok in _SYMBOLS or tok.isascii() and tok.isidentifier()):
            raise ParseError(f"unexpected character {tok!r}", m.start())
        if n == index:
            pos = m.start()
        n += 1
    if message is not None:
        raise ParseError(message, pos) from None


def _expect(toks, i, kind):
    """i + 1, once toks[i] is kind: a symbol, "num", or "" for the end."""
    if toks[i] != kind and not (kind == "num" and toks[i].isdecimal()):
        raise _Error(f"expected {kind or 'eof'!r}, found {toks[i]!r}", i)
    return i + 1


def _term(toks, i):
    """tprim ('.' tprim)*, with '+' between such chains."""
    t = None
    while True:
        u, i = _tprim(toks, i)
        while toks[i] == ".":
            v, i = _tprim(toks, i + 1)
            u = App(u, v)
        t = u if t is None else Sum(t, u)
        if toks[i] != "+":
            return t, i
        i += 1


def _tprim(toks, i):
    tok = toks[i]
    if tok == "!":
        t, i = _tprim(toks, i + 1)
        return Bang(t), i
    if tok == "(":
        t, i = _term(toks, i + 1)
        return t, _expect(toks, i, ")")
    if tok.isascii() and tok.isidentifier() and not (tok[0] == "p" and tok[1:].isdecimal()):
        if tok[0] == "x" and tok[1:].isdecimal():
            return Var(int(tok[1:])), i + 1
        return Const(tok), i + 1
    raise _Error("expected a term", i)


def _assertion_at(toks, i):
    """Of the run of '(' from toks[i], the one from which the term tokens
    are balanced and end at ':', as every term before ':' is; else -1."""
    k = i
    while toks[k] == "(":
        k += 1
    j, depth, low = k, 0, 0  # depth after toks[k:j], and its least value
    while (tok := toks[j]) in ("(", ")", ".", "+", "!") or (
        tok.isascii() and tok.isidentifier() and not (tok[0] == "p" and tok[1:].isdecimal())
    ):
        depth += (tok == "(") - (tok == ")")
        low = min(low, depth)
        j += 1
    return k + depth if tok == ":" and low == depth and i - k <= depth < 0 else -1


def _jformula(toks, i, ahead=None):
    """jfactor ('&' jfactor)*, with '|' between such chains, then ('->' jformula)?"""
    f = None
    while True:
        g, i = _jfactor(toks, i, ahead if f is None else None)
        while toks[i] == "&":
            h, i = _jfactor(toks, i + 1)
            g = JAnd(g, h)
        f = g if f is None else JNot(JAnd(JNot(f), JNot(g)))
        if toks[i] != "|":
            break
        i += 1
    if toks[i] == "->":
        g, i = _jformula(toks, i + 1)
        return jimp(f, g), i
    return f, i


def _jfactor(toks, i, ahead=None):
    """ahead: ``_assertion_at`` of the run of '(' holding toks[i], once scanned."""
    tok = toks[i]
    if tok == "~":
        f, i = _jfactor(toks, i + 1)
        return JNot(f), i
    if tok.isidentifier() and tok[0] == "p" and tok[1:].isdecimal():
        return Prop(int(tok[1:])), i + 1
    if tok == "(" and ahead is None:  # a term before ':', or a parenthesized formula
        ahead = _assertion_at(toks, i)
    if tok.isascii() and tok.isidentifier() or tok == "!" or i == ahead:
        try:
            t, j = _term(toks, i)
            f, j = _jfactor(toks, _expect(toks, j, ":"))
            return Assert(t, f), j
        except _Error:
            if tok != "(":  # else the term read, but not the body after ':'
                raise
    if tok == "(":
        f, i = _jformula(toks, i + 1, ahead)
        return f, _expect(toks, i, ")")
    raise _Error("expected a justification formula", i)


def _pformula(toks, i):
    f, i = _pfactor(toks, i)
    while toks[i] == "&":
        g, i = _pfactor(toks, i + 1)
        f = JAnd(f, g)
    return f, i


def _pfactor(toks, i):
    tok = toks[i]
    if tok == "~":
        f, i = _pfactor(toks, i + 1)
        return JNot(f), i
    if tok == "(":
        f, i = _pformula(toks, i + 1)
        return f, _expect(toks, i, ")")
    if tok != "P>=" and tok != "P<":
        raise _Error("expected a probability formula", i)
    # the threshold, num ('/' num)?, whose value is checked at its first num
    j = _expect(toks, i + 1, "num")
    if toks[j] == "/":
        j = _expect(toks, j + 1, "num")
    num, den = int(toks[i + 1]), int(toks[j - 1]) if j > i + 2 else 1
    if den == 0:
        raise _Error("zero denominator", i + 1)
    if num > den:
        raise _Error(f"threshold {num}/{den} outside [0,1]", i + 1)
    f, j = _jfactor(toks, j)
    f = AtLeast(Fraction(num, den), f)
    return (f if tok == "P>=" else JNot(f)), j


def _tokens(text):
    """The token strings of one findall over text, comments dropped and ""
    appended for its end; a stray character is a token of its own."""
    toks = _SCAN.findall(text)
    if "#" in text:
        toks = [tok for tok in toks if tok[0] != "#"]
    toks.append("")
    return toks


def _parse(text, rule):
    """Parse the whole text by rule over its ``_tokens``.  No rule accepts
    a stray character, so one fails the descent, and ``_fail``'s rescan
    reports it.  '(' tries a term where ``_assertion_at`` says."""
    toks = _tokens(text)
    try:
        tree, i = rule(toks, 0)
        _expect(toks, i, "")
        return tree
    except _Error as exc:
        _fail(text, *exc.args)
    except (ValueError, RecursionError):  # a numeral past the int-string limit, or deep nesting
        _fail(text)
        raise


def parse_pformula(text: str) -> PFormula:
    return _parse(text, _pformula)


def parse_jformula(text: str) -> JFormula:
    return _parse(text, _jformula)


def parse_term(text: str) -> Term:
    return _parse(text, _term)


# --- structural measures ---

def preorder(f):
    """Yield the subformula occurrences of f, each before its children and
    left before right; mixes both languages for probability formulas."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, JAnd):
            stack += (g.right, g.left)
        elif isinstance(g, (JNot, Assert, AtLeast)):
            stack.append(g.body)
        elif not isinstance(g, Prop):
            raise TypeError(f"not a formula: {g!r}")
        yield g


def subf(f):
    """The subformula set."""
    return frozenset(preorder(f))


def truth_test(f, index):
    """Compile the Boolean structure of f into a predicate over a sequence
    of truth values.  ``JNot`` and ``JAnd``, the connectives of both
    languages, are compiled; any other node is a leaf, read at position
    ``index[node]`` (a KeyError when the leaf is not in ``index``).

    The predicate is three-valued (Kleene): a leaf read as None is
    unknown, ``~x`` is unknown when x is, and ``x & y`` is False when
    either side is False, True when both are, and unknown (None)
    otherwise.  On a sequence of bools it is the two-valued test."""
    if isinstance(f, JNot):
        body = truth_test(f.body, index)
        return lambda values: None if (v := body(values)) is None else not v
    if isinstance(f, JAnd):
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
    walk over the ``JNot`` and ``JAnd`` above the AtLeast leaves, which
    does not enter the bodies; any other node raises TypeError."""
    occs = {}
    size = 0
    stack = [f]
    while stack:
        g = stack.pop()
        size += 1
        if isinstance(g, AtLeast):
            occs[g] = None
            size += 1
        elif isinstance(g, JAnd):
            stack += (g.right, g.left)
        elif isinstance(g, JNot):
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
    l = max(size_int(g.threshold.numerator) + size_int(g.threshold.denominator) for g in occs)
    return math.floor(shrink_bound(size, l))
