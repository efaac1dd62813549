"""Constant specifications: built-in axiom schemes, unification, validation.

A constant specification assigns evidence for axiom instances to term
constants.  The schematic part maps constants to scheme names; the finite
part lists individual (constant, ground instance) pairs.  Scheme patterns
are justification formulas extended with formula metavariables (A, B, C)
and term metavariables (S, T); the two sorts never mix.

Each built-in scheme has one shared ``Scheme.pattern`` on metavariables
named A, B, C, S, T.  ``ConstantSpec.patterns`` says what a constant
justifies, for both ``cs_contains`` and ``jsem.derives``, and
``unify_scheme`` unifies such a pattern with a goal as an instance on
fresh metavariables would: a pattern metavariable stands for the goal
part it first meets, and a piece of the pattern is built only where a
goal metavariable is bound to it, so every use is renamed apart.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .syntax import (
    App,
    Assert,
    Bang,
    Const,
    JAnd,
    JNot,
    ParseError,
    Prop,
    Sum,
    Var,
    jimp,
    parse_jformula,
)


@dataclass(frozen=True, eq=False)
class FMeta:
    """Formula metavariable in a pattern.  It equals only itself and
    hashes by identity, so each one made is fresh; the name is for
    reading only."""

    name: str = "_"


@dataclass(frozen=True, eq=False)
class TMeta:
    """Term metavariable in a pattern; equal only to itself, as FMeta."""

    name: str = "_"


@dataclass(frozen=True)
class Scheme:
    """An axiom scheme: its name and its pattern over the formula
    metavariables A, B, C and the term metavariables S, T."""

    name: str
    pattern: object  # JFormula extended with FMeta/TMeta nodes


def _make_schemes():
    A, B, C, S, T = FMeta("A"), FMeta("B"), FMeta("C"), TMeta("S"), TMeta("T")
    patterns = {
        "TAUT1": jimp(A, jimp(B, A)),
        "TAUT2": jimp(jimp(A, jimp(B, C)), jimp(jimp(A, B), jimp(A, C))),
        "TAUT3": jimp(jimp(JNot(A), JNot(B)), jimp(B, A)),
        "APP": jimp(Assert(S, jimp(A, B)), jimp(Assert(T, A), Assert(App(S, T), B))),
        "SUM_L": jimp(Assert(S, A), Assert(Sum(S, T), A)),
        "SUM_R": jimp(Assert(T, A), Assert(Sum(S, T), A)),
    }
    return tuple(Scheme(n, p) for n, p in patterns.items())


_SCHEMES = _make_schemes()
_SCHEME_BY_NAME = {s.name: s for s in _SCHEMES}


def builtin_schemes():
    return list(_SCHEMES)


def scheme_named(name: str) -> Scheme | None:
    return _SCHEME_BY_NAME.get(name)


# --- unification over the two-sorted pattern language ---
#
# A substitution is a dict keyed by metavariable nodes, which hash and
# compare by identity, so formula and term metavariables never collide
# and a lookup runs no Python code.  The unifier dispatches on each
# node's class: identical nodes unify at once, and only the leaves,
# propositions, constants and variables, are compared by value.

def _occurs(meta, pat, subst):
    stack = [pat]
    while stack:
        pat = stack.pop()
        cls = type(pat)
        if cls is FMeta or cls is TMeta:
            if pat is meta:
                return True
            bound = subst.get(pat)
            if bound is not None:
                stack.append(bound)
        elif cls is JNot:
            stack.append(pat.body)
        elif cls is JAnd or cls is App or cls is Sum:
            stack += (pat.right, pat.left)
        elif cls is Assert:
            stack += (pat.body, pat.term)
        elif cls is Bang:
            stack.append(pat.inner)
        elif cls is not Prop and cls is not Const and cls is not Var:
            raise TypeError(f"bad pattern: {pat!r}")
    return False


def unify(x, y, subst):
    """Most general unifier extending subst, or None on failure.

    Patterns are formula or term patterns; the result maps metavariable
    nodes to patterns and passes the occurs-check.
    """
    if x is y:
        return subst
    cls = type(x)
    while cls is FMeta or cls is TMeta:
        bound = subst.get(x)
        if bound is None:
            break
        x, cls = bound, type(bound)
    other = type(y)
    while other is FMeta or other is TMeta:
        bound = subst.get(y)
        if bound is None:
            break
        y, other = bound, type(bound)
    if x is y:
        return subst
    if cls is FMeta or cls is TMeta or other is FMeta or other is TMeta:
        if cls is not FMeta and cls is not TMeta:
            x, y = y, x
        if _occurs(x, y, subst):
            return None
        out = dict(subst)
        out[x] = y
        return out
    if other is not cls:
        return None
    if cls is JNot:
        return unify(x.body, y.body, subst)
    if cls is JAnd or cls is App or cls is Sum:
        s = unify(x.left, y.left, subst)
        return None if s is None else unify(x.right, y.right, s)
    if cls is Assert:
        s = unify(x.term, y.term, subst)
        return None if s is None else unify(x.body, y.body, s)
    if cls is Bang:
        return unify(x.inner, y.inner, subst)
    return subst if x == y else None


def unify_scheme(p, y, subst, ren):
    """``unify`` of y with the scheme pattern p renamed apart, without
    building the renamed instance; None on failure.  ren, empty at the
    top, maps each pattern metavariable met so far to the goal part it
    stands for.  A ground pattern, a finite entry, is its own instance."""
    cls = type(p)
    if cls is FMeta or cls is TMeta:
        seen = ren.get(p)
        if seen is None:
            ren[p] = y
            return subst
        return unify(seen, y, subst)
    other = type(y)
    while other is FMeta or other is TMeta:
        bound = subst.get(y)
        if bound is None:
            read = []
            piece = _instantiate(p, ren, read)
            for v in read:
                if _occurs(y, v, subst):
                    return None
            out = dict(subst)
            out[y] = piece
            return out
        y, other = bound, type(bound)
    if p is y:
        return subst
    if other is not cls:
        return None
    if cls is JNot:
        return unify_scheme(p.body, y.body, subst, ren)
    if cls is JAnd or cls is App or cls is Sum:
        s = unify_scheme(p.left, y.left, subst, ren)
        return None if s is None else unify_scheme(p.right, y.right, s, ren)
    if cls is Assert:
        s = unify_scheme(p.term, y.term, subst, ren)
        return None if s is None else unify_scheme(p.body, y.body, s, ren)
    if cls is Bang:
        return unify_scheme(p.inner, y.inner, subst, ren)
    return subst if p == y else None


def _instantiate(p, ren, read):
    """The pattern piece p under ren, which gains a fresh metavariable
    for each of p's that it lacks.  read gains each value the piece takes
    from ren: goal parts and metavariables of earlier pieces, which alone
    can hold a goal metavariable, so the occurs-check walks only them
    (and any metavariable this call made and meets again)."""
    cls = type(p)
    if cls is FMeta or cls is TMeta:
        meta = ren.get(p)
        if meta is None:
            meta = ren[p] = cls(p.name)
        else:
            read.append(meta)
        return meta
    if cls is JNot:
        return JNot(_instantiate(p.body, ren, read))
    if cls is JAnd or cls is App or cls is Sum:
        return cls(_instantiate(p.left, ren, read), _instantiate(p.right, ren, read))
    if cls is Assert:
        return Assert(_instantiate(p.term, ren, read), _instantiate(p.body, ren, read))
    if cls is Bang:
        return Bang(_instantiate(p.inner, ren, read))
    return p


def match(pattern, ground):
    """One-sided match of a scheme pattern against a ground formula: the
    unifier binding the pattern's metavariables, or None on mismatch."""
    return unify(pattern, ground, {})


def is_axiom_instance(phi) -> bool:
    return any(match(s.pattern, phi) is not None for s in _SCHEMES)


class CSFormatError(ValueError):
    """Raised when a constant-specification file is malformed."""


@dataclass(frozen=True)
class ConstantSpec:
    """Almost-schematic constant specification.

    ``schematic`` maps constant names to frozensets of scheme names;
    ``finite`` is a frozenset of (constant name, ground formula) pairs.
    """

    schematic: dict = field(default_factory=dict)
    finite: frozenset = field(default_factory=frozenset)
    _patterns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        patterns = {
            c: tuple(_SCHEME_BY_NAME[n].pattern for n in sorted(names))
            for c, names in self.schematic.items()
        }
        for c, phi in self.finite:
            patterns[c] = patterns.get(c, ()) + (phi,)
        object.__setattr__(self, "_patterns", patterns)

    def schemes_of(self, cname: str):
        return self.schematic.get(cname, frozenset())

    def patterns(self, cname: str):
        """What the constant cname justifies, for ``unify_scheme``: the
        shared pattern of each of its schemes in sorted-name order, then
        its finite entries."""
        return self._patterns.get(cname, ())


def cs_contains(cs: ConstantSpec, cname: str, phi) -> bool:
    """Membership test: (cname, phi) in the specification, phi ground."""
    return any(unify_scheme(p, phi, {}, {}) is not None for p in cs.patterns(cname))


def validate(
    cs: ConstantSpec,
    *,
    require_injective: bool = False,
    require_appropriate: bool = False,
):
    """Diagnostics for the requested flags; empty list means valid."""
    diagnostics = []
    if require_appropriate:
        for scheme in _SCHEMES:
            if not any(scheme.name in names for names in cs.schematic.values()):
                diagnostics.append(
                    f"not axiomatically appropriate: no constant justifies {scheme.name}"
                )
    if require_injective:
        for cname in sorted(cs.schematic):
            if len(cs.schematic[cname]) > 1:
                names = ", ".join(sorted(cs.schematic[cname]))
                diagnostics.append(
                    f"not schematically injective: {cname} justifies {names}"
                )
        if cs.finite:
            diagnostics.append(
                "not schematically injective: finite part must be empty"
            )
    return diagnostics


def default_cs() -> ConstantSpec:
    """One fresh constant per built-in scheme; injective and appropriate."""
    schematic = {
        "c_" + s.name.lower(): frozenset({s.name}) for s in _SCHEMES
    }
    return ConstantSpec(schematic=schematic, finite=frozenset())


def load_cs(text: str) -> ConstantSpec:
    """Parse the line-oriented CS file format.

    Sections ``[schematic]`` and ``[finite]``; entries ``constant : SCHEME``
    and ``constant : jformula`` respectively.  Finite entries must be ground
    instances of some built-in scheme.
    """
    schematic: dict = {}
    finite = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("[schematic]", "[finite]"):
            section = line[1:-1]
            continue
        if section is None:
            raise CSFormatError(f"line {lineno}: entry before any section header")
        if ":" not in line:
            raise CSFormatError(f"line {lineno}: expected 'constant : ...'")
        cname, rest = line.split(":", 1)
        cname = cname.strip()
        rest = rest.strip()
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*$", cname) or re.match(r"[px]\d+$", cname):
            raise CSFormatError(f"line {lineno}: bad constant name {cname!r}")
        if section == "schematic":
            if scheme_named(rest) is None:
                raise CSFormatError(f"line {lineno}: unknown scheme {rest!r}")
            schematic.setdefault(cname, set()).add(rest)
        else:
            try:
                phi = parse_jformula(rest)
            except ParseError as exc:
                raise CSFormatError(f"line {lineno}: {exc}") from exc
            if not is_axiom_instance(phi):
                raise CSFormatError(
                    f"line {lineno}: {rest!r} is not an instance of any axiom scheme"
                )
            finite.add((cname, phi))
    return ConstantSpec(
        schematic={c: frozenset(names) for c, names in schematic.items()},
        finite=frozenset(finite),
    )
