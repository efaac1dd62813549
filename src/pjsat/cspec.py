"""Constant specifications: built-in axiom schemes, unification, validation.

A constant specification assigns evidence for axiom instances to term
constants.  The schematic part maps constants to scheme names; the finite
part lists individual (constant, ground instance) pairs.  Scheme patterns
are justification formulas extended with formula metavariables (A, B, C)
and term metavariables (S, T); the two sorts never mix.

Each built-in scheme is defined once, as a builder ``build(A, B, C, S, T)``
returning its instance for the given metavariables.  ``Scheme.pattern``
is the builder applied to the metavariables named A, B, C, S, T.
``ConstantSpec.axioms`` says what a constant justifies, for both
``cs_contains`` and the derivation search in ``jsem.derives``; it builds
each instance on new metavariables, which equal only themselves, so no
name supply is needed to rename instances apart.
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
    """An axiom scheme.  ``build(A, B, C, S, T)`` makes its instance for
    formula metavariables A, B, C and term metavariables S, T; ``pattern``
    is the instance for the metavariables named so."""

    name: str
    build: object = field(repr=False, compare=False)
    pattern: object  # JFormula extended with FMeta/TMeta nodes


def _make_schemes():
    builders = {
        "TAUT1": lambda A, B, C, S, T: jimp(A, jimp(B, A)),
        "TAUT2": lambda A, B, C, S, T: jimp(
            jimp(A, jimp(B, C)), jimp(jimp(A, B), jimp(A, C))
        ),
        "TAUT3": lambda A, B, C, S, T: jimp(jimp(JNot(A), JNot(B)), jimp(B, A)),
        "APP": lambda A, B, C, S, T: jimp(
            Assert(S, jimp(A, B)), jimp(Assert(T, A), Assert(App(S, T), B))
        ),
        "SUM_L": lambda A, B, C, S, T: jimp(Assert(S, A), Assert(Sum(S, T), A)),
        "SUM_R": lambda A, B, C, S, T: jimp(Assert(T, A), Assert(Sum(S, T), A)),
    }
    metas = (FMeta("A"), FMeta("B"), FMeta("C"), TMeta("S"), TMeta("T"))
    return tuple(Scheme(n, build, build(*metas)) for n, build in builders.items())


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

    def schemes_of(self, cname: str):
        return self.schematic.get(cname, frozenset())

    def axioms(self, cname: str):
        """Lazily, the formulas the constant cname justifies: each of its
        schemes in sorted-name order, built on fresh metavariables, so
        that no two instances share one, then its finite entries."""
        for sname in sorted(self.schemes_of(cname)):
            yield _SCHEME_BY_NAME[sname].build(
                FMeta(), FMeta(), FMeta(), TMeta(), TMeta()
            )
        for c, phi in self.finite:
            if c == cname:
                yield phi


def cs_contains(cs: ConstantSpec, cname: str, phi) -> bool:
    """Membership test: (cname, phi) in the specification, phi ground."""
    return any(match(a, phi) is not None for a in cs.axioms(cname))


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
