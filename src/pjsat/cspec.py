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
``cs_contains`` and the derivation search in ``jsem.derives``.
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


@dataclass(frozen=True)
class FMeta:
    """Formula metavariable in a pattern; a fresh one is named by object()."""

    name: object


@dataclass(frozen=True)
class TMeta:
    """Term metavariable in a pattern; a fresh one is named by object()."""

    name: object


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
# A substitution is a dict keyed by metavariable nodes, so formula and
# term metavariables of the same name never collide.

def _occurs(meta, pat, subst):
    if isinstance(pat, (FMeta, TMeta)):
        if pat == meta:
            return True
        bound = subst.get(pat)
        return bound is not None and _occurs(meta, bound, subst)
    if isinstance(pat, (Prop, Const, Var)):
        return False
    if isinstance(pat, (JNot,)):
        return _occurs(meta, pat.body, subst)
    if isinstance(pat, (JAnd, App, Sum)):
        return _occurs(meta, pat.left, subst) or _occurs(meta, pat.right, subst)
    if isinstance(pat, Assert):
        return _occurs(meta, pat.term, subst) or _occurs(meta, pat.body, subst)
    if isinstance(pat, Bang):
        return _occurs(meta, pat.inner, subst)
    raise TypeError(f"bad pattern: {pat!r}")


def _resolve(pat, subst):
    while isinstance(pat, (FMeta, TMeta)) and pat in subst:
        pat = subst[pat]
    return pat


def unify(x, y, subst):
    """Most general unifier extending subst, or None on failure.

    Patterns are formula or term patterns; the result maps metavariable
    nodes to patterns and passes the occurs-check.
    """
    x = _resolve(x, subst)
    y = _resolve(y, subst)
    if x == y:
        return subst
    if isinstance(x, (FMeta, TMeta)):
        if _occurs(x, y, subst):
            return None
        out = dict(subst)
        out[x] = y
        return out
    if isinstance(y, (FMeta, TMeta)):
        return unify(y, x, subst)
    if isinstance(x, JNot) and isinstance(y, JNot):
        return unify(x.body, y.body, subst)
    if isinstance(x, JAnd) and isinstance(y, JAnd):
        s = unify(x.left, y.left, subst)
        return None if s is None else unify(x.right, y.right, s)
    if isinstance(x, Assert) and isinstance(y, Assert):
        s = unify(x.term, y.term, subst)
        return None if s is None else unify(x.body, y.body, s)
    if isinstance(x, App) and isinstance(y, App):
        s = unify(x.left, y.left, subst)
        return None if s is None else unify(x.right, y.right, s)
    if isinstance(x, Sum) and isinstance(y, Sum):
        s = unify(x.left, y.left, subst)
        return None if s is None else unify(x.right, y.right, s)
    if isinstance(x, Bang) and isinstance(y, Bang):
        return unify(x.inner, y.inner, subst)
    return None


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
                FMeta(object()), FMeta(object()), FMeta(object()),
                TMeta(object()), TMeta(object()),
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
