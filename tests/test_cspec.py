import random

import pytest

from pjsat.cspec import (
    CSFormatError,
    ConstantSpec,
    builtin_schemes,
    cs_contains,
    default_cs,
    is_axiom_instance,
    load_cs,
    match,
    scheme_named,
    validate,
)
from pjsat.syntax import parse_jformula

from _gen import rand_jformula


class TestBuiltinSchemes:
    def test_exactly_six(self):
        names = [s.name for s in builtin_schemes()]
        assert names == ["TAUT1", "TAUT2", "TAUT3", "APP", "SUM_L", "SUM_R"]

    def test_unknown_absent(self):
        assert scheme_named("FACTIVITY") is None

    def test_app_pattern_matches_its_instance(self):
        phi = parse_jformula("s:(p1->p2) -> (t:p1 -> (s.t):p2)")
        assert match(scheme_named("APP").pattern, phi) is not None

    def test_sum_l_pattern(self):
        phi = parse_jformula("s:p1 -> (s+t):p1")
        assert match(scheme_named("SUM_L").pattern, phi) is not None
        assert match(scheme_named("SUM_R").pattern, phi) is None

    def test_taut1(self):
        phi = parse_jformula("p1 -> (p2 -> p1)")
        assert match(scheme_named("TAUT1").pattern, phi) is not None
        bad = parse_jformula("p1 -> (p2 -> p3)")
        assert match(scheme_named("TAUT1").pattern, bad) is None


class TestAxioms:
    def test_schemes_by_name_then_own_finite_entries(self):
        own = {
            parse_jformula("x1:p1 -> (x1+x2):p1"),
            parse_jformula("p1 -> (p2 -> p1)"),
        }
        other = parse_jformula("x2:p2 -> (x1+x2):p2")
        cs = ConstantSpec(
            schematic={
                "c": frozenset({"TAUT1", "APP", "SUM_L"}),
                "d": frozenset({"TAUT2"}),
            },
            finite=frozenset({("c", phi) for phi in own} | {("d", other)}),
        )
        patterns = cs.patterns("c")
        assert len(patterns) == 5
        for name, pattern in zip(["APP", "SUM_L", "TAUT1"], patterns):
            # the scheme's one shared pattern, not a copy of it
            assert pattern is scheme_named(name).pattern
        assert set(patterns[3:]) == own
        assert cs.patterns("e") == ()


class TestCsContains:
    def test_app_instance(self):
        cs = ConstantSpec(schematic={"c1": frozenset({"APP"})})
        phi = parse_jformula("s:(p1->p2) -> (t:p1 -> (s.t):p2)")
        assert cs_contains(cs, "c1", phi)

    def test_no_match(self):
        cs = ConstantSpec(schematic={"c1": frozenset({"APP"})})
        assert not cs_contains(cs, "c1", parse_jformula("p1"))
        assert not cs_contains(cs, "c2", parse_jformula("p1"))

    def test_finite_membership(self):
        phi = parse_jformula("x1:p1 -> (x1+x2):p1")
        cs = ConstantSpec(finite=frozenset({("c9", phi)}))
        assert cs_contains(cs, "c9", phi)
        assert not cs_contains(cs, "c9", parse_jformula("p1"))

    def test_agrees_with_bruteforce_match(self):
        # oracle: recursive-descent match with an explicit binding map is
        # exactly `match`; cross-check scheme membership over random formulas
        rng = random.Random(11)
        cs = default_cs()
        for _ in range(200):
            phi = rand_jformula(rng, depth=3)
            for scheme in builtin_schemes():
                got = cs_contains(cs, "c_" + scheme.name.lower(), phi)
                assert got == (match(scheme.pattern, phi) is not None)

    def test_injective_cs_matches_at_most_one_scheme(self):
        rng = random.Random(12)
        cs = default_cs()
        assert validate(cs) == []
        for _ in range(300):
            phi = rand_jformula(rng, depth=3)
            hits = [
                s.name
                for s in builtin_schemes()
                if cs_contains(cs, "c_" + s.name.lower(), phi)
                and match(s.pattern, phi) is not None
            ]
            for cname in cs.schematic:
                matched = {
                    s
                    for s in cs.schematic[cname]
                    if match(scheme_named(s).pattern, phi) is not None
                }
                assert len(matched) <= 1


class TestValidate:
    def test_valid_default(self):
        assert validate(
            default_cs(), require_injective=True, require_appropriate=True
        ) == []

    def test_injectivity_diagnostic(self):
        cs = ConstantSpec(schematic={"c2": frozenset({"SUM_L", "SUM_R"})})
        diags = validate(cs, require_injective=True)
        assert any("c2" in d for d in diags)

    def test_appropriateness_diagnostic(self):
        schematic = {
            "c_" + s.name.lower(): frozenset({s.name})
            for s in builtin_schemes()
            if s.name != "TAUT1"
        }
        cs = ConstantSpec(schematic=schematic)
        diags = validate(cs, require_appropriate=True)
        assert any("TAUT1" in d for d in diags)

    def test_idempotent(self):
        cs = ConstantSpec(schematic={"c2": frozenset({"SUM_L", "SUM_R"})})
        assert validate(cs, require_injective=True) == validate(
            cs, require_injective=True
        )


class TestLoadCs:
    def test_load_schematic_and_finite(self):
        text = """
        [schematic]
        ca : APP
        cs : SUM_L
        [finite]
        c9 : x1:p1 -> (x1+x2):p1
        """
        cs = load_cs(text)
        assert cs.schemes_of("ca") == frozenset({"APP"})
        assert cs_contains(cs, "c9", parse_jformula("x1:p1 -> (x1+x2):p1"))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(CSFormatError):
            load_cs("[schematic]\nca : NO_SUCH_SCHEME\n")

    def test_non_axiom_finite_entry_rejected(self):
        with pytest.raises(CSFormatError):
            load_cs("[finite]\nc9 : p1\n")

    def test_entry_before_section_rejected(self):
        with pytest.raises(CSFormatError):
            load_cs("ca : APP\n")

    def test_is_axiom_instance(self):
        assert is_axiom_instance(parse_jformula("s:p1 -> (s+t):p1"))
        assert not is_axiom_instance(parse_jformula("p1 & p2"))
