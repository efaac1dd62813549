import dataclasses
import importlib
import itertools
import pathlib
import random

import pytest

from pjsat import jsem
from pjsat.cspec import (
    ConstantSpec,
    FMeta,
    TMeta,
    builtin_schemes,
    default_cs,
    load_cs,
    unify_scheme,
)
from pjsat.jsem import (
    BasisMismatchError,
    atom_jsat,
    derives,
    eval_under_atom,
    jformula_sat,
    jsat_test,
    unify,
)
from pjsat.syntax import (
    App,
    Assert,
    Atom,
    Bang,
    Const,
    EnumerationLimitError,
    JAnd,
    JNot,
    Prop,
    Sum,
    Var,
    atoms_of,
    basis_of,
    jimp,
    parse_jformula,
    parse_pformula,
    parse_term,
)
from pjsat.solver import solve_sat

from _gen import cs_assert_jformula, rand_atom_for, rand_jformula, rand_term
from _oracles import jsat_oracle, ref_unify, tt_eval

CS0 = ConstantSpec()  # empty constant specification


def atom_from(text_pos, text_neg=(), props=()):
    """Build an atom from literal strings; positives then negatives."""
    basics, signs = [], []
    for txt in text_pos:
        basics.append(parse_jformula(txt))
        signs.append(True)
    for txt in text_neg:
        basics.append(parse_jformula(txt))
        signs.append(False)
    for index, sign in props:
        basics.append(Prop(index))
        signs.append(sign)
    return Atom(tuple(basics), tuple(signs))


def assertions(atom, sign):
    """The (term, body) pairs of the atom's assertions that carry sign."""
    return tuple(
        (b.term, b.body) for b, s in atom.literals() if isinstance(b, Assert) and s == sign
    )


# A substitution is the dict that ``cspec.unify`` builds, keyed by
# metavariable nodes.

def subst_apply(pat, subst):
    """Apply a substitution to a formula or term pattern."""
    if isinstance(pat, (FMeta, TMeta)):
        bound = subst.get(pat)
        return pat if bound is None else subst_apply(bound, subst)
    if isinstance(pat, (Prop, Const, Var)):
        return pat
    if isinstance(pat, JNot):
        return JNot(subst_apply(pat.body, subst))
    if isinstance(pat, JAnd):
        return JAnd(subst_apply(pat.left, subst), subst_apply(pat.right, subst))
    if isinstance(pat, Assert):
        return Assert(subst_apply(pat.term, subst), subst_apply(pat.body, subst))
    if isinstance(pat, App):
        return App(subst_apply(pat.left, subst), subst_apply(pat.right, subst))
    if isinstance(pat, Sum):
        return Sum(subst_apply(pat.left, subst), subst_apply(pat.right, subst))
    if isinstance(pat, Bang):
        return Bang(subst_apply(pat.inner, subst))
    raise TypeError(f"bad pattern: {pat!r}")


def build(scheme, *args):
    """The scheme's instance for its metavariables A, B, C, S, T := args."""
    by_name = dict(zip("ABCST", args))

    def go(p):
        if isinstance(p, (FMeta, TMeta)):
            return by_name[p.name]
        if isinstance(p, (Prop, Const, Var)):
            return p
        return type(p)(*(go(getattr(p, f.name)) for f in dataclasses.fields(p)))

    return go(scheme.pattern)


def chain_formula(n):
    """C(n): P>=1/2 t0:p1, then P>=1/2 ti:(pi -> p(i+1)) for i = 1..n,
    then ~P>=1/2 (tn.(...(t1.t0))):p(n+1)."""
    term = "t0"
    for i in range(1, n + 1):
        term = f"(t{i}.{term})"
    literals = ["P>=1/2 t0:p1"]
    literals += [f"P>=1/2 t{i}:(p{i} -> p{i + 1})" for i in range(1, n + 1)]
    literals.append(f"~P>=1/2 {term}:p{n + 1}")
    return " & ".join(literals)


class TestUnify:
    def test_single_binding(self):
        A = FMeta("A")
        x = jimp(A, Prop(1))
        y = parse_jformula("p2 -> p1")
        s = unify(x, y, {})
        assert s == {A: Prop(2)}

    def test_assertion_binding(self):
        from pjsat.cspec import TMeta

        S, A = TMeta("S"), FMeta("A")
        s = unify(Assert(S, A), parse_jformula("t:(p1 & p2)"), {})
        assert s[S] == Const("t")
        assert s[A] == parse_jformula("p1 & p2")

    def test_occurs_check(self):
        A = FMeta("A")
        assert unify(A, JNot(A), {}) is None

    def test_mismatch(self):
        assert unify(Prop(1), Prop(2), {}) is None

    def test_unifier_makes_sides_equal(self):
        A, B = FMeta("A"), FMeta("B")
        x = JAnd(A, JNot(B))
        y = JAnd(Prop(1), JNot(Prop(2)))
        s = unify(x, y, {})
        assert subst_apply(x, s) == subst_apply(y, s)

    def test_metavariables_equal_only_themselves(self):
        a, b = FMeta("A"), FMeta("A")
        assert a == a and a != b and TMeta("S") != TMeta("S")
        assert len({a: 1, b: 2}) == 2

    def test_scheme_occurs_check_reads_earlier_pieces(self):
        # ~A is built for z, so A stands for a fresh metavariable A'; A then
        # meets ~y, binding A' to it; the ~A built for y holds A', so y
        # would occur in its own binding
        A, y, z = FMeta("A"), FMeta("y"), FMeta("z")
        pattern = JAnd(JAnd(JNot(A), A), JNot(A))
        goal = JAnd(JAnd(z, JNot(y)), y)
        assert unify_scheme(pattern, goal, {}, {}) is None
        fresh = FMeta()
        assert ref_unify(JAnd(JAnd(JNot(fresh), fresh), JNot(fresh)), goal, {}) is None

    def test_matches_recursive_reference(self):
        # scheme instances on a shared pool of metavariables, unified with
        # _gen formulas and with instances whose arguments mix metavariables
        # of the same pool with _gen parts; each trial threads the
        # substitution through two pairs, as a derivation does.  Then the
        # same for unify_scheme on the shared scheme patterns, against
        # ref_unify on instances built on fresh metavariables
        rng = random.Random(28)
        pool_f = [FMeta(n) for n in "ABCD"]
        pool_t = [TMeta(n) for n in "ST"]
        schemes = builtin_schemes()

        def formula_arg():
            r = rng.random()
            if r < 0.45:
                return rng.choice(pool_f)
            if r < 0.6:
                return rand_jformula(rng, depth=2)
            if r < 0.75:
                return JNot(rng.choice(pool_f))
            if r < 0.9:
                return JAnd(rng.choice(pool_f), rand_jformula(rng, depth=1))
            return Assert(rng.choice(pool_t), rng.choice(pool_f))

        def term_arg():
            r = rng.random()
            if r < 0.5:
                return rng.choice(pool_t)
            if r < 0.75:
                return rand_term(rng, depth=2)
            return rng.choice([App, Sum])(rng.choice(pool_t), rand_term(rng, depth=1))

        def goal(x_scheme):
            scheme = rng.choice([x_scheme] * 3 + schemes)
            args = [formula_arg() for _ in range(3)] + [term_arg() for _ in range(2)]
            return build(scheme, *args)

        def pair():
            x_scheme = rng.choice(schemes)
            x = build(
                x_scheme,
                *(rng.choice(pool_f) for _ in range(3)),
                *(rng.choice(pool_t) for _ in range(2)),
            )
            if rng.random() < 0.3:
                return x, rand_jformula(rng, depth=4)
            return x, goal(x_scheme)

        found = failed = 0
        for _ in range(3000):
            got = ref = {}
            for x, y in (pair(), pair()):
                got, ref = unify(x, y, got), ref_unify(x, y, ref)
                assert got == ref, (x, y)
                if got is None:
                    failed += 1
                    break
                found += 1
                assert subst_apply(x, got) == subst_apply(y, got)
        assert found > 500 and failed > 500

        def pattern_goal(scheme):
            # a _gen formula, a bare pool metavariable, an implication whose
            # sides share one (occurs-check traps for TAUT1), or an instance
            r = rng.random()
            if r < 0.2:
                return rand_jformula(rng, depth=4)
            if r < 0.3:
                return rng.choice(pool_f)
            if r < 0.4:
                m = rng.choice(pool_f)
                return jimp(m, rng.choice([m, JNot(m), jimp(formula_arg(), m)]))
            return goal(scheme)

        pattern_metas = {}
        for scheme in schemes:
            # renaming a pattern onto itself collects its metavariables
            _renaming(scheme.pattern, scheme.pattern, pattern_metas.setdefault(scheme.name, {}))

        found = failed = twice = 0
        for _ in range(3000):
            # half the trials use one scheme twice, so a unifier that let
            # the first use's bindings reach the second would fail
            first = rng.choice(schemes)
            uses = (first, first if rng.random() < 0.5 else rng.choice(schemes))
            twice += uses[0] is uses[1]
            got = ref = {}
            goals = []
            for scheme in uses:
                y = pattern_goal(scheme)
                fresh = build(scheme, FMeta(), FMeta(), FMeta(), TMeta(), TMeta())
                got = unify_scheme(scheme.pattern, y, got, {})
                ref = ref_unify(fresh, y, ref)
                assert (got is None) == (ref is None), (scheme.name, y)
                if got is None:
                    failed += 1
                    break
                found += 1
                assert subst_apply(fresh, ref) == subst_apply(y, ref)
                # under got, the goal is an instance of the pattern
                image = subst_apply(y, got)
                bind = unify(scheme.pattern, image, {})
                assert bind is not None and set(bind) <= set(pattern_metas[scheme.name])
                assert subst_apply(scheme.pattern, bind) == image
                # and both unifiers give the goals the same image, up to
                # a one-to-one renaming of metavariables
                goals.append(y)
                renaming = {}
                assert all(
                    _renaming(subst_apply(g, ref), subst_apply(g, got), renaming)
                    for g in goals
                )
                assert len(set(renaming.values())) == len(renaming)
        assert found > 500 and failed > 500 and twice > 1000


class TestDerives:
    def test_application_closure(self):
        a = atom_from(["s:~(p1 & ~p2)", "t:p1"])
        positives = assertions(a, True)
        assert next(derives(positives, CS0, parse_term("s.t"), Prop(2)), None) is not None

    def test_sum_closure(self):
        a = atom_from(["t:p1"])
        positives = assertions(a, True)
        assert next(derives(positives, CS0, parse_term("t+u"), Prop(1)), None) is not None

    def test_scheme_instance_via_unification(self):
        cs = ConstantSpec(schematic={"c1": frozenset({"SUM_L"})})
        a = atom_from([], ["c1:p1"])  # no positives; only the cs derives
        positives = assertions(a, True)
        goal = parse_jformula("x1:p1 -> (x1+x2):p1")
        assert next(derives(positives, cs, Const("c1"), goal), None) is not None

    def test_no_derivation(self):
        a = atom_from(["t:p1"])
        positives = assertions(a, True)
        assert next(derives(positives, CS0, parse_term("t"), Prop(2)), None) is None

    def test_bang_admits_only_hypotheses(self):
        a = atom_from(["!t:p1", "t:(p1 -> p2)"])
        positives = assertions(a, True)
        assert next(derives(positives, CS0, parse_term("!t"), Prop(1)), None) is not None
        assert next(derives(positives, CS0, parse_term("!t"), Prop(2)), None) is None


def _renaming(pattern, instance, mapping):
    """Extend mapping (pattern metavariable to instance metavariable of
    the same sort) so that instance is pattern renamed; False when it is
    not."""
    if isinstance(pattern, (FMeta, TMeta)):
        return type(instance) is type(pattern) and (
            mapping.setdefault(pattern, instance) == instance
        )
    if type(instance) is not type(pattern):
        return False
    if not dataclasses.is_dataclass(pattern):
        return pattern == instance
    return all(
        _renaming(getattr(pattern, f.name), getattr(instance, f.name), mapping)
        for f in dataclasses.fields(pattern)
    )


class TestRenamingApart:
    # c_taut1 justifies both p1 -> (p3 -> p1) and
    # (p1 -> (p3 -> p1)) -> (p2 -> (p1 -> (p3 -> p1))): two TAUT1 instances
    # that no single binding of its metavariables covers
    DOUBLE_TAUT1 = "(c_taut1.c_taut1):(p2 -> (p1 -> (p3 -> p1)))"

    def test_one_scheme_used_twice_in_a_derivation(self):
        phi = parse_jformula("~" + self.DOUBLE_TAUT1)
        assert not jformula_sat(phi, default_cs())
        f = parse_pformula(f"P>=1/2 ~{self.DOUBLE_TAUT1}")
        assert solve_sat(f, default_cs()) is None

    @pytest.mark.parametrize("scheme", builtin_schemes(), ids=lambda s: s.name)
    def test_instances_are_renamed_apart(self, scheme):
        # derives binds the goal metavariable X to the scheme instance it
        # makes; two calls, with no name supply shared between them, make
        # two instances on disjoint metavariables
        cs = ConstantSpec(schematic={"c": frozenset({scheme.name})})
        goal = FMeta("X")
        renamings = []
        for _ in range(2):
            (subst,) = derives((), cs, Const("c"), goal)
            mapping = {}
            assert _renaming(scheme.pattern, subst[goal], mapping)
            assert len(set(mapping.values())) == len(mapping) > 0
            renamings.append(set(mapping.values()))
        assert not renamings[0] & renamings[1]


class TestAtomJsat:
    def test_finite_entry_under_application(self):
        # k justifies one ground formula, met as the left of an
        # application whose antecedent is t's
        cs = load_cs("[finite]\nk : p1 -> (p2 -> p1)\n")
        goal = "(k.t):(p2 -> p1)"
        assert not atom_jsat(atom_from(["t:p1"], [goal]), cs)
        assert atom_jsat(atom_from([], ["t:p1", goal]), cs)
        assert atom_jsat(atom_from(["t:p2"], [goal]), cs)

    def test_unrelated_terms_satisfiable(self):
        a = atom_from(["t:p1"], ["s:p2"])
        assert atom_jsat(a, CS0)

    def test_application_trap_unsatisfiable(self):
        a = atom_from(["s:~(p1 & ~p2)", "t:p1"], ["(s.t):p2"])
        assert not atom_jsat(a, CS0)

    def test_no_factivity(self):
        a = atom_from([], ["t:p1"], props=[(1, True)])
        assert atom_jsat(a, CS0)

    def test_monotone_in_negatives(self):
        # dropping a negative literal never flips true -> false
        rng = random.Random(5)
        cs = default_cs()
        flips = 0
        for _ in range(100):
            phi = JAnd(
                Assert(parse_term(rng.choice(["s", "t", "s.t", "s+t"])),
                       rand_jformula(rng, 2)),
                rand_jformula(rng, 2),
            )
            for atom in atoms_of(phi, cap=8):
                if atom_jsat(atom, cs):
                    continue
                neg_positions = [
                    i for i, (b, s) in enumerate(atom.literals())
                    if not s and isinstance(b, Assert)
                ]
                for i in neg_positions:
                    kept = [
                        (b, True if j == i else s)
                        for j, (b, s) in enumerate(atom.literals())
                    ]
                    # flipping the negative to positive removes the obligation
                    relaxed = Atom(
                        tuple(b for b, _ in kept), tuple(s for _, s in kept)
                    )
                    flips += 1
                    assert atom_jsat(relaxed, cs) or any(
                        not s and isinstance(b, Assert)
                        for b, s in relaxed.literals()
                    )
        assert flips > 0


def reference_jsat(atom, cs):
    """Per-atom J-satisfiability: all of the atom's positives, one
    derivation search per negated assertion."""
    positives = assertions(atom, True)
    return all(
        next(derives(positives, cs, s, gamma), None) is None
        for s, gamma in assertions(atom, False)
    )


SHARED_TERMS = tuple(parse_term(t) for t in ("s", "t", "s.t", "t+s", "(s.t)+u", "!t"))


def shared_term_jformula(rng):
    """A conjunction of two to four assertions over terms that share
    subterms, with bodies drawn from two random formulas a, b and the
    implications a -> b and b -> a (so application and TAUT1 can fire);
    its basis has at most 6 entries."""
    while True:
        a, b = rand_jformula(rng, 2, props=2), rand_jformula(rng, 1, props=2)
        bodies = (a, b, jimp(a, b), jimp(b, a))
        phi = Assert(rng.choice(SHARED_TERMS), rng.choice(bodies))
        for _ in range(rng.randint(1, 3)):
            phi = JAnd(phi, Assert(rng.choice(SHARED_TERMS), rng.choice(bodies)))
        if len(basis_of(phi)) <= 6:
            return phi


class TestJsatTest:
    @pytest.mark.parametrize(
        "cs",
        [CS0, default_cs(), ConstantSpec(schematic={"s": frozenset({"TAUT1"})})],
        ids=["CS0", "default_cs", "s_taut1"],
    )
    def test_matches_per_atom_reference(self, cs):
        rng = random.Random(37)
        junsat = 0
        for _ in range(100):
            phi = shared_term_jformula(rng)
            atoms = list(atoms_of(phi))
            expected = [reference_jsat(a, cs) for a in atoms]
            jsat = jsat_test(basis_of(phi), cs)
            assert [jsat(a.signs) for a in atoms] == expected, phi
            assert [jsat(a.signs) for a in reversed(atoms)] == expected[::-1], phi
            junsat += expected.count(False)
        assert junsat > 0


    @pytest.mark.parametrize(
        "cs",
        [CS0, default_cs(), ConstantSpec(schematic={"s": frozenset({"TAUT1"})})],
        ids=["CS0", "default_cs", "s_taut1"],
    )
    def test_cs_forced_positions(self, cs):
        # an assertion is CS-forced iff it is true in every J-satisfiable
        # sign tuple (the tuple that holds only the CS-forced assertions
        # true adds nothing to the closure of cs alone), judged per atom
        rng = random.Random(41)
        forced_seen = unforced_lone_junsat = 0
        for _ in range(150):
            phi = cs_assert_jformula(rng, rng.randint(2, 4))
            basis = basis_of(phi)
            jsat = jsat_test(basis, cs)
            forced = list(jsat.cs_forced())
            jsat_tuples = [a.signs for a in atoms_of(phi) if reference_jsat(a, cs)]
            expected = [
                j for j, b in enumerate(basis)
                if isinstance(b, Assert) and all(t[j] for t in jsat_tuples)
            ]
            assert forced == expected, phi
            # read after cs_forced, the predicate's shared memo still
            # judges every tuple as the per-atom reference does
            atoms = list(atoms_of(phi))
            assert [jsat(a.signs) for a in atoms] == [reference_jsat(a, cs) for a in atoms]
            forced_seen += len(forced)
            for j, b in enumerate(basis):
                lone = Atom(basis, tuple(i != j for i in range(len(basis))))
                if isinstance(b, Assert) and j not in forced and not reference_jsat(lone, cs):
                    unforced_lone_junsat += 1
        assert (forced_seen > 0) == (cs != CS0)
        assert unforced_lone_junsat > 0

    def test_cs_forced_hand_written(self):
        cs = default_cs()
        phi = parse_jformula(
            "c_taut1:(p1 -> (p2 -> p1)) & s:p1 & ~(s+t):p1"
            " & ((c_taut2.c_taut1).c_taut1):(p2 -> p2)"
        )
        basis = basis_of(phi)
        forced = [basis[j] for j in jsat_test(basis, cs).cs_forced()]
        # (s+t):p1 follows from s:p1, not from the constant specification
        assert forced == [
            parse_jformula("c_taut1:(p1 -> (p2 -> p1))"),
            parse_jformula("((c_taut2.c_taut1).c_taut1):(p2 -> p2)"),
        ]


class TestEvalUnderAtom:
    def test_literal_lookup(self):
        a = atom_from(["p1"], ["t:p2"])
        assert eval_under_atom(Prop(1), a)
        assert not eval_under_atom(parse_jformula("p1 & t:p2"), a)

    def test_negated_conjunction(self):
        a = atom_from(["t:p2"], [], props=[(1, False)])
        phi = parse_jformula("~(p1 & ~t:p2)")
        assert eval_under_atom(phi, a)

    def test_basis_mismatch_reported(self):
        a = atom_from(["p1"])
        with pytest.raises(BasisMismatchError):
            eval_under_atom(Prop(2), a)

    def test_matches_truth_table_oracle(self):
        rng = random.Random(23)
        for _ in range(300):
            phi = rand_jformula(rng, depth=3)
            atom = rand_atom_for(rng, phi)
            assert eval_under_atom(phi, atom) == tt_eval(phi, atom)

    def test_depends_only_on_occurring_basics(self):
        # Lemma-style invariance: flipping basis entries outside phi's own
        # basics never changes the value
        rng = random.Random(29)
        for _ in range(200):
            phi = rand_jformula(rng, depth=2)
            extra = rand_jformula(rng, depth=2)
            big = JAnd(phi, extra)
            basis = basis_of(big)
            own = set(basis_of(phi))
            atom = rand_atom_for(rng, basis)
            for i, b in enumerate(basis):
                if b in own:
                    continue
                flipped = Atom(
                    basis,
                    tuple(
                        (not s) if j == i else s
                        for j, s in enumerate(atom.signs)
                    ),
                )
                assert eval_under_atom(phi, atom) == eval_under_atom(phi, flipped)


class TestJformulaSat:
    def test_contradiction(self):
        assert not jformula_sat(parse_jformula("p1 & ~p1"), CS0)

    def test_assertion_satisfiable(self):
        assert jformula_sat(parse_jformula("t:p1"), CS0)

    def test_application_trap(self):
        phi = parse_jformula("s:~(p1 & ~p2) & t:p1 & ~(s.t):p2")
        assert not jformula_sat(phi, CS0)

    def test_syntactic_equivalence_metamorphic(self):
        rng = random.Random(31)
        cs = default_cs()
        for _ in range(40):
            phi = rand_jformula(rng, depth=3)
            expected = jformula_sat(phi, cs)
            assert jformula_sat(JAnd(phi, phi), cs) == expected
            assert jformula_sat(JNot(JNot(phi)), cs) == expected

    def test_wide_contradiction_drops_falsified_prefixes(self):
        # 2^30 sign tuples, every one falsifying phi: the walk drops both
        # values of p1 after a test each
        phi = parse_jformula(" & ".join(f"p{i}" for i in range(1, 31)) + " & ~p1")
        assert jformula_sat(phi, CS0, cap=30) is False

    def test_over_cap_refused_before_any_derivation(self, monkeypatch):
        def no_derivation(*args, **kwargs):
            raise AssertionError("derivation searched before the cap check")

        monkeypatch.setattr(jsem, "derives", no_derivation)
        phi = parse_jformula("c_taut1:(p1 -> p1) & t:p2 & p3")
        with pytest.raises(EnumerationLimitError, match="enumeration cap is 4"):
            jformula_sat(phi, default_cs(), cap=4)
        f = parse_pformula("P>=1/2 (c_taut1:(p1 -> p1) & t:p2 & p3)")
        with pytest.raises(EnumerationLimitError, match="enumeration cap is 4"):
            solve_sat(f, default_cs(), cap=4)

    def test_matches_unfixed_enumeration(self):
        # every atom, none held fixed, judged by truth tables and the
        # per-atom reference filter
        rng = random.Random(43)
        cs = default_cs()
        verdicts = set()
        for i in range(200):
            if i % 2:
                phi = cs_assert_jformula(rng, rng.randint(2, 4))
            else:
                phi = rand_jformula(rng, depth=3, consts=("c_taut1", "c_taut2", "s", "t"))
            for psi in (phi, JNot(phi)):
                if len(basis_of(psi)) > 6:
                    continue
                expected = any(
                    tt_eval(psi, a) and reference_jsat(a, cs) for a in atoms_of(psi)
                )
                assert jformula_sat(psi, cs) == expected, psi
                verdicts.add(expected)
        assert verdicts == {True, False}


class TestAgainstSaturationOracle:
    def test_small_instances(self):
        a = atom_from(["s:~(p1 & ~p2)", "t:p1"], ["(s.t):p2"])
        assert jsat_oracle(a, CS0) == atom_jsat(a, CS0) == False

        b = atom_from(["t:p1"], ["s:p1"])
        assert jsat_oracle(b, CS0) == atom_jsat(b, CS0) == True

    def test_cs_backed_instances(self):
        cs = default_cs()
        a = atom_from(["t:p1"], ["(c_sum_l.t):~(p1 & ~p1)"])
        # c_sum_l justifies only SUM_L instances; the application cannot fire
        assert atom_jsat(a, cs) == jsat_oracle(a, cs)

        b = atom_from(["t:p1"], ["(c_sum_l.t):(s+t):p1"])
        # the argument t would have to justify s:p1 itself; it only has p1
        assert atom_jsat(b, cs) == jsat_oracle(b, cs) == True

        c = atom_from(["u:(s:p1)"], ["(c_sum_l.u):(s+t):p1"])
        # now the SUM_L instance fires through the application
        assert atom_jsat(c, cs) == jsat_oracle(c, cs) == False


class TestAgainstBottomUpClosure:
    # bench/checks.atom_jsat closes the evidence function bottom-up under
    # the default constant specification and shares no code with jsem or
    # cspec

    @staticmethod
    def bench_module(monkeypatch, name):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
        return importlib.import_module(name)

    @classmethod
    def compare(cls, monkeypatch, texts):
        """Check jsat_test against the closure on every sign tuple of each
        formula, given as (name, text) pairs, that has an assertion in its
        basis; count the formulas, the tuples and the J-unsatisfiable
        tuples."""
        checks = cls.bench_module(monkeypatch, "checks")
        cs = default_cs()
        formulas = tuples = unsat = 0
        for name, text in texts:
            basis = basis_of(parse_pformula(text))
            if not any(isinstance(b, Assert) for b in basis):
                continue
            formulas += 1
            jsat = jsat_test(basis, cs)
            for signs in itertools.product((True, False), repeat=len(basis)):
                expected = checks.atom_jsat(dict(zip(basis, signs)))
                assert jsat(signs) == expected, (name, signs)
                tuples += 1
                unsat += not expected
        return formulas, tuples, unsat

    @classmethod
    def compare_family(cls, monkeypatch, family):
        """compare over the formulas of the seed-1 workload family."""
        instances = getattr(cls.bench_module(monkeypatch, "workloads"), family)(1)
        return cls.compare(monkeypatch, [(i.name, i.text) for i in instances])

    def test_deep_evidence_sign_tuples(self, monkeypatch):
        # the formulas of bench/workloads.evidence_family nest applications
        # of (c_taut1+c_taut2) up to four deep
        assert self.compare_family(monkeypatch, "evidence") == (6, 960, 864)

    def test_small_workload_sign_tuples(self, monkeypatch):
        # random formulas over the constants s, t, u, c_app, c_sum_l and
        # c_sum_r, and the closure traps
        assert self.compare_family(monkeypatch, "small") == (204, 2992, 420)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_application_chain_sign_tuples(self, monkeypatch, n):
        # C(n): the negated assertion has one forcing set, the n+1
        # positives, and is derived from them by (hyp) at every leaf.  Its
        # basis is the n+2 assertions and p1..p(n+1), and a tuple is
        # J-unsatisfiable iff it holds the forcing set and negates the chain
        assert self.compare(monkeypatch, [(f"C({n})", chain_formula(n))]) == (
            1, 2 ** (2 * n + 3), 2 ** (n + 1),
        )
