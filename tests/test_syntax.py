import dataclasses
import importlib
import itertools
import pathlib
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pjsat.syntax import (
    App,
    Assert,
    AtLeast,
    Bang,
    Const,
    EnumerationLimitError,
    JAnd,
    JNot,
    PAnd,
    PNot,
    ParseError,
    Prop,
    Sum,
    Var,
    assignments,
    atoms_of,
    basis_of,
    jformula_str,
    norm,
    p_level,
    parse_jformula,
    parse_pformula,
    parse_term,
    pformula_str,
    size_p,
    size_rat,
    subf,
    term_str,
    truth_test,
    weight_size_bound,
    within_cap,
)
from pjsat.syntax import _tokens

from _gen import rand_atom_for, rand_jformula, rand_pformula, rand_term
from _oracles import _tokenize as ref_tokenize, p_occurrences, ref_parse, ref_tokens, tt_eval


def _outcome(parse, text):
    """The tree, the error's (message, pos), or "recursion"."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.args[0], exc.pos
    except RecursionError:
        return "recursion"


class TestParsing:
    def test_pge_direct(self):
        assert parse_pformula("P>=1/2 p1") == AtLeast(Fraction(1, 2), Prop(1))

    def test_plt_sugar(self):
        assert parse_pformula("P<1/2 p1") == PNot(AtLeast(Fraction(1, 2), Prop(1)))

    def test_threshold_out_of_range(self):
        with pytest.raises(ParseError):
            parse_pformula("P>=3/2 p1")

    def test_threshold_reduced(self):
        f = parse_pformula("P>=2/4 p1")
        assert f.threshold == Fraction(1, 2)

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_pformula("P>= p1")

    def test_term_precedence(self):
        # application binds tighter than '+', '!' is prefix
        assert parse_term("a+b.c") == Sum(Const("a"), App(Const("b"), Const("c")))
        assert parse_term("!a.b") == App(Bang(Const("a")), Const("b"))
        assert parse_term("!(a+b)") == Bang(Sum(Const("a"), Const("b")))
        assert parse_term("x1+x2") == Sum(Var(1), Var(2))

    def test_assert_right_associated(self):
        f = parse_jformula("t:s:p1")
        assert f == Assert(Const("t"), Assert(Const("s"), Prop(1)))

    def test_assert_binds_tighter_than_not(self):
        assert parse_jformula("~t:p1") == JNot(Assert(Const("t"), Prop(1)))
        assert parse_jformula("t:~p1") == Assert(Const("t"), JNot(Prop(1)))

    def test_paren_term_before_colon(self):
        f = parse_jformula("(a+b):p1")
        assert f == Assert(Sum(Const("a"), Const("b")), Prop(1))

    def test_implication_sugar(self):
        f = parse_jformula("p1 -> p2")
        assert f == JNot(JAnd(Prop(1), JNot(Prop(2))))

    def test_disjunction_sugar(self):
        f = parse_jformula("p1 | p2")
        assert f == JNot(JAnd(JNot(Prop(1)), JNot(Prop(2))))

    def test_comment_and_whitespace(self):
        f = parse_pformula("P>=1/2  p1 # trailing comment")
        assert f == AtLeast(Fraction(1, 2), Prop(1))

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_pformula("P>=1/2 p1 &")
        assert exc.value.pos == 11

    def test_chains_associate_left(self):
        a, b, c = Const("a"), Const("b"), Const("c")
        p1, p2, p3 = Prop(1), Prop(2), Prop(3)
        q1, q2, q3 = (AtLeast(Fraction(1), p) for p in (p1, p2, p3))
        jor = lambda f, g: JNot(JAnd(JNot(f), JNot(g)))  # noqa: E731
        assert parse_term("a+b+c") == Sum(Sum(a, b), c)
        assert parse_term("a.b.c") == App(App(a, b), c)
        assert parse_jformula("p1 & p2 & p3") == JAnd(JAnd(p1, p2), p3)
        assert parse_jformula("p1 | p2 | p3") == jor(jor(p1, p2), p3)
        assert parse_pformula("P>=1 p1 & P>=1 p2 & P>=1 p3") == PAnd(PAnd(q1, q2), q3)

    def test_matches_reference_parser(self, monkeypatch):
        # workload texts of seeds 1-3, printed random formulas, their
        # single-token mutants and long numerals, through all three entry
        # points of both parsers
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        texts = {i.text for make in workloads.WORKLOADS.values() for seed in (1, 2, 3)
                 for i in make(seed)}
        rng = random.Random(23)
        texts = sorted(texts) + [pformula_str(rand_pformula(rng)) for _ in range(100)]
        texts += [jformula_str(rand_jformula(rng)) for _ in range(100)]
        texts += [term_str(rand_term(rng)) for _ in range(100)]
        strays = ["$", " $", "(", ")", ":", "~", "&", "#c\n"]
        inputs = list(texts)
        for n, t in enumerate(texts):
            spans = [(pos, pos + len(tok)) for _, tok, pos, _ in ref_tokenize(t)[:-1]]
            (a, b), (c, _) = rng.choice(spans), rng.choice(spans)
            inputs.append(t[:a] + t[b:])  # deleted
            inputs.append(t[:b] + t[a:b] + t[b:])  # duplicated
            if c < a:  # moved
                inputs.append(t[:c] + t[a:b] + " " + t[c:a] + t[b:])
            inputs.append(t[:a] + strays[n % len(strays)] + t[a:])
        digits = "7" * 5000
        inputs += [f"P>=1/{digits} p1", f"P>=1/2 p{digits}", f"x{digits}", f"P>=1/2 $ {digits}",
                   f"P>= p1 & P>=1/{digits} p2", "(" * 3000 + f"P>=1/{digits} p1"]
        errors = 0
        for text in inputs:
            for parse, rule in ((parse_pformula, "pformula"), (parse_jformula, "jformula"),
                                (parse_term, "term")):
                got = _outcome(parse, text)
                assert got == _outcome(lambda s: ref_parse(s, rule), text), (rule, text)
                errors += isinstance(got, tuple)
        assert errors > 1000

    @pytest.mark.parametrize("text", [
        "P>=1/2 s" + "a" * 20000 + "$",
        " " * 20000 + "$",
        "P>=1/2 " + "(" * 3000 + "$",
    ])
    def test_linear_time_before_a_stray_character(self, text):
        # a pattern that matched the whole text as (whitespace token)*
        # would backtrack exponentially here before failing
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"unexpected character '\$'"):
            parse_pformula(text)
        assert time.perf_counter() - start < 1

    def test_linear_time_on_an_unclosed_run(self):
        # the lookahead at '(' scans the run once, not once per nesting level
        start = time.perf_counter()
        with pytest.raises(RecursionError):
            parse_pformula("P>=1/2 " + "(" * 300000)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("parse, text, message, pos", [
        (parse_pformula, "P>=1/2 p1 $", "unexpected character '$'", 10),
        (parse_jformula, "(s.t):)", "expected ':', found ')'", 4),
        (parse_pformula, "P>=1/2 (p1 & p2", "expected ')', found ''", 15),
        (parse_term, "(a.b", "expected ')', found ''", 4),
        (parse_pformula, "P>=1/0 p1", "zero denominator", 3),
        (parse_pformula, "P>=1/2 p1 &", "expected a probability formula", 11),
        (parse_jformula, "p1 & p2 &", "expected a justification formula", 9),
    ])
    def test_error_lines(self, parse, text, message, pos):
        # recorded from the earlier parser, which backtracked by exception
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {pos})"
        assert exc.value.pos == pos

    def test_non_ascii_word_character_is_stray(self):
        # 'é' is a str identifier, but no word of the language
        with pytest.raises(ParseError) as exc:
            parse_pformula("P>=1/2 é:p1")
        assert str(exc.value) == "unexpected character 'é' (at position 7)"

    def test_unicode_digits_are_a_numeral(self):
        assert parse_pformula("P>=١٢/١٣ p1") == AtLeast(Fraction(12, 13), Prop(1))

    def test_scan_matches_reference_scan(self):
        # random runs of every token class, strays, Unicode digits and
        # spaces, comments and a numeral past the int-string limit, joined
        # with and without spaces so that tokens also run together
        pieces = (
            ["P>=", "P<", "->", "P", "p", "p1", "p12", "p12a", "x", "x3", "s", "c_taut1", "_t"]
            + ["0", "12", "١٢", "٣", "7" * 5000]
            + list("~&():.+!/|")
            + ["$", ">", "-", "=", "é", "€"]
            + ["#c\n", "# é $\n", "#"]
        )
        weights = [4] * 13 + [3] * 4 + [1] + [4] * 10 + [1] * 6 + [1] * 3
        spaces = ["", "", " ", "  ", "\t", "\n", "\xa0"]
        rng = random.Random(33)
        clean = strays = 0
        for _ in range(20000):
            n = rng.randint(1, 12)
            text = "".join(p + rng.choice(spaces) for p in rng.choices(pieces, weights, k=n))
            ref = ref_tokens(text)
            if not isinstance(ref, int):
                assert _tokens(text) == ref + [""], text
                clean += 1
                continue
            strays += 1
            with pytest.raises(ParseError) as first:  # the earlier tokenizer's error
                ref_tokenize(text)
            if first.value.pos < ref:  # a numeral past the limit, reported first
                assert first.value.args[0].startswith("numeral too long")
            else:
                assert str(first.value) == f"unexpected character {text[ref]!r} (at position {ref})"
            for parse in (parse_pformula, parse_jformula, parse_term):
                with pytest.raises(ParseError) as exc:
                    parse(text)
                assert str(exc.value) == str(first.value)
        assert clean > 5000 and strays > 5000

    def test_nested_term_groups_before_colon_are_an_assertion(self):
        f = Assert(App(App(Const("s"), Const("t")), Const("u")), Prop(1))
        assert parse_jformula("((s.t)).u:p1") == f
        assert parse_pformula("P>=1/2 ((s.t)).u:p1") == AtLeast(Fraction(1, 2), f)
        # a run of '(' is scanned once; a factor after '|' starts a run of its own
        assert parse_jformula("((p1) | (s):p2)") == parse_jformula("p1 | s:p2")

    def test_threshold_range_checked_on_construction(self):
        for t in (Fraction(3, 2), Fraction(-1, 2), 2):
            with pytest.raises(ValueError, match=rf"^threshold {t} outside \[0,1\]$"):
                AtLeast(t, Prop(1))
        for t in (0, 1, Fraction(1, 3)):
            assert AtLeast(t, Prop(1)).threshold == t

    def test_probability_level_shares_the_connectives(self):
        # P-level ~ and & are the justification nodes; the P-level names alias them
        assert PNot is JNot and PAnd is JAnd
        p1, p2 = Prop(1), Prop(2)
        f = JNot(JAnd(AtLeast(Fraction(1, 2), p1), JNot(AtLeast(Fraction(1, 3), JAnd(p1, p2)))))
        assert parse_pformula("~(P>=1/2 p1 & P<1/3 (p1 & p2))") == f
        assert parse_pformula(pformula_str(f)) == f
        # p_level walks only the connectives above AtLeast leaves
        for g in (JAnd(Prop(1), Prop(2)), Prop(1)):
            with pytest.raises(TypeError, match="not a probability formula"):
                p_level(g)


def _terms(depth):
    leaf = st.one_of(
        st.sampled_from([Const("a"), Const("b"), Const("s_1")]),
        st.integers(1, 3).map(Var),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: App(*p)),
            st.tuples(inner, inner).map(lambda p: Sum(*p)),
            inner.map(Bang),
        ),
        max_leaves=depth,
    )


def _jformulas():
    leaf = st.integers(1, 3).map(Prop)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(JNot),
            st.tuples(inner, inner).map(lambda p: JAnd(*p)),
            st.tuples(_terms(4), inner).map(lambda p: Assert(*p)),
        ),
        max_leaves=8,
    )


def _pformulas():
    thresholds = st.sampled_from(
        [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), Fraction(1)]
    )
    leaf = st.tuples(thresholds, _jformulas()).map(lambda p: AtLeast(*p))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(PNot),
            st.tuples(inner, inner).map(lambda p: PAnd(*p)),
        ),
        max_leaves=6,
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_terms(6))
    def test_terms(self, t):
        assert parse_term(term_str(t)) == t

    @settings(max_examples=300, deadline=None)
    @given(_jformulas())
    def test_jformulas(self, f):
        assert parse_jformula(jformula_str(f)) == f

    @settings(max_examples=300, deadline=None)
    @given(_pformulas())
    def test_pformulas(self, f):
        assert parse_pformula(pformula_str(f)) == f


class TestSubfAndBasis:
    def test_subf_prop(self):
        assert subf(Prop(1)) == {Prop(1)}

    def test_subf_assert(self):
        f = parse_jformula("t:p1")
        assert subf(f) == {f, Prop(1)}

    def test_subf_pformula_mixes_languages(self):
        f = parse_pformula("P>=1/2 (p1 & p2)")
        body = parse_jformula("p1 & p2")
        assert subf(f) == {f, body, Prop(1), Prop(2)}

    def test_subf_monotone(self):
        f = parse_pformula("~(P>=1/2 (p1 & t:p2) & P>=1 p3)")
        for g in subf(f):
            assert subf(g) <= subf(f)

    def test_basis_single(self):
        assert basis_of(parse_pformula("P>=1/2 p1")) == (Prop(1),)

    def test_basis_nested_assertions(self):
        f = parse_pformula("P>=1/2 t:s:p1")
        inner = parse_jformula("s:p1")
        outer = parse_jformula("t:s:p1")
        assert set(basis_of(f)) == {Prop(1), inner, outer}
        # propositions first, then assertions by printed string
        assert basis_of(f)[0] == Prop(1)

    def test_basis_dedup(self):
        f = parse_pformula("P>=1 (p1 & ~p1)")
        assert basis_of(f) == (Prop(1),)

    def test_basis_of_several_is_that_of_their_conjunction(self):
        rng = random.Random(131)
        for _ in range(200):
            a = rand_jformula(rng, depth=rng.randint(0, 3))
            b = rand_jformula(rng, depth=rng.randint(0, 3))
            assert basis_of(a, b) == basis_of(JAnd(a, b)), (a, b)
            assert basis_of(a, a) == basis_of(a)

    def test_basis_of_no_formulas(self):
        assert basis_of() == ()


def _always(values):
    return True


class TestAtoms:
    def test_two_atoms_over_one_prop(self):
        atoms = list(atoms_of(parse_pformula("P>=1/2 p1")))
        assert len(atoms) == 2
        assert {a.signs for a in atoms} == {(True,), (False,)}

    def test_four_atoms_over_two_basics(self):
        f = parse_jformula("p1 & t:p1")
        atoms = list(atoms_of(f))
        assert len(atoms) == 4
        assert len(set(atoms)) == 4

    def test_nested_body_props_join_basis(self):
        # p2 is a subformula of the assertion body, so it enters the basis
        f = parse_jformula("p1 & t:p2")
        assert set(basis_of(f)) == {Prop(1), Prop(2), parse_jformula("t:p2")}

    def test_enumeration_cap(self):
        f = parse_jformula(" & ".join(f"p{i}" for i in range(1, 6)))
        with pytest.raises(EnumerationLimitError):
            list(atoms_of(f, cap=4))
        assert len(list(atoms_of(f, cap=5))) == 32

    def test_sign_tuples_order(self):
        rng = random.Random(97)
        for _ in range(40):
            f = rand_pformula(rng, depth=2)
            basis = basis_of(f)
            if len(basis) > 8:
                continue
            tuples = list(assignments(_always, len(basis)))
            assert tuples == list(
                itertools.product((True, False), repeat=len(basis))
            )
            assert tuples == [a.signs for a in atoms_of(f)]

    def test_sign_tuples_refuse_when_called(self):
        # no iteration: the checks must not wait for the first tuple
        basis = basis_of(parse_jformula("p1 & p2 & p3"))
        with pytest.raises(EnumerationLimitError):
            within_cap(basis, cap=2)
        with pytest.raises(ValueError):
            within_cap((), cap=2)
        assert within_cap(basis, cap=3) == basis
        with pytest.raises(EnumerationLimitError):
            atoms_of(parse_jformula("p1 & p2 & p3"), cap=2)

    def test_sign_tuples_fixed_positions(self):
        # the full product order, filtered to the tuples true at `fixed`
        for n in range(1, 8):
            full = list(itertools.product((True, False), repeat=n))
            for r in range(n + 1):
                for fixed in itertools.combinations(range(n), r):
                    expected = [t for t in full if all(t[i] for i in fixed)]
                    assert list(assignments(_always, n, fixed)) == expected
                    assert list(assignments(_always, n, iter(fixed))) == expected

    def test_sign_tuples_fixed_refused_over_cap(self):
        # the fixed positions are read on the first next(), so a caller
        # that checks the cap first refuses before reading them
        basis = basis_of(parse_jformula("p1 & p2 & p3"))

        def unread():
            raise AssertionError("fixed positions read before the cap check")
            yield

        walk = assignments(_always, len(basis), unread())
        with pytest.raises(EnumerationLimitError):
            within_cap(basis, cap=2)
        with pytest.raises(AssertionError):
            next(walk)

    def test_atom_string_round_trips_by_signs(self):
        f = parse_jformula("p1 & t:p2")
        for atom in atoms_of(f):
            s = str(atom)
            assert ("~p1" in s) != atom.signs[0]


class TestSizes:
    def test_size_p(self):
        assert size_p(parse_pformula("P>=1/2 p1")) == 2
        assert size_p(parse_pformula("~P>=1/2 p1")) == 3
        assert size_p(parse_pformula("P>=1 p1 & ~P>=1/2 p2")) == 6

    def test_size_p_strictly_increases(self):
        f = parse_pformula("P>=1/2 p1")
        assert size_p(PNot(f)) > size_p(f)
        assert size_p(PAnd(f, f)) > size_p(f)

    def test_size_rat(self):
        assert size_rat(Fraction(0)) == 2
        assert size_rat(Fraction(1, 2)) == 3
        assert size_rat(Fraction(3, 4)) == 5

    def test_norm(self):
        assert norm(parse_pformula("P>=1/2 p1")) == 3
        assert norm(parse_pformula("P>=3/4 p1 & ~P>=1/2 p2")) == 5
        assert norm(parse_pformula("P>=0 p1")) == size_rat(Fraction(0))

    def test_measures_past_the_recursion_limit(self):
        # P-levels built in code, deeper than the default recursion limit:
        # 5000 nested negations, and a left-deep chain of 3000 conjunctions
        half = Fraction(1, 2)
        negated = AtLeast(half, Prop(1))
        for _ in range(5000):
            negated = PNot(negated)
        chain = AtLeast(half, Prop(0))
        for i in range(1, 3001):
            chain = PAnd(chain, AtLeast(half, Prop(i % 7)))
        for f, size, bound in ((negated, 5002, 152946), (chain, 9002, 290515)):
            assert size_p(f) == size
            assert norm(f) == 3
            assert weight_size_bound(f) == bound
        assert len(p_level(chain)[0]) == 7

    def test_measures_match_the_gate_checker(self, monkeypatch):
        # bench/checks.py walks the P-level by its own PNot/PAnd names, so
        # its measures agree with these only while those alias the J nodes
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
        checks = importlib.import_module("checks")
        workloads = importlib.import_module("workloads")
        count = 0
        for make in workloads.WORKLOADS.values():
            for seed in (1, 2, 3):
                for instance in make(seed):
                    f = parse_pformula(instance.text)
                    assert checks.size_p(f) == size_p(f), instance.name
                    assert checks.weight_bound(f) == weight_size_bound(f), instance.name
                    count += 1
        assert count == 1167


class TestAtomDistinctness:
    def test_no_shared_truth_assignment(self):
        rng = random.Random(7)
        f = parse_jformula("p1 & t:p2 & s:p1")
        atoms = list(atoms_of(f))
        for _ in range(50):
            a, b = rng.sample(atoms, 2)
            assert a.signs != b.signs


def _dict_eval(f, assignment):
    """Reference evaluator over a dict from leaves to truth values."""
    if isinstance(f, (JNot, PNot)):
        return not _dict_eval(f.body, assignment)
    if isinstance(f, (JAnd, PAnd)):
        return _dict_eval(f.left, assignment) and _dict_eval(f.right, assignment)
    return assignment[f]


class TestTruthTest:
    def test_jformula_matches_truth_table_oracle(self):
        rng = random.Random(83)
        for _ in range(200):
            phi = rand_jformula(rng, depth=3)
            atom = rand_atom_for(rng, phi)
            index = {b: i for i, b in enumerate(atom.basis)}
            assert truth_test(phi, index)(atom.signs) == tt_eval(phi, atom)

    def test_pformula_matches_dict_reference(self):
        rng = random.Random(89)
        for _ in range(60):
            f = rand_pformula(rng, depth=3)
            occs = p_occurrences(f)
            test = truth_test(f, {occ: i for i, occ in enumerate(occs)})
            for bits in itertools.product((True, False), repeat=len(occs)):
                assert test(bits) == _dict_eval(f, dict(zip(occs, bits)))

    def test_partial_verdicts_agree_with_every_completion(self):
        # None marks an unknown leaf; a decided verdict must be the value
        # of f under every way of filling the unknowns in
        rng = random.Random(97)
        decided = 0
        for _ in range(300):
            f = rand_pformula(rng, depth=3)
            occs = p_occurrences(f)
            test = truth_test(f, {occ: i for i, occ in enumerate(occs)})
            partial = [rng.choice((True, False, None)) for _ in occs]
            verdict = test(partial)
            if verdict is None:
                continue
            decided += 1
            unknown = [i for i, v in enumerate(partial) if v is None]
            for fill in itertools.product((True, False), repeat=len(unknown)):
                full = list(partial)
                for i, v in zip(unknown, fill):
                    full[i] = v
                assert verdict == _dict_eval(f, dict(zip(occs, full))), f
        assert decided > 100

    def test_kleene_verdicts_by_hand(self):
        f = parse_pformula("~(P>=1/2 p1 & ~P>=1 p2) & P>=1/3 p3")
        occs = p_occurrences(f)
        test = truth_test(f, {occ: i for i, occ in enumerate(occs)})
        assert test([None] * 3) is None
        assert test([None, None, False]) is False
        assert test([True, False, None]) is False
        assert test([True, True, None]) is None
        assert test([False, None, True]) is True

    def test_leaf_outside_index(self):
        with pytest.raises(KeyError):
            truth_test(parse_jformula("p1 & ~t:p2"), {Prop(1): 0})
        with pytest.raises(KeyError):
            truth_test(parse_pformula("~P>=1/2 p1"), {})

    def test_p_occurrences_in_first_occurrence_order(self):
        f = parse_pformula("~(P>=1/2 p2 & P>=1 p1) & P>=1/2 p2 & P>=0 p3")
        occs, size = p_level(f)
        assert occs == [
            parse_pformula("P>=1/2 p2"),
            parse_pformula("P>=1 p1"),
            parse_pformula("P>=0 p3"),
        ]
        assert size == 12


def _walk(f, fixed=()):
    """assignments over f's P-level, with f's occurrences."""
    occs = p_occurrences(f)
    holds = truth_test(f, {occ: i for i, occ in enumerate(occs)})
    return list(assignments(holds, len(occs), fixed))


class TestAssignments:
    def test_matches_filtered_product(self):
        rng, fixed_rng = random.Random(101), random.Random(103)
        for _ in range(600):
            f = rand_pformula(rng, depth=rng.randrange(1, 5))
            occs = p_occurrences(f)
            n = len(occs)
            fixed = [i for i in range(n) if fixed_rng.random() < 0.25]
            expected = [
                bits
                for bits in itertools.product((True, False), repeat=n)
                if _dict_eval(f, dict(zip(occs, bits)))
            ]
            assert _walk(f) == expected, f
            expected = [bits for bits in expected if all(bits[i] for i in fixed)]
            assert _walk(f, fixed) == expected, (f, fixed)

    def test_wide_conjunction_yields_its_one_assignment(self):
        # 2^80 assignments, one of which satisfies f
        lits = [f"P>={j}/81 p{j % 3}" for j in range(1, 80)] + ["~P>=1/2 p5"]
        f = parse_pformula(" & ".join(lits))
        assert _walk(f) == [(True,) * 79 + (False,)]

    def test_decided_prefix_yields_every_completion(self):
        # the first literal true decides the disjunction; all completions
        # follow in product order, then those with it false
        f = parse_pformula("~(~P>=1/2 p1 & ~(P>=1/2 p2 & P>=1/2 p3))")
        assert _walk(f) == [
            (True, True, True),
            (True, True, False),
            (True, False, True),
            (True, False, False),
            (False, True, True),
        ]

    def test_negated_conjunction_tests_linearly_many_prefixes(self):
        # each prefix with one more True is False at once, so the walk
        # tests the root and two prefixes per position: 2n + 1 calls
        n = 200
        f = parse_pformula(" & ".join(f"~P>={j}/{n + 1} p1" for j in range(1, n + 1)))
        occs = p_occurrences(f)
        test = truth_test(f, {occ: i for i, occ in enumerate(occs)})
        calls = 0

        def holds(values):
            nonlocal calls
            calls += 1
            return test(values)

        assert list(assignments(holds, n)) == [(False,) * n]
        assert calls <= 2 * n + 1


class TestNodeHash:
    TEXT = "P>=1/2 (s.!t+x1):(p1 & ~p2) & ~P>=1/3 t:p3"

    def test_equal_nodes_hash_equal_before_and_after_hashing(self):
        a, b = parse_pformula(self.TEXT), parse_pformula(self.TEXT)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        c = parse_pformula(self.TEXT)
        hash(c.right.body.body)  # a subtree first, then the root
        assert c == a
        assert hash(c) == hash(a)
        assert a == parse_pformula(self.TEXT)

    def test_hash_is_kept_and_reused(self):
        a = parse_pformula(self.TEXT)
        h = hash(a)
        assert a._hash == h
        assert hash(a) == h

    def test_dict_key_found_through_fresh_node(self):
        keyed = {g: i for i, g in enumerate(subf(parse_pformula(self.TEXT)))}
        for g in subf(parse_pformula(self.TEXT)):
            assert g in keyed
        assert keyed[parse_jformula("t:p3")] >= 0

    def test_repr_and_fields_unchanged_by_hashing(self):
        a = parse_pformula(self.TEXT)
        before = repr(a)
        hash(a)
        assert repr(a) == before
        assert "_hash" not in before
        assert [f.name for f in dataclasses.fields(a)] == ["left", "right"]
        assert dataclasses.astuple(a.left)[0] == Fraction(1, 2)

    def test_threshold_hash_over_its_value(self):
        b = parse_jformula("t:(p1 & ~p2)")
        for x, y in ((Fraction(2, 4), Fraction(1, 2)), (1, Fraction(1))):
            f, g = AtLeast(x, b), AtLeast(y, b)
            assert f == g
            assert hash(f) == hash(g)

    def test_pickle_drops_kept_hash(self):
        a = parse_pformula(self.TEXT)
        hash(a)
        b = pickle.loads(pickle.dumps(a))
        assert b == a
        assert "_hash" not in vars(b) and "_hash" not in vars(b.left)  # b.left: an AtLeast
        assert hash(b) == hash(a)
        assert hash(b.left) == hash(a.left)
