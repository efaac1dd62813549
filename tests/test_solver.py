import itertools
import random
from fractions import Fraction

import pytest

from pjsat.cspec import default_cs
from pjsat.jsem import BasisMismatchError, atom_jsat, eval_under_atom, jformula_sat
from pjsat.linrat import Rel, feasible
from pjsat.solver import (
    PLiteral,
    SmallModel,
    build_system,
    certify_model,
    check_model,
    format_model,
    lift_to_p1,
    p_dnf,
    parse_model,
    solve_sat,
    valid,
)
from pjsat.syntax import (
    AtLeast,
    Atom,
    JAnd,
    PAnd,
    PNot,
    Prop,
    atoms_of,
    basis_of,
    parse_jformula,
    parse_pformula,
    size_p,
)

from _gen import THRESHOLDS, rand_jformula, rand_pformula, trap_jformula

CS = default_cs()
F = Fraction


def model_of(*pairs):
    basis = pairs[0][0].basis
    return SmallModel(tuple(pairs), basis)


def atom(basis, signs):
    return Atom(tuple(basis), tuple(signs))


def _eval_boolean(f, assignment) -> bool:
    """Reference P-level evaluator over a dict keyed by AtLeast nodes."""
    if isinstance(f, AtLeast):
        return assignment[f]
    if isinstance(f, PNot):
        return not _eval_boolean(f.body, assignment)
    return _eval_boolean(f.left, assignment) and _eval_boolean(f.right, assignment)


class TestPDnf:
    def test_single_literal(self):
        d = p_dnf(parse_pformula("P>=1/2 p1"))
        assert d.disjuncts == (
            (PLiteral(Prop(1), Rel.GE, F(1, 2)),),
        )

    def test_negation_becomes_strict(self):
        d = p_dnf(parse_pformula("~P>=1/2 p1"))
        assert d.disjuncts == (
            (PLiteral(Prop(1), Rel.LT, F(1, 2)),),
        )

    def test_contradiction_empty(self):
        d = p_dnf(parse_pformula("P>=1 p1 & ~P>=1 p1"))
        assert d.disjuncts == ()

    def test_boolean_equivalence(self):
        # for every assignment to the occurrences the DNF agrees with f
        rng = random.Random(61)
        for _ in range(60):
            f = rand_pformula(rng, depth=3)
            from pjsat.solver import _p_occurrences

            occs = _p_occurrences(f)
            d = p_dnf(f)
            lit_of = {
                (occ.body, occ.threshold): occ for occ in occs
            }
            for bits in itertools.product((True, False), repeat=len(occs)):
                assign = dict(zip(occs, bits))
                direct = _eval_boolean(f, assign)
                via_dnf = any(
                    all(
                        assign[lit_of[(lit.body, lit.threshold)]]
                        == (lit.rel is Rel.GE)
                        for lit in conj
                    )
                    for conj in d.disjuncts
                )
                assert direct == via_dnf

    def test_disjunct_length_bound(self):
        rng = random.Random(67)
        for _ in range(40):
            f = rand_pformula(rng, depth=3)
            for conj in p_dnf(f).disjuncts:
                assert len(conj) <= size_p(f) - 1


def columns_of(bodies, atoms):
    """Each body's 0/1 column over the atoms, from eval_under_atom."""
    return {b: tuple(int(eval_under_atom(b, a)) for a in atoms) for b in bodies}


class TestBuildSystem:
    def test_single_literal_rows(self):
        f = parse_pformula("P>=1/2 p1")
        atoms = list(atoms_of(f))
        columns = columns_of([Prop(1)], atoms)
        s = build_system([PLiteral(Prop(1), Rel.GE, F(1, 2))], columns)
        assert len(s.rows) == 2
        assert s.rows[0].coeffs == (F(1), F(1))
        assert s.rows[0].rel is Rel.EQ and s.rows[0].rhs == 1
        # membership row follows eval_under_atom
        expected = tuple(
            F(1) if eval_under_atom(Prop(1), a) else F(0) for a in atoms
        )
        assert s.rows[1].coeffs == expected

    def test_empty_conjunction(self):
        f = parse_pformula("P>=1/2 p1")
        atoms = list(atoms_of(f))
        s = build_system([], columns_of([Prop(1)], atoms))
        assert len(s.rows) == 1

    def test_empty_membership_is_infeasible_row(self):
        f = parse_pformula("P>=1 p1")
        neg_only = [a for a in atoms_of(f) if not a.signs[0]]
        s = build_system(
            [PLiteral(Prop(1), Rel.GE, F(1))], columns_of([Prop(1)], neg_only)
        )
        assert s.rows[1].coeffs == (F(0),)
        from pjsat.linrat import feasible

        assert feasible(s) is None

    def test_body_outside_basis(self):
        atoms = list(atoms_of(parse_pformula("P>=1/2 p1")))
        with pytest.raises(BasisMismatchError):
            model_of((atoms[0], F(1))).measure(Prop(2))


class TestSolveSat:
    def test_split_mass(self):
        m = solve_sat(parse_pformula("P>=1/2 p1 & P>=1/2 ~p1"), CS)
        assert m is not None
        assert sum(w for _, w in m.worlds) == 1
        assert check_model(m, parse_pformula("P>=1/2 p1 & P>=1/2 ~p1"))

    def test_unsat_threshold_conflict(self):
        assert solve_sat(parse_pformula("P>=1 p1 & ~P>=1/2 p1"), CS) is None

    def test_threshold_zero_trivial(self):
        assert solve_sat(parse_pformula("P>=0 t:p1"), CS) is not None

    def test_application_trap_unsat(self):
        f = parse_pformula("P>=1 s:~(p1 & ~p2) & P>=1 t:p1 & ~P>=1 (s.t):p2")
        assert solve_sat(f, CS) is None

    def test_emitted_models_certify(self):
        rng = random.Random(71)
        sats = 0
        for _ in range(40):
            f = rand_pformula(rng, depth=2, body_depth=2)
            try:
                m = solve_sat(f, CS, cap=8)
            except Exception as exc:
                if "enumeration cap" in str(exc):
                    continue
                raise
            if m is not None:
                sats += 1
                assert certify_model(m, f, CS) == []
                for a, _ in m.worlds:
                    assert atom_jsat(a, CS)
        assert sats > 5


    def test_models_are_basic_solutions(self):
        # a basic solution's positive weights sit on independent columns,
        # so a model has at most one world per row of its system
        rng = random.Random(79)
        sats = 0
        for _ in range(60):
            f = rand_pformula(rng, depth=3, body_depth=2)
            if len(basis_of(f)) > 8:
                continue
            systems = []
            m = solve_sat(f, CS, on_system=systems.append)
            if m is not None:
                sats += 1
                assert len(m.worlds) <= len(systems[-1].rows), f
        assert sats > 10


def overlapping_pformula(rng, literals=4):
    """P-literals over a pool of three bodies, one of them an application
    trap so that some atoms are J-unsatisfiable: bodies repeat across
    literals and share basic subformulas through conjunctions."""
    pool = [
        rand_jformula(rng, depth=2, consts=("s", "t", "c_app"), props=3),
        rand_jformula(rng, depth=2, consts=("s", "t", "c_app"), props=3),
        trap_jformula(rng),
    ]
    f = None
    for _ in range(literals):
        body = rng.choice(pool)
        if rng.random() < 0.3:
            body = JAnd(body, rng.choice(pool))
        g = AtLeast(rng.choice(THRESHOLDS), body)
        if rng.random() < 0.3:
            g = PNot(g)
        if f is None:
            f = g
        elif rng.random() < 0.3:  # P-level disjunction
            f = PNot(PAnd(PNot(f), PNot(g)))
        else:
            f = PAnd(f, g)
    return f


class TestSignatureDedup:
    def test_dedup_is_sound(self):
        rng = random.Random(83)
        tried = sats = merged = 0
        while tried < 30:
            f = overlapping_pformula(rng)
            if not 4 <= len(basis_of(f)) <= 6:
                continue
            tried += 1
            systems = []
            m = solve_sat(f, CS, on_system=systems.append)
            for s in systems:
                columns = list(zip(*(row.coeffs for row in s.rows)))
                assert len(set(columns)) == len(columns)
            every_jsat = [a for a in atoms_of(f) if atom_jsat(a, CS)]
            undeduplicated = any(
                feasible(
                    build_system(conj, columns_of([lit.body for lit in conj], every_jsat))
                )
                is not None
                for conj in p_dnf(f).disjuncts
            )
            assert (m is not None) == undeduplicated, f
            if m is not None:
                sats += 1
                assert certify_model(m, f, CS) == []
            if systems and systems[0].var_count < len(every_jsat):
                merged += 1
        # the corpus exercises both verdicts and actually merges columns
        assert 0 < sats < tried
        assert merged > tried // 2


class TestCheckModel:
    def test_point_mass(self):
        f = parse_pformula("P>=1 p1")
        a = atom(basis_of(f), (True,))
        assert check_model(model_of((a, F(1))), f)
        assert not check_model(model_of((a, F(1))), PNot(f))

    def test_split_below_threshold(self):
        f = parse_pformula("P>=2/3 p1")
        b = basis_of(f)
        m = model_of((atom(b, (True,)), F(1, 2)), (atom(b, (False,)), F(1, 2)))
        assert not check_model(m, f)

    def test_basis_mismatch(self):
        f = parse_pformula("P>=1 p2")
        a = atom(basis_of(parse_pformula("P>=1 p1")), (True,))
        with pytest.raises(BasisMismatchError):
            check_model(model_of((a, F(1))), f)


class TestValid:
    def test_excluded_middle_style(self):
        assert valid(parse_pformula("~(P>=1 p1 & ~P>=1 p1)"), CS)

    def test_contingent_not_valid(self):
        assert not valid(parse_pformula("P>=1 p1"), CS)

    def test_trap_complement_valid(self):
        f = parse_pformula(
            "~(P>=1 s:~(p1 & ~p2) & P>=1 t:p1 & ~P>=1 (s.t):p2)"
        )
        assert valid(f, CS)


class TestLift:
    def test_shape(self):
        assert lift_to_p1(Prop(1)) == AtLeast(F(1), Prop(1))
        body = parse_jformula("t:p1")
        assert lift_to_p1(body) == AtLeast(F(1), body)

    def test_reduction_on_trap(self):
        alpha = parse_jformula("s:~(p1 & ~p2) & t:p1 & ~(s.t):p2")
        assert jformula_sat(alpha, CS) is False
        assert solve_sat(lift_to_p1(alpha), CS) is None


class TestModelFormat:
    def test_round_trip(self):
        f = parse_pformula("P>=1/2 p1 & P>=1/2 ~p1")
        m = solve_sat(f, CS)
        text = format_model(m)
        assert text.splitlines()[0] == "SAT"
        assert text.splitlines()[-1] == "check PASS"
        m2 = parse_model(text, f)
        assert m2.worlds == m.worlds
        assert certify_model(m2, f, CS) == []

    def test_rejects_garbage(self):
        from pjsat.solver import ModelFormatError

        f = parse_pformula("P>=1/2 p1")
        with pytest.raises(ModelFormatError):
            parse_model("nonsense", f)
        with pytest.raises(ModelFormatError):
            parse_model("SAT\nworld 1 weight 1 atom p7", f)
