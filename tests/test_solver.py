import hashlib
import importlib
import itertools
import math
import pathlib
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import pjsat.linrat
import pjsat.solver
import pjsat.syntax
from pjsat.cspec import default_cs
from pjsat.jsem import BasisMismatchError, atom_jsat, eval_under_atom, jformula_sat, jsat_test
from pjsat.linrat import Rel, Solution, feasible
from pjsat.solver import (
    SmallModel,
    _Form,
    _body_set,
    _kept_rows,
    _signatures,
    _truth_table,
    build_system,
    certify_model,
    check_model,
    format_model,
    lift_to_p1,
    parse_model,
    solve_sat,
    valid,
)
from pjsat.syntax import (
    AtLeast,
    Atom,
    JAnd,
    JNot,
    PAnd,
    PNot,
    Prop,
    atoms_of,
    basis_of,
    parse_jformula,
    p_level,
    parse_pformula,
    shrink_bound,
    size_p,
    size_rat,
    truth_test,
    weight_size_bound,
)

from _gen import (
    THRESHOLDS,
    WEIGHT_DENS,
    cs_assert_jformula,
    rand_jformula,
    rand_model,
    rand_pformula,
    trap_jformula,
)
from _oracles import (
    fm_feasible,
    p_occurrences,
    p_size,
    ref_certify,
    ref_clashes,
    ref_holds,
    ref_measure,
    ref_presolve,
)

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


def _occurrences(f, seen=None):
    """Distinct AtLeast nodes of f, left to right."""
    seen = {} if seen is None else seen
    if isinstance(f, AtLeast):
        seen.setdefault(f)
    elif isinstance(f, PNot):
        _occurrences(f.body, seen)
    else:
        _occurrences(f.left, seen)
        _occurrences(f.right, seen)
    return list(seen)


def _minterms(f):
    """The (occurrences, bits) assignments under which f holds, in
    itertools.product order."""
    occs = _occurrences(f)
    return occs, [
        bits
        for bits in itertools.product((True, False), repeat=len(occs))
        if _eval_boolean(f, dict(zip(occs, bits)))
    ]


def columns_of(bodies, atoms):
    """Each body's 0/1 column over the atoms, from eval_under_atom."""
    return {b: tuple(int(eval_under_atom(b, a)) for a in atoms) for b in bodies}


class TestPDnf:
    """The P-level DNF of f is the set of truth assignments to its AtLeast
    occurrences under which it holds; solve_sat walks them lazily, dropping
    every prefix of an assignment under which f is already False."""

    def test_single_literal(self):
        f = parse_pformula("P>=1/2 p1")
        systems = []
        assert solve_sat(f, CS, on_system=systems.append) is not None
        assert [[(r.rel, r.rhs) for r in s.rows[1:]] for s in systems] == [
            [(Rel.GE, F(1, 2))],
        ]
        # one column per signature of p1: true, then false
        assert systems[0].rows[1].coeffs == (1, 0)

    def test_boolean_equivalence(self):
        # for every assignment to the occurrences, the predicate solve_sat
        # filters assignments with agrees with f
        rng = random.Random(61)
        for _ in range(60):
            f = rand_pformula(rng, depth=3)
            occs = _occurrences(f)
            assert p_level(f)[0] == occs
            holds = truth_test(f, {occ: i for i, occ in enumerate(occs)})
            for bits in itertools.product((True, False), repeat=len(occs)):
                assert holds(bits) == _eval_boolean(f, dict(zip(occs, bits)))

    def test_disjunct_length_bound(self):
        rng = random.Random(67)
        for _ in range(40):
            f = rand_pformula(rng, depth=3)
            systems = []
            solve_sat(f, CS, on_system=systems.append)
            for s in systems:
                assert len(s.rows) - 1 <= size_p(f) - 1

    def test_wide_conjunction_tries_one_system(self, monkeypatch):
        # 60 lower bounds over two bodies: of the 2^61 assignments only one
        # satisfies the P-level, and the walk reaches it without trying the
        # rest.  Its system keeps one row per literal, and the clash table
        # hands feasible one bound per relation and body, so each SAT
        # sibling's LP takes a few pivots, not one per bound.  The UNSAT
        # formula's bounds on p1 | p2 from both sides leave no room, and
        # the clash table skips its one assignment with no system built.
        pivots = []
        pivot = pjsat.linrat._pivot

        def counted(*step):
            pivots.append(step)
            pivot(*step)

        monkeypatch.setattr(pjsat.linrat, "_pivot", counted)
        bodies = ("(p1 | p2)", "(p1 & ~p2)")
        bounds = " & ".join(f"P>={j}/61 {bodies[j % 2]}" for j in range(1, 61))
        f = parse_pformula(bounds + " & ~P>=1/3 (p1 | p2)")
        systems = []
        assert solve_sat(f, CS, on_system=systems.append) is None
        assert systems == [] and pivots == []
        for sibling in (bounds + " & ~P>=1 (p1 | p2)", bounds):
            pivots.clear()
            sibling = parse_pformula(sibling)
            m = solve_sat(sibling, CS, on_system=systems.append)
            assert m is not None
            assert len(pivots) <= 6
            assert certify_model(m, sibling, CS) == []
        assert [[r.rel for r in s.rows[1:]] for s in systems] == [
            [Rel.GE] * 60 + [Rel.LT],
            [Rel.GE] * 60,
        ]


class TestBuildSystem:
    def test_single_literal_rows(self):
        f = parse_pformula("P>=1/2 p1")
        atoms = list(atoms_of(f))
        columns = columns_of([Prop(1)], atoms)
        s = build_system([f], (True,), columns)
        assert len(s.rows) == 2
        assert s.rows[0].coeffs == (F(1), F(1))
        assert s.rows[0].rel is Rel.EQ and s.rows[0].rhs == 1
        assert s.rows[1].rel is Rel.GE and s.rows[1].rhs == F(1, 2)
        # membership row follows eval_under_atom
        expected = tuple(
            F(1) if eval_under_atom(Prop(1), a) else F(0) for a in atoms
        )
        assert s.rows[1].coeffs == expected

    def test_one_row_per_bit(self):
        f = parse_pformula("P>=1/2 p1 & P>=1/3 t:p1")
        occs = [f.left, f.right]
        columns = columns_of([g.body for g in occs], list(atoms_of(f)))
        s = build_system(occs, (False, True), columns)
        assert [(r.rel, r.rhs) for r in s.rows[1:]] == [
            (Rel.LT, F(1, 2)),
            (Rel.GE, F(1, 3)),
        ]
        assert s.rows[2].coeffs == columns[f.right.body]

    def test_empty_conjunction(self):
        f = parse_pformula("P>=1/2 p1")
        atoms = list(atoms_of(f))
        s = build_system((), (), columns_of([Prop(1)], atoms))
        assert len(s.rows) == 1

    def test_empty_membership_is_infeasible_row(self):
        f = parse_pformula("P>=1 p1")
        neg_only = [a for a in atoms_of(f) if not a.signs[0]]
        s = build_system([f], (True,), columns_of([Prop(1)], neg_only))
        assert s.rows[1].coeffs == (F(0),)
        assert feasible(s) is None


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

    def test_decided_literals_build_no_system(self, monkeypatch):
        # a literal that its all-zeros or all-ones body decides false is
        # refuted by the clash table, with no system built or pivoted
        def no_pivot(tableau, basis, row, col):
            raise AssertionError(f"pivot on ({row}, {col})")

        monkeypatch.setattr(pjsat.linrat, "_pivot", no_pivot)
        for text in ("P>=1/2 (p1 & ~p1)", "~P>=1 (p1 | ~p1)"):
            systems = []
            assert solve_sat(parse_pformula(text), CS, on_system=systems.append) is None
            assert systems == []

    def test_boolean_contradiction_tries_no_system(self):
        systems = []
        f = parse_pformula("P>=1 p1 & ~P>=1 p1")
        assert solve_sat(f, CS, on_system=systems.append) is None
        assert systems == []

    def test_systems_follow_minterms(self):
        # every system tried is one assignment to the occurrences under
        # which f holds, in product order, that the clash oracle does not
        # refute, since an assignment it refutes builds no system.  All of
        # them when f is UNSAT, a prefix ending at the feasible one when
        # it is SAT; every assignment skipped is infeasible
        rng = random.Random(61)
        unsats = skipped = 0
        for _ in range(200):
            f = rand_pformula(rng, depth=3)
            occs, minterms = _minterms(f)
            systems = []
            m = solve_sat(f, CS, on_system=systems.append)
            seen = [[(row.rel, row.rhs) for row in s.rows[1:]] for s in systems]
            assert all(len(s.rows) <= size_p(f) for s in systems)
            columns = _signatures(_Form(f, CS))[1]
            expected = []
            for bits in minterms:
                system = build_system(occs, bits, columns)
                if ref_clashes(system.rows):
                    assert not fm_feasible(system), f
                    skipped += 1
                    continue
                expected.append([(row.rel, row.rhs) for row in system.rows[1:]])
            if m is None:
                unsats += 1
                assert seen == expected, f
            else:
                assert seen == expected[: len(seen)], f
        assert unsats > 10
        assert skipped > 10

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
            occs, minterms = _minterms(f)
            columns = columns_of([occ.body for occ in occs], every_jsat)
            undeduplicated = any(
                feasible(build_system(occs, bits, columns)) is not None
                for bits in minterms
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

    HAND_WRITTEN = (
        # B(7)+U-shaped: a TAUT1 assertion under an implication
        "P>=1/3 (p1 | p2) & P>=1/4 (p2 | p3) & P>=0 (p1 & p2 & p3 & p4)"
        " & P>=1/3 (s:p1 -> c_taut1:(p1 -> (p2 -> p1))) & ~P>=1/4 (s.t):p2"
        " & ~(~P>=1 ~p1 & ~P>=1 ~p2) & P>=1/2 p1 & P>=1/2 p2",
        # E(2,2)-shaped: deep sums of TAUT constants, and the I combinator
        "P>=1/2 ((c_taut1+c_taut2).(c_taut1+c_taut2)):(p1 -> p1)"
        " & P>=1/3 ((c_taut1+c_taut2).(c_taut1+c_taut2)):(p1 -> (p2 -> p1))"
        " & P>=1/2 (s:p1 & t:p2)",
        "P>=1/2 (s:p1 & t:p2) & P>=1/2 ~((c_taut2.c_taut1).c_taut1):(p1 -> p1)",
        "P>=1/2 c_taut1:(p1 -> (p2 -> p1)) & ~P>=1/2 (c_taut1+s):(p1 -> (p2 -> p1))",
    )

    def test_fixed_walk_keeps_representatives(self):
        # solve_sat's columns equal those of a walk over every sign tuple
        # that keeps, per signature, the first one atom_jsat accepts
        rng = random.Random(89)
        formulas = [parse_pformula(t) for t in self.HAND_WRITTEN]
        while len(formulas) < 120:
            if len(formulas) % 2:
                f = rand_pformula(rng, depth=3, consts=("c_taut1", "c_taut2", "s", "t"))
            else:
                f = AtLeast(rng.choice(THRESHOLDS), cs_assert_jformula(rng))
                for _ in range(rng.randint(1, 3)):
                    g = AtLeast(rng.choice(THRESHOLDS), cs_assert_jformula(rng, 2))
                    f = PAnd(f, PNot(g) if rng.random() < 0.4 else g)
            if len(basis_of(f)) <= 8:
                formulas.append(f)
        compared = with_forced = 0
        for f in formulas:
            basis = basis_of(f)
            bodies = list(dict.fromkeys(occ.body for occ in _occurrences(f)))
            reps = {}
            for signs in itertools.product((True, False), repeat=len(basis)):
                a = Atom(basis, signs)
                key = tuple(eval_under_atom(body, a) for body in bodies)
                if key not in reps and atom_jsat(a, CS):
                    reps[key] = signs
            expected = {body: tuple(int(k[i]) for k in reps) for i, body in enumerate(bodies)}
            systems = []
            solve_sat(f, CS, on_system=systems.append)
            occs = _occurrences(f)
            for system in systems:
                assert [row.coeffs for row in system.rows[1:]] == [
                    expected[occ.body] for occ in occs
                ], f
                compared += 1
            with_forced += bool(list(jsat_test(basis, CS).cs_forced()))
        assert compared > 100
        assert with_forced > 25


    def test_body_sets_of_deep_bodies(self):
        # a body nested far past the recursion limit gets its set of sign
        # tuples all the same: p1 & (p2 & (p1 & ...)) holds where both do,
        # and an odd number of ~ over p1 where p1 does not
        p1, p2 = Prop(1), Prop(2)
        leaves = dict(zip((p1, p2), _truth_table(2)))
        assert leaves == {p1: 0b0011, p2: 0b0101}
        chain, negations = p2, p1
        for i in range(5000):
            chain = JAnd(p1 if i % 2 else p2, chain)
            negations = JNot(negations)
        assert _body_set(chain, leaves, 0b1111) == 0b0001
        assert _body_set(JNot(negations), leaves, 0b1111) == 0b1100


def _workload_texts(monkeypatch):
    """The texts of bench/workloads.py's instances of seeds 1 to 3."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    return [
        instance.text
        for make in workloads.WORKLOADS.values()
        for seed in (1, 2, 3)
        for instance in make(seed)
    ]


class TestModelIdentity:
    def test_workload_models(self, monkeypatch):
        # the verdict and model of every workload instance, pinned by one
        # hash: each text, then its model text or UNSAT, each followed by
        # a newline.  A change that means to change models updates it
        digest = hashlib.sha256()
        for text in _workload_texts(monkeypatch):
            model = solve_sat(parse_pformula(text), CS)
            digest.update(f"{text}\n{format_model(model) if model else 'UNSAT'}\n".encode())
        assert digest.hexdigest() == (
            "74ab559c8ba9f53100c6ae534158d0356034879ae8125a7b625cdc605b7e4283"
        )


class TestClashTest:
    """The clash table against its rules written out on their own: on
    every assignment under which the formula holds, it refutes exactly
    the systems ``_oracles.ref_clashes`` refutes, and of every other it
    keeps the rows ``_oracles.ref_presolve`` keeps, in its order."""

    @staticmethod
    def compare(formulas):
        refuted = tried = 0
        for f in formulas:
            form = _Form(f, CS)
            columns = _signatures(form)[1]
            kept_rows = _kept_rows(form.occs, columns)
            occs, minterms = _minterms(f)
            assert occs == form.occs, f
            for bits in minterms:
                rows = build_system(occs, bits, columns).rows
                kept = kept_rows(bits)
                expected = ref_clashes(rows)
                assert (kept is None) == expected, (f, bits)
                if kept is not None:
                    assert [rows[i] for i in kept] == ref_presolve(rows), (f, bits)
                refuted += expected
                tried += 1
        return refuted, tried

    def test_workload_instances(self, monkeypatch):
        formulas = [parse_pformula(text) for text in _workload_texts(monkeypatch)]
        assert len(formulas) == 1167
        refuted, tried = self.compare(formulas)
        assert refuted > 650 and tried > 1600  # 672 of 1638
        # no system that solve_sat hands to feasible is one the oracle refutes
        systems = []
        for f in formulas:
            solve_sat(f, CS, on_system=systems.append)
        assert len(systems) > 600  # 663
        assert not any(ref_clashes(s.rows) for s in systems)

    def test_random_formulas(self):
        rng = random.Random(101)
        formulas = [rand_pformula(rng, depth=rng.randint(1, 4)) for _ in range(3000)]
        refuted, tried = self.compare(formulas)
        assert refuted > 700 and tried > 4800  # 729 of 4902

    def test_mask_edge_cases(self):
        # each text with its number of representatives, the bytes of each
        # column's mask: constant bodies alone (one representative, so the
        # all-ones mask is 1), complementary bodies whose lower bounds sum
        # past 1 and whose upper bounds sum to 1 or less, bodies whose
        # complement is no column, and more than 8 representatives
        cases = {
            "P>=1/2 (p1 | ~p1) & ~P>=1/3 (p1 & ~p1)": 1,
            "~P>=1/2 (p1 | ~p1) & P>=0 (p1 & ~p1)": 1,
            "P>=2/3 p1 & P>=1/2 ~p1": 2,
            "~P>=1/2 p1 & ~P>=1/2 ~p1": 2,
            "P>=2/3 p1 & ~P>=1/2 (p1 | p2)": 3,
            "P>=2/3 p1 & P>=2/3 ~(p1 | p2)": 3,
            "~P>=1/2 p1 & P>=1/2 (p1 | p2) & ~P>=1/3 (p1 | p2)": 3,
            "~(~P>=1/2 p1 & P>=1/2 ~p1) & P>=1/3 p2 & ~(~P>=2/3 p3 & ~P>=1/2 ~p3)"
            " & ~P>=1/4 p4 & ~(~P>=1/2 ~p1 & P>=1/3 (p4 & ~p1))": 16,
        }
        formulas = [parse_pformula(text) for text in cases]
        for f, reps in zip(formulas, cases.values()):
            assert len(_signatures(_Form(f, CS))[0]) == reps, f
        assert self.compare(formulas) == (10, 19)


class TestFrontier:
    """Instances of bench/frontier.py past every workload, asserted by
    counts and memory, not by time."""

    def test_unsat_cores_build_no_system(self, monkeypatch):
        # B(20)+U: 2^20 sign tuples, of which the partition J-checks only
        # the representatives' candidates.  O(7)+U: 1458 accepted
        # assignments, each with a body bounded beyond the total measure
        # from both sides, so the clash table skips them all.  Its peak
        # is the partition over 2^14 tuples and the 2^14-entry columns'
        # clash table
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
        frontier = importlib.import_module("frontier")
        b20, o7 = (parse_pformula(frontier.text_of(name)) for name in ("B(20)+U", "O(7)+U"))
        systems = []
        assert solve_sat(b20, CS, on_system=systems.append) is None
        assert systems == []
        tracemalloc.start()
        try:
            assert solve_sat(o7, CS, on_system=systems.append) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert systems == []
        assert peak < 16 * 2**20


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

    def test_model_over_a_larger_basis(self):
        b = basis_of(parse_pformula("P>=1/2 (p1 & p2)"))
        m = model_of((atom(b, (True, False)), F(1, 2)), (atom(b, (False, True)), F(1, 2)))
        assert check_model(m, parse_pformula("P>=1/2 p1 & P>=1/2 p2"))
        assert not check_model(m, parse_pformula("P>=2/3 p1"))
        assert certify_model(m, parse_pformula("P>=1/2 p1"), CS) == []

    def test_basis_mismatch(self):
        f = parse_pformula("P>=1 p2")
        a = atom(basis_of(parse_pformula("P>=1 p1")), (True,))
        with pytest.raises(BasisMismatchError):
            check_model(model_of((a, F(1))), f)

    def test_worlds_over_two_bases(self):
        # the model's basis covers f, but its second world is over another
        # basis; certify_model raises before it J-checks any world
        f = parse_pformula("P>=1/2 p1")
        b, wider = basis_of(f), basis_of(parse_pformula("P>=1/2 (p1 & p2)"))
        m = model_of((atom(b, (True,)), F(1, 2)), (atom(wider, (False, True)), F(1, 2)))
        assert m.basis == b
        with pytest.raises(BasisMismatchError):
            check_model(m, f)

        def jsat(signs):
            pytest.fail("a world was J-checked")

        form = _Form(f, CS)
        form.jsat = jsat
        with pytest.raises(BasisMismatchError):
            certify_model(m, f, CS, form=form)

    def test_larger_basis_compiles_one_jsat_filter(self, monkeypatch):
        # three worlds over a basis larger than the formula's are J-checked
        # by one filter, compiled over the model's basis
        calls = []

        def counted(basis, cs):
            calls.append(basis)
            return jsat_test(basis, cs)

        f = parse_pformula("P>=1/3 p1")
        form = _Form(f, CS)
        b = basis_of(parse_pformula("P>=1/2 (p1 & (p2 & p3))"))
        m = model_of(
            (atom(b, (True, False, False)), F(1, 3)),
            (atom(b, (False, True, False)), F(1, 3)),
            (atom(b, (False, False, True)), F(1, 3)),
        )
        monkeypatch.setattr(pjsat.solver, "jsat_test", counted)
        problems = certify_model(m, f, CS, form=form)
        assert problems == ["too many worlds: 3 > 2"]
        assert calls == [b]


class TestCertifyModel:
    # one hand-built model per check, each failing only that check

    def certify(self, text, *worlds):
        f = parse_pformula(text)
        basis = basis_of(f)
        return certify_model(model_of(*((atom(basis, s), w) for s, w in worlds)), f, CS)

    def test_world_count(self):
        # size_p is 2, so a third world is one too many
        problems = self.certify(
            "P>=1/3 (p1 & p2)",
            ((True, True), F(1, 3)), ((True, False), F(1, 3)), ((False, True), F(1, 3)),
        )
        assert problems == ["too many worlds: 3 > 2"]

    def test_weight_sum(self):
        problems = self.certify("P>=1/2 p1", ((True,), F(1, 2)))
        assert problems == ["weights sum to 1/2, not 1"]

    def test_positive_weights(self):
        problems = self.certify("P>=1/2 p1", ((True,), F(1)), ((False,), F(0)))
        assert problems == ["world 2 has non-positive weight 0"]

    def test_weight_size_bound(self):
        # the bound is floor(2 * (2*3 + 2*log2(2) + 1)) = 18
        small = F(1, 2**20)
        problems = self.certify("P>=1/2 p1", ((True,), 1 - small), ((False,), small))
        assert problems == [
            "world 1 weight 1048575/1048576 has size 41 > 18",
            "world 2 weight 1/1048576 has size 22 > 18",
        ]

    def test_distinct_atoms(self):
        problems = self.certify("P>=1/2 p1", ((True,), F(1, 2)), ((True,), F(1, 2)))
        assert problems == ["duplicate atom across worlds"]

    def test_jsat_worlds(self):
        # the only world negates an assertion the constant specification derives
        problems = self.certify(
            "~P>=1/2 c_taut1:(p1 -> (p2 -> p1))", ((True, True, False), F(1))
        )
        assert problems == ["world 1 atom is not J-satisfiable"]

    def test_formula(self):
        problems = self.certify("P>=2/3 p1", ((True,), F(1, 2)), ((False,), F(1, 2)))
        assert problems == ["model does not satisfy the formula"]
        a = atom(basis_of(parse_pformula("P>=1 p1")), (True,))
        with pytest.raises(BasisMismatchError):
            certify_model(model_of((a, F(1))), parse_pformula("P>=1 p2"), CS)

    def test_solve_sat_refuses_a_bad_model(self, monkeypatch):
        def doubled(system):
            sol = feasible(system)
            return None if sol is None else Solution(tuple(2 * w for w in sol.values))

        monkeypatch.setattr(pjsat.solver, "feasible", doubled)
        with pytest.raises(AssertionError, match="weights sum to 2, not 1"):
            solve_sat(parse_pformula("P>=1/2 p1 & P>=1/2 ~p1"), CS)


class TestCertificateReference:
    """check_model and certify_model against their Fraction reference in
    _oracles, on seeded random models over bases of one to three
    propositions and formulas whose bodies hold no assertion."""

    def body(self, rng, props, depth=2):
        if depth == 0 or rng.random() < 0.4:
            return Prop(rng.randint(1, props))
        if rng.random() < 0.4:
            return JNot(self.body(rng, props, depth - 1))
        return JAnd(*(self.body(rng, props, depth - 1) for _ in "lr"))

    def threshold(self, rng, model):
        """0 and 1 among the usual thresholds, one past 2^64 in its
        denominator, or a measure of some worlds, on the boundary of >=."""
        kind = rng.randrange(3)
        if kind == 1:
            return F(rng.randint(0, WEIGHT_DENS[-1]), WEIGHT_DENS[-1])
        if kind == 2:
            measure = sum((w for _, w in model.worlds if rng.random() < 0.5), F(0))
            if 0 <= measure <= 1:
                return measure
        return rng.choice(THRESHOLDS)

    def formula(self, rng, model, props, depth):
        if depth == 0 or rng.random() < 0.4:
            return AtLeast(self.threshold(rng, model), self.body(rng, props))
        if rng.random() < 0.4:
            return PNot(self.formula(rng, model, props, depth - 1))
        return PAnd(*(self.formula(rng, model, props, depth - 1) for _ in "lr"))

    def test_random_models(self):
        rng = random.Random(34)
        seen = Counter()
        for _ in range(1500):
            props = rng.randint(1, 3)
            model = rand_model(rng, tuple(Prop(i) for i in range(1, props + 1)))
            f = self.formula(rng, model, props, rng.randint(0, 2))
            holds = ref_holds(model, f)
            assert check_model(model, f) == holds, (model, f)
            problems = certify_model(model, f, CS)
            assert problems == ref_certify(model, f), (model, f)
            seen[holds] += 1
            seen["tie"] += any(ref_measure(model, g.body) == g.threshold for g in p_occurrences(f))
            seen.update(re.sub(r"-?[\d/]+", "#", p) for p in problems)
            seen["certified"] += not problems
        assert seen[True] > 200 and seen[False] > 200 and seen["tie"] > 200
        assert seen["certified"] > 100
        for problem in (
            "too many worlds: # > #",
            "weights sum to #, not #",
            "world # has non-positive weight #",
            "world # weight # has size # > #",
            "duplicate atom across worlds",
            "model does not satisfy the formula",
        ):
            assert seen[problem] > 20, problem


class TestForm:
    def test_one_walk_agrees_with_the_helpers(self, monkeypatch):
        # the compiled form's occurrences, size and basis (over the bodies)
        # agree with test-local references: preorder occurrences, the
        # recursive size_p, and the basis of the whole formula; its size
        # and occurrences give the weight bound a recursive walk gives.
        # On random formulas, application traps, repeated bodies and the
        # deep evidence terms of bench/workloads.evidence_family
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        formulas = [parse_pformula(instance.text) for instance in workloads.evidence(1)]
        assert len(formulas) == 6
        rng = random.Random(97)
        for i in range(600):
            if i % 3 == 0:
                f = rand_pformula(rng, depth=rng.randint(0, 4), body_depth=rng.randint(0, 3))
            elif i % 3 == 1:
                f = AtLeast(rng.choice(THRESHOLDS), trap_jformula(rng))
                g = rand_pformula(rng, depth=2)
                f = PAnd(PNot(g), f) if rng.random() < 0.5 else PAnd(f, g)
            else:
                f = overlapping_pformula(rng, literals=rng.randint(1, 6))
            formulas.append(f)
        for f in formulas:
            form = _Form(f)
            occs, size = p_occurrences(f), p_size(f)
            assert form.basis == basis_of(f), f
            assert form.occs == occs, f
            assert form.size == size, f
            norm = max(size_rat(occ.threshold) for occ in occs)
            assert weight_size_bound(f) == math.floor(shrink_bound(size, norm)), f
            assert form.weight_bound == weight_size_bound(f), f

    def test_solve_sat_walks_the_basis_once(self, monkeypatch):
        # the compiled form reads basis_of through the solver module, once
        # per decision, SAT or UNSAT
        calls = []

        def counted(*formulas):
            calls.append(formulas)
            return basis_of(*formulas)

        monkeypatch.setattr(pjsat.solver, "basis_of", counted)
        rng = random.Random(103)
        formulas = [parse_pformula("P>=1/2 p1 & P>=1/2 ~p1 & P>=1 p2")]
        formulas += [overlapping_pformula(rng) for _ in range(30)]
        verdicts = set()
        for f in formulas:
            calls.clear()
            verdicts.add(solve_sat(f, CS) is not None)
            assert len(calls) == 1, f
        assert verdicts == {True, False}

    def test_certify_reads_the_forms_p_level(self, monkeypatch):
        # given the compiled form, the certificate takes its weight bound
        # from the form and walks f's P-level no second time
        f = parse_pformula("P>=1/2 p1 & P>=1/3 t:(p1 -> p2) & ~P>=1/4 (s.t):p2")
        form = _Form(f, CS)
        m = solve_sat(f, CS)

        def no_walk(g):
            raise AssertionError("p_level called")

        monkeypatch.setattr(pjsat.syntax, "p_level", no_walk)
        monkeypatch.setattr(pjsat.solver, "p_level", no_walk)
        assert certify_model(m, f, CS, form=form) == []

    def test_one_jsat_filter_per_decision(self, monkeypatch):
        # the certificate J-checks the worlds with the decision's own filter
        calls = []

        def counted(basis, cs):
            calls.append(basis)
            return jsat_test(basis, cs)

        monkeypatch.setattr(pjsat.solver, "jsat_test", counted)
        rng = random.Random(101)
        formulas = [parse_pformula("P>=1/2 p1 & P>=1/3 t:(p1 -> p2) & ~P>=1/4 (s.t):p2")]
        formulas += [overlapping_pformula(rng) for _ in range(40)]
        sats = 0
        for f in formulas:
            if len(basis_of(f)) > 8:
                continue
            calls.clear()
            if solve_sat(f, CS) is not None:
                sats += 1
                assert len(calls) == 1, f
        assert sats > 10


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
