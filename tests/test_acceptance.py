"""Acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with -s to see them as they happen).  Every expected value comes from
an independent oracle in _oracles.py or from a property that holds by
construction; nothing is checked against the code under test itself.
"""

import itertools
import random
from fractions import Fraction

from pjsat.cspec import default_cs
from pjsat.jsem import atom_jsat, eval_under_atom, jformula_sat
from pjsat.linrat import (
    LinearSystem,
    Rel,
    Row,
    Solution,
    integerize,
    satisfies,
    shrink_bound,
    shrink_solution,
)
from pjsat.solver import check_model, lift_to_p1, solve_sat
from pjsat.syntax import (
    App,
    Assert,
    AtLeast,
    Atom,
    Const,
    JAnd,
    JNot,
    PAnd,
    PNot,
    Prop,
    basis_of,
    jimp,
    size_p,
    size_rat,
    weight_size_bound,
)

from _gen import (
    THRESHOLDS,
    rand_atom_for,
    rand_jformula,
    rand_system_with_point,
    rand_term,
    trap_jformula,
)
from _oracles import fm_feasible, jsat_oracle, tt_eval

CS = default_cs()
F = Fraction


def report(label, failures, total):
    verdict = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] {label}: {verdict} ({total - len(failures)}/{total})")
    assert not failures, f"{label}: {failures[:5]}"


# --- shared fixed corpus of probability formulas ---

def _build_corpus():
    p1, p2 = Prop(1), Prop(2)
    tp1 = Assert(Const("t"), p1)
    bodies = [p1, p2, tp1, JNot(p1), JAnd(p1, p2), jimp(p1, p2), JAnd(p1, tp1)]
    corpus = []

    for b in bodies:
        for s in THRESHOLDS:
            corpus.append(AtLeast(s, b))
            corpus.append(PNot(AtLeast(s, b)))

    pair_bodies = [p1, JNot(p1), p2, JAnd(p1, p2), tp1]
    pair_thresholds = [
        (F(1), F(1)),
        (F(1, 2), F(1, 2)),
        (F(2, 3), F(1, 3)),
        (F(1, 4), F(3, 4)),
        (F(0), F(1)),
    ]
    for b1 in pair_bodies:
        for b2 in pair_bodies:
            for s1, s2 in pair_thresholds:
                l1, l2 = AtLeast(s1, b1), AtLeast(s2, b2)
                corpus.append(PAnd(l1, l2))
                corpus.append(PAnd(l1, PNot(l2)))
                corpus.append(PNot(PAnd(l1, l2)))

    triple_bodies = [(p1, p2, JAnd(p1, p2)), (p1, tp1, JAnd(p1, tp1))]
    triple_thresholds = [
        (F(1), F(1), F(1)),
        (F(1, 2), F(1, 2), F(1)),
        (F(1, 2), F(1, 2), F(0)),
        (F(2, 3), F(2, 3), F(1, 3)),
        (F(1), F(1, 2), F(1, 4)),
        (F(3, 4), F(3, 4), F(1, 2)),
        (F(1, 3), F(1, 3), F(2, 3)),
    ]
    for b1, b2, b3 in triple_bodies:
        for s1, s2, s3 in triple_thresholds:
            l1, l2, l3 = AtLeast(s1, b1), AtLeast(s2, b2), AtLeast(s3, b3)
            corpus.append(PAnd(PAnd(l1, l2), l3))
            corpus.append(PAnd(PAnd(l1, l2), PNot(l3)))
            corpus.append(PAnd(PNot(PAnd(l1, l2)), l3))

    # application-closure slice: the third body is forced wherever the
    # first two hold, which only the J-filtered atoms reveal
    s_term, t_term = Const("s"), Const("t")
    b1 = Assert(s_term, jimp(p1, p2))
    b2 = Assert(t_term, p1)
    b3 = Assert(App(s_term, t_term), p2)
    for s1, s2, s3 in [
        (F(1), F(1), F(1)),
        (F(1), F(1), F(1, 2)),
        (F(1, 2), F(1, 2), F(1)),
        (F(2, 3), F(2, 3), F(1, 3)),
        (F(1), F(1), F(0)),
    ]:
        l1, l2, l3 = AtLeast(s1, b1), AtLeast(s2, b2), AtLeast(s3, b3)
        corpus.append(PAnd(PAnd(l1, l2), PNot(l3)))
        corpus.append(PAnd(PAnd(l1, l2), l3))

    return corpus


# --- an independent translation for the elimination oracle ---
#
# It shares only the syntax tree and the system record with the solver:
# its own P-level evaluator, atoms from itertools.product filtered by the
# saturation oracle, body truth by truth tables, and rows built here.

def _occurrences(f):
    if isinstance(f, AtLeast):
        return {f}
    if isinstance(f, PNot):
        return _occurrences(f.body)
    return _occurrences(f.left) | _occurrences(f.right)


def _p_holds(f, assignment):
    if isinstance(f, AtLeast):
        return assignment[f]
    if isinstance(f, PNot):
        return not _p_holds(f.body, assignment)
    return _p_holds(f.left, assignment) and _p_holds(f.right, assignment)


def _basics(g, out):
    if isinstance(g, (Prop, Assert)):
        out.add(g)
    if isinstance(g, (AtLeast, PNot, JNot, Assert)):
        _basics(g.body, out)
    elif isinstance(g, (PAnd, JAnd)):
        _basics(g.left, out)
        _basics(g.right, out)
    return out


_JSAT_ATOMS_CACHE = {}


def _jsat_atoms(f):
    basis = tuple(sorted(_basics(f, set()), key=str))
    if basis not in _JSAT_ATOMS_CACHE:
        signs = itertools.product((True, False), repeat=len(basis))
        atoms = (Atom(basis, s) for s in signs)
        _JSAT_ATOMS_CACHE[basis] = [a for a in atoms if jsat_oracle(a, CS)]
    return _JSAT_ATOMS_CACHE[basis]


def _oracle_sat(f):
    """Satisfiability by a translation of the oracle's own, with each
    minterm's atom system decided by Fourier-Motzkin elimination."""
    atoms = _jsat_atoms(f)
    occs = list(_occurrences(f))
    one, zero = F(1), F(0)
    for bits in itertools.product((True, False), repeat=len(occs)):
        if not _p_holds(f, dict(zip(occs, bits))):
            continue
        rows = [Row((one,) * len(atoms), Rel.EQ, one)]
        for occ, bit in zip(occs, bits):
            coeffs = tuple(one if tt_eval(occ.body, a) else zero for a in atoms)
            rows.append(Row(coeffs, Rel.GE if bit else Rel.LT, occ.threshold))
        if fm_feasible(LinearSystem(tuple(rows), len(atoms))):
            return True
    return False


_CORPUS_RESULTS = None


def _corpus_results():
    global _CORPUS_RESULTS
    if _CORPUS_RESULTS is None:
        _CORPUS_RESULTS = [(f, solve_sat(f, CS)) for f in _build_corpus()]
    return _CORPUS_RESULTS


def test_solver_agrees_with_elimination_oracle():
    results = _corpus_results()
    failures = []
    for f, model in results:
        if (model is not None) != _oracle_sat(f):
            failures.append(str(f))
    report(
        "solve_sat vs Fourier-Motzkin oracle on the fixed corpus",
        failures,
        len(results),
    )


def test_small_model_certification():
    results = _corpus_results()
    failures = []
    checked = 0
    for f, model in results:
        if model is None:
            continue
        checked += 1
        bad = []
        if len(model.worlds) > size_p(f):
            bad.append("world count")
        weights = [w for _, w in model.worlds]
        if sum(weights) != 1:
            bad.append("total mass")
        if any(w <= 0 for w in weights):
            bad.append("positivity")
        bound = weight_size_bound(f)
        if any(size_rat(w) > bound for w in weights):
            bad.append("weight size")
        atoms = [a for a, _ in model.worlds]
        if len(set(atoms)) != len(atoms):
            bad.append("atom distinctness")
        if not check_model(model, f):
            bad.append("model check")
        if bad:
            failures.append(f"{f}: {bad}")
    assert checked > 100
    report(
        f"small-model conditions on all {checked} SAT witnesses",
        failures,
        checked,
    )


def test_solution_shrinking_properties():
    rng = random.Random(101)
    failures = []
    total = 200
    for i in range(total):
        s, x = rand_system_with_point(rng)
        int_s, l = integerize(s)
        out = shrink_solution(int_s, Solution(x))
        r = len(int_s.rows)
        bad = []
        if not satisfies(int_s, out.values):
            bad.append("not a solution")
        if any(v < 0 for v in out.values):
            bad.append("negative entry")
        support = {j for j, v in enumerate(out.values) if v > 0}
        if len(support) > r:
            bad.append("support too large")
        if not support <= {j for j, v in enumerate(x) if v > 0}:
            bad.append("support not nested")
        bound = shrink_bound(r, l)
        if any(size_rat(v) > bound for v in out.values):
            bad.append("size bound")
        if bad:
            failures.append(f"system {i}: {bad}")
    report("solution shrinking properties on 200 random systems", failures, total)


def test_certainty_lift_matches_plain_satisfiability():
    rng = random.Random(103)
    alphas = []
    while len(alphas) < 100:
        if len(alphas) % 3 == 0:
            alpha = trap_jformula(rng)
        else:
            alpha = rand_jformula(rng, depth=3, props=2)
        if len(basis_of(alpha)) <= 10:
            alphas.append(alpha)
    failures = []
    for alpha in alphas:
        direct = jformula_sat(alpha, CS)
        lifted = solve_sat(lift_to_p1(alpha), CS) is not None
        if direct != lifted:
            failures.append(str(alpha))
    report(
        "jformula_sat vs solve_sat on certainty-lifted formulas",
        failures,
        len(alphas),
    )


def test_atom_evaluation_matches_truth_tables():
    rng = random.Random(107)
    failures = []
    total = 1000
    for i in range(total):
        phi = rand_jformula(rng, depth=3)
        extra = rand_jformula(rng, depth=2)
        basis = basis_of(JAnd(phi, extra))
        atom = rand_atom_for(rng, basis)
        if eval_under_atom(phi, atom) != tt_eval(phi, atom):
            failures.append(str(phi))
            continue
        own = set(basis_of(phi))
        for j, b in enumerate(basis):
            if b in own:
                continue
            flipped = Atom(
                basis,
                tuple(
                    (not sg) if k == j else sg
                    for k, sg in enumerate(atom.signs)
                ),
            )
            if eval_under_atom(phi, atom) != eval_under_atom(phi, flipped):
                failures.append(f"{phi} (flip {b})")
                break
    report(
        "eval_under_atom vs truth tables and irrelevant-literal flips",
        failures,
        total,
    )


def _rand_jsat_atom(rng):
    # terms up to depth 3, shallow bodies: deep bodies make the oracle's
    # candidate pool (and hence its scheme instantiation) explode
    def assertion():
        return Assert(
            rand_term(rng, depth=rng.randint(0, 3)),
            rand_jformula(rng, rng.randint(0, 1), props=2),
        )

    picked = {}
    for _ in range(rng.randint(1, 4)):
        picked.setdefault(assertion(), True)
    for _ in range(rng.randint(1, 2)):
        picked.setdefault(assertion(), False)
    basics = tuple(picked)
    return Atom(basics, tuple(picked[b] for b in basics))


def test_atom_satisfiability_matches_saturation_oracle():
    rng = random.Random(109)
    failures = []
    total = 100
    for i in range(total):
        atom = _rand_jsat_atom(rng)
        if atom_jsat(atom, CS) != jsat_oracle(atom, CS):
            failures.append(str(atom))
    report(
        "atom_jsat vs bounded saturation oracle on 100 random atoms",
        failures,
        total,
    )


def _map_bodies(f, fn):
    if isinstance(f, AtLeast):
        return AtLeast(f.threshold, fn(f.body))
    if isinstance(f, PNot):
        return PNot(_map_bodies(f.body, fn))
    return PAnd(_map_bodies(f.left, fn), _map_bodies(f.right, fn))


def test_equivalent_body_rewrites_preserve_verdict():
    results = _corpus_results()
    step = max(1, len(results) // 100)
    sample = results[::step][:100]
    failures = []
    for f, model in sample:
        verdict = model is not None
        doubled = _map_bodies(f, lambda a: JAnd(a, a))
        negated = _map_bodies(f, lambda a: JNot(JNot(a)))
        if (solve_sat(doubled, CS) is not None) != verdict:
            failures.append(f"{f} (duplication)")
        if (solve_sat(negated, CS) is not None) != verdict:
            failures.append(f"{f} (double negation)")
    report(
        "verdict stable under equivalent body rewrites on 100 formulas",
        failures,
        len(sample),
    )
