import random
from collections import Counter
from fractions import Fraction

import pytest

from pjsat import default_cs, linrat, parse_pformula, solve_sat
from pjsat.linrat import (
    LinearSystem,
    Rel,
    Row,
    Solution,
    UnboundedError,
    feasible,
    integerize,
    satisfies,
    shrink_bound,
    shrink_solution,
    system_str,
)
from pjsat.syntax import size_rat

from _gen import or_cover_text, rand_feasibility_system, rand_system_with_point, split_mass_text
from _oracles import HOLDS, fm_feasible, ref_presolve

F = Fraction


def sys_of(rows, var_count):
    """A system from (coeffs, rel, rhs) rows of numbers Fraction accepts."""
    rows = tuple(Row(tuple(map(Fraction, c)), rel, Fraction(rhs)) for c, rel, rhs in rows)
    return LinearSystem(rows, var_count)


def ref_satisfies(system: LinearSystem, values) -> bool:
    """satisfies on Fraction arithmetic, row by row: the reference the
    integer check must match.  It reads values by zip, so it does not see
    a values vector of the wrong length."""
    if any(v < 0 for v in values):
        return False
    for row in system.rows:
        lhs = sum(c * v for c, v in zip(row.coeffs, values))
        if not HOLDS[row.rel](lhs, row.rhs):
            return False
    return True


# The simplex on Fraction entries: the reference whose results and pivot
# path the integer tableau in linrat must match.

def _ref_pivot(tableau, basis, row, col):
    """Gauss-Jordan step on tableau[row][col], dividing the pivot row.
    Every other row, the objective row last among them, loses column col."""
    piv = tableau[row][col]
    if piv != 1:
        tableau[row] = [v / piv for v in tableau[row]]
    nonzero = [(k, v) for k, v in enumerate(tableau[row]) if v]
    for i, line in enumerate(tableau):
        f = line[col]
        if f and i != row:
            for k, v in nonzero:
                line[k] -= f * v
    basis[row] = col


def _ref_price_out(tableau, basis, cost):
    """Append cost as the objective row, priced out over the basis in one
    pass: cost minus cost[b] times each basic row, b its basic column
    (whose entry is 1).  Its entries are the reduced costs, its last entry
    minus the objective."""
    row = [Fraction(c) for c in cost] + [Fraction(0)]
    for i, b in enumerate(basis):
        if cost[b]:
            row = [r - cost[b] * v for r, v in zip(row, tableau[i])]
    tableau.append(row)


def _ref_run_simplex(tableau, basis, enterable=None):
    """Minimize the objective in the tableau's last row in place.  The
    entering column has the most negative reduced cost, lowest index on
    ties.  Basic columns have reduced cost 0 and never enter, nor does
    column j when enterable[j] is False.  The ratio test runs over the
    first len(basis) rows and leaves on the lexicographically least
    row / a, a its entry in the entering column, read as the right-hand
    side, then each column from the last to the first."""
    m = len(basis)
    while True:
        costs = tableau[-1][:-1]
        negative = [
            j for j, d in enumerate(costs) if d < 0 and (enterable is None or enterable[j])
        ]
        if not negative:
            return
        enter = min(negative, key=lambda j: (costs[j], j))
        rows = [i for i in range(m) if tableau[i][enter] > 0]
        if not rows:
            raise UnboundedError("objective unbounded")
        leave = min(rows, key=lambda i: [v / tableau[i][enter] for v in reversed(tableau[i])])
        _ref_pivot(tableau, basis, leave, enter)


def ref_feasible(system: LinearSystem, seen=None):
    """linrat.feasible on Fraction entries, one tableau row per input
    row.  When seen is a Counter, it counts the calls whose phase 2 ends
    with an artificial still basic, under "artificial_basic"."""
    n = system.var_count
    one, zero = Fraction(1), Fraction(0)
    rows = system.rows
    eps = int(any(row.rel is Rel.LT for row in rows))
    rows += (Row((zero,) * n, Rel.LT, one),) * eps
    art = n + eps + sum(row.rel is not Rel.EQ for row in rows)
    lines = []
    starts = []
    slack = n + eps
    for row in rows:
        # Every row is stored with a non-negative right-hand side.  A row
        # a >= b reads -a + s = -b before that, so at b = 0 it is stored
        # as -a + s = 0.
        rhs = Fraction(row.rhs)
        sign = -1 if rhs < 0 or (rhs == 0 and row.rel is Rel.GE) else 1
        line = [Fraction(c) for c in row.coeffs]
        if sign < 0:
            line = [-c for c in line]
        line += [zero] * (art - n)
        unit = Fraction(sign)
        if row.rel is Rel.LT:
            line[n] = unit
        if row.rel is not Rel.EQ:
            line[slack] = -unit if row.rel is Rel.GE else unit
            slack += 1
        # the row starts basic on its slack when the slack's entry is
        # positive, and on an artificial of its own otherwise
        on_slack = row.rel is not Rel.EQ and line[slack - 1] > 0
        starts.append(slack - 1 if on_slack else None)
        lines.append((line, abs(rhs)))
    width = art + starts.count(None)
    free = iter(range(art, width))
    basis = [next(free) if b is None else b for b in starts]
    tableau = []
    for (line, rhs), b in zip(lines, basis):
        line += [zero] * (width - art) + [rhs]
        line[b] = one
        tableau.append(line)

    # phase 1: minimize the sum of artificials
    _ref_price_out(tableau, basis, [0] * art + [1] * (width - art))
    _ref_run_simplex(tableau, basis)
    if tableau[-1][-1] < 0:  # the artificials' sum stays positive
        return None

    if eps:
        # phase 2 maximizes eps on the same tableau, below the phase-1 row;
        # only non-artificial columns with phase-1 reduced cost 0 enter
        enterable = [d == 0 for d in tableau[-1][:art]] + [False] * (width - art)
        _ref_price_out(tableau, basis, [0] * n + [-1] + [0] * (width - n - 1))
        _ref_run_simplex(tableau, basis, enterable)
        if seen is not None:
            seen["artificial_basic"] += any(b >= art for b in basis)

    x = [zero] * (n + eps)
    for i, b in enumerate(basis):
        if b < n + eps:
            x[b] = tableau[i][-1]
    if eps and x[n] <= 0:
        return None
    sol = Solution(tuple(x[:n]))
    if not ref_satisfies(system, sol.values):
        raise AssertionError("simplex produced an invalid solution")
    return sol


def with_dependent_rows(rng):
    """A small system plus an equality, its double and a strict row: the
    draws of test_strict_with_dependent_rows."""
    s = rand_feasibility_system(rng, max_rows=4, max_vars=4)
    n = s.var_count
    eq = tuple(F(rng.randint(-3, 3)) for _ in range(n))
    rhs = F(rng.randint(0, 4))
    lt = tuple(F(rng.randint(-3, 3)) for _ in range(n))
    extra = (
        Row(eq, Rel.EQ, rhs),
        Row(tuple(2 * c for c in eq), Rel.EQ, 2 * rhs),
        Row(lt, Rel.LT, F(rng.randint(-2, 4))),
    )
    return LinearSystem(s.rows + extra, n)


def with_denominators(rng, dens=(2, 3, 7, 10**9 + 7)):
    """A small system whose coefficients and right-hand sides have
    denominators among dens."""
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = tuple(
            F(rng.randint(-3, 3), rng.choice((1,) + dens)) for _ in range(n)
        )
        rel = rng.choice((Rel.EQ, Rel.LE, Rel.GE, Rel.LT))
        rows.append(Row(coeffs, rel, F(rng.randint(-4, 4), rng.choice((1,) + dens))))
    return LinearSystem(tuple(rows), n)


class TestFeasible:
    def test_infeasible_pair(self):
        s = sys_of(
            [([1, 1], Rel.EQ, 1), ([1, 0], Rel.GE, F(1, 2)), ([0, 1], Rel.GE, F(2, 3))],
            2,
        )
        assert feasible(s) is None
        assert not fm_feasible(s)

    def test_feasible_with_strict(self):
        s = sys_of(
            [([1, 1], Rel.EQ, 1), ([1, 0], Rel.GE, F(1, 2)), ([0, 1], Rel.LT, F(1, 2))],
            2,
        )
        sol = feasible(s)
        assert sol is not None
        assert satisfies(s, sol.values)
        # the spec's witness (1, 0) also satisfies every row
        assert satisfies(s, (F(1), F(0)))

    def test_strict_contradiction(self):
        s = sys_of([([1], Rel.EQ, 1), ([1], Rel.LT, 1)], 1)
        assert feasible(s) is None

    def test_no_rows(self):
        s = sys_of([], 3)
        assert feasible(s) == Solution((F(0), F(0), F(0)))

    def test_zero_variables_infeasible(self):
        s = sys_of([([], Rel.EQ, 1)], 0)
        assert feasible(s) is None

    def test_slack_rows_start_basic(self, monkeypatch):
        # <= rows with rhs >= 0 and >= rows with rhs <= 0 start basic on
        # their slacks, a feasible basis with every variable at 0, so no
        # artificial is needed and nothing is pivoted
        def no_pivot(tableau, basis, row, col):
            raise AssertionError(f"pivot on ({row}, {col})")

        monkeypatch.setattr(linrat, "_pivot", no_pivot)
        rng = random.Random(79)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [F(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(n)]
                rhs = F(rng.randint(0, 4), rng.choice((1, 3)))
                rows.append((coeffs, Rel.LE, rhs) if rng.random() < 0.5 else (coeffs, Rel.GE, -rhs))
            assert feasible(sys_of(rows, n)) == Solution((F(0),) * n)

    def test_corrupted_right_hand_side_is_refused(self, monkeypatch):
        # a simplex whose one basic row reads its value plus one: the
        # solution, (2, 0) or (0, 2), fails the row x1 + x2 = 1
        run = linrat._run_simplex

        def corrupted(tableau, basis, enterable=None):
            run(tableau, basis, enterable)
            assert basis[0] < 2
            tableau[0][-1] += tableau[0][basis[0]]

        monkeypatch.setattr(linrat, "_run_simplex", corrupted)
        with pytest.raises(AssertionError, match="^simplex produced an invalid solution$"):
            feasible(sys_of([([1, 1], Rel.EQ, 1)], 2))

    def test_negative_basic_value_is_refused(self, monkeypatch):
        # a simplex that ends on the rows' one solution, (2, -1), with a
        # zero objective: every row holds there, but x2 is negative
        def solved(tableau, basis, enterable=None):
            tableau[:] = [[1, 0, 0, 0, 2], [0, 1, 0, 0, -1], [0, 0, 0, 0, 0]]
            basis[:] = [0, 1]

        s = sys_of([([1, 1], Rel.EQ, 1), ([1, -1], Rel.EQ, 3)], 2)
        assert all(HOLDS[row.rel](2 * row.coeffs[0] - row.coeffs[1], row.rhs) for row in s.rows)
        monkeypatch.setattr(linrat, "_run_simplex", solved)
        with pytest.raises(AssertionError, match="^simplex produced an invalid solution$"):
            feasible(s)

    def test_returned_solutions_always_satisfy(self):
        rng = random.Random(41)
        seen_feasible = 0
        for _ in range(300):
            s = rand_feasibility_system(rng)
            sol = feasible(s)
            if sol is not None:
                seen_feasible += 1
                assert satisfies(s, sol.values)
        assert seen_feasible > 50

    def test_strict_with_dependent_rows(self):
        # A strict row sends feasible through phase 2, which runs on the
        # phase-1 tableau: an equality and its double leave a redundant
        # row there, all zero off the artificial columns, whose artificial
        # stays basic at 0 and is never a pivot row.
        systems = [
            sys_of(
                [([1, 1], Rel.EQ, 1), ([1, 1], Rel.EQ, 1), ([1, 0], Rel.LT, F(1, 2))],
                2,
            ),
            sys_of(
                [
                    ([1, 1], Rel.EQ, 1),
                    ([2, 2], Rel.EQ, 2),
                    ([1, 0], Rel.LT, F(1, 2)),
                    ([0, 1], Rel.LT, F(1, 2)),
                ],
                2,
            ),
        ]
        assert feasible(systems[0]) is not None
        assert feasible(systems[1]) is None
        rng = random.Random(61)
        for _ in range(300):
            s = rand_feasibility_system(rng, max_rows=4, max_vars=4)
            n = s.var_count
            eq = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            rhs = F(rng.randint(0, 4))
            lt = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            extra = (
                Row(eq, Rel.EQ, rhs),
                Row(tuple(2 * c for c in eq), Rel.EQ, 2 * rhs),
                Row(lt, Rel.LT, F(rng.randint(-2, 4))),
            )
            systems.append(LinearSystem(s.rows + extra, n))
        for s in systems:
            sol = feasible(s)
            assert (sol is not None) == fm_feasible(s)
            assert sol is None or satisfies(s, sol.values)

    def test_agrees_with_fourier_motzkin(self):
        rng = random.Random(43)
        for _ in range(400):
            s = rand_feasibility_system(rng, max_rows=6, max_vars=4)
            assert (feasible(s) is not None) == fm_feasible(s)

    def test_matches_fraction_reference(self, monkeypatch):
        # Same results and the same pivots, in order, as the Fraction
        # simplex: the integer tableau takes the reference's path, Dantzig
        # pricing with a lexicographic ratio test, on every input row.
        # Some phase-2 runs end with an artificial basic at 0, so the paths
        # are compared where the phase-1 tableau carries one through.
        path, ref_path = [], []
        seen = Counter()

        def recording(pivot, out):
            def step(tableau, basis, row, col):
                out.append((row, col))
                pivot(tableau, basis, row, col)

            return step

        monkeypatch.setattr(linrat, "_pivot", recording(linrat._pivot, path))
        monkeypatch.setitem(globals(), "_ref_pivot", recording(_ref_pivot, ref_path))
        rng = random.Random(67)
        draws = (rand_feasibility_system, with_dependent_rows, with_denominators)
        seen_feasible = 0
        for k in range(3000):
            s = draws[k % 3](rng)
            path.clear()
            ref_path.clear()
            sol = feasible(s)
            assert sol == ref_feasible(s, seen)
            assert path == ref_path
            seen_feasible += sol is not None
        assert 600 < seen_feasible < 2400
        assert seen["artificial_basic"] > 0

    def test_repeated_and_decided_rows_agree_with_fourier_motzkin(self):
        # Repeated bounds, rows with an equality's coefficients and all-zero
        # rows of every relation all reach the tableau; a presolve
        # (``ref_presolve``) would decide or merge them.  The verdict is
        # Fourier-Motzkin's, and every solution satisfies every input row.
        rng = random.Random(83)
        seen = Counter()
        for _ in range(1000):
            s, x = rand_system_with_point(rng, max_rows=4, max_vars=4)
            n = s.var_count
            eq = tuple(F(rng.randint(0, 2)) for _ in range(n))
            rows = list(s.rows) + [Row(eq, Rel.EQ, sum(c * v for c, v in zip(eq, x)))]
            for _ in range(rng.randint(1, 4)):
                coeffs = rng.choice((rng.choice(rows).coeffs, eq, (F(0),) * n))
                value = sum(c * v for c, v in zip(coeffs, x))
                rel = rng.choice(list(Rel))
                rows.append(Row(coeffs, rel, value + rng.choice((-1, 0, 0, 1, F(1, 2)))))
            rng.shuffle(rows)
            s = LinearSystem(tuple(rows), n)
            sol = feasible(s)
            assert (sol is not None) == fm_feasible(s)
            assert sol is None or ref_satisfies(s, sol.values)
            kept = ref_presolve(s.rows)
            seen["decided" if kept is None else "dropped" if len(kept) < len(rows) else "whole"] += 1
            seen[sol is not None] += 1
        assert seen[True] > 200 and seen[False] > 200
        assert seen["decided"] > 200 and seen["dropped"] > 200

    def test_decided_rows_fail(self):
        # a row the total decides and an all-zero row that fails leave no
        # solution; the tableau refutes them, since the solver's clash
        # table, not feasible, keeps such rows out of a solver system
        assert feasible(sys_of([([1, 1], Rel.EQ, 1), ([1, 1], Rel.LT, 1)], 2)) is None
        assert feasible(sys_of([([0, 0], Rel.GE, F(1, 2))], 2)) is None

    def test_bound_pairs_fail_and_near_misses_pass(self):
        # two bounds that contradict, on one vector or on a vector and
        # its complement under the total row, leave no solution; the
        # tableau refutes them, since feasible decides no row on its own.
        # Near misses still get a solution
        total = ([1, 1, 1], Rel.EQ, 1)
        refuted = [
            # direct: a >= s against a < u with s >= u, and a <= u with s > u
            [total, ([1, 0, 1], Rel.GE, F(1, 2)), ([1, 0, 1], Rel.LT, F(1, 2))],
            [([1, 2], Rel.GE, 3), ([1, 2], Rel.LE, F(5, 2))],
            # P>=1 ~p against P>=1/2 p: GE + GE on complements, s + t > e
            [([1, 1], Rel.EQ, 1), ([0, 1], Rel.GE, 1), ([1, 0], Rel.GE, F(1, 2))],
            [total, ([1, 0, 0], Rel.GE, F(1, 2)), ([0, 1, 1], Rel.GE, F(2, 3))],
            # LT + LT and LT + LE on complements, s + t <= e
            [total, ([1, 0, 1], Rel.LT, F(1, 2)), ([0, 1, 0], Rel.LT, F(1, 2))],
            [total, ([0, 1, 0], Rel.LE, F(1, 3)), ([1, 0, 1], Rel.LT, F(2, 3))],
            # LE + LE on complements, s + t < e
            [total, ([0, 0, 1], Rel.LE, F(1, 3)), ([1, 1, 0], Rel.LE, F(1, 2))],
        ]
        for rows in refuted:
            s = sys_of(rows, len(rows[0][0]))
            assert feasible(s) is None
            assert not fm_feasible(s)
        near = [
            [total, ([1, 0, 0], Rel.GE, F(1, 3)), ([0, 1, 1], Rel.GE, F(2, 3))],
            [total, ([1, 0, 1], Rel.LT, F(1, 2)), ([0, 1, 0], Rel.LT, F(2, 3))],
            [total, ([0, 0, 1], Rel.LE, F(1, 3)), ([1, 1, 0], Rel.LE, F(2, 3))],
            [total, ([1, 0, 1], Rel.GE, F(1, 2)), ([1, 0, 1], Rel.LE, F(1, 2))],
        ]
        for rows in near:
            s = sys_of(rows, 3)
            sol = feasible(s)
            assert sol is not None and ref_satisfies(s, sol.values)

    def test_bound_pairs_agree_with_fourier_motzkin(self):
        # columns that keep or zero each coefficient of an equality's q,
        # bounded beside it with their complements under it, as the
        # solver's 0/1 literal bodies and their negations are beside the
        # total row, which most draws use as q
        rng = random.Random(89)
        seen = Counter()
        thresholds = [F(k, 6) for k in range(7)]
        for _ in range(2400):
            n = rng.randint(2, 4)
            q = (1,) * n if rng.random() < 0.7 else tuple(rng.randint(1, 2) for _ in range(n))
            rows = [(q, Rel.EQ, rng.choice((1, 1, 2)))]
            for _ in range(rng.randint(2, 5)):
                a = tuple(c * rng.randint(0, 1) for c in q)
                if rng.random() < 0.5:
                    a = tuple(cq - c for cq, c in zip(q, a))
                rel = rng.choice((Rel.GE, Rel.GE, Rel.LT, Rel.LE))
                rows.append((a, rel, rng.choice(thresholds)))
            rng.shuffle(rows)
            s = sys_of(rows, n)
            sol = feasible(s)
            assert (sol is not None) == fm_feasible(s)
            assert sol is None or ref_satisfies(s, sol.values)
            seen["feasible"] += sol is not None
            seen["infeasible"] += sol is None
        assert seen["feasible"] > 700 and seen["infeasible"] > 1000

    @pytest.mark.parametrize(
        "rows, n",
        [
            # plain int coefficients and right-hand sides
            ([Row((1, 1), Rel.EQ, 1), Row((1, 0), Rel.LE, 0)], 2),
            ([Row((2, 3), Rel.GE, 5), Row((1, 1), Rel.LT, 2)], 2),
            ([Row((1, 1), Rel.EQ, 1), Row((1, 1), Rel.LT, 1)], 2),
            # a >= row with right-hand side 0, stored negated
            ([Row((1, -1), Rel.GE, 0), Row((1, 1), Rel.EQ, 1)], 2),
            ([Row((-1, 0), Rel.GE, 0), Row((1, 1), Rel.GE, F(1, 2))], 2),
            # negative right-hand sides
            ([Row((1, -1), Rel.LE, -1), Row((1, 1), Rel.LE, 3)], 2),
            ([Row((-1, -1), Rel.LT, F(-1, 3)), Row((1, 1), Rel.LE, F(1, 3))], 2),
            ([Row((1,), Rel.EQ, -2)], 1),
            # the all-zero strict row 0 < 0, alone and beside other rows
            ([Row((0, 0), Rel.LT, 0)], 2),
            ([Row((1, 1), Rel.EQ, 1), Row((0, 0), Rel.LT, 0)], 2),
            ([Row((0,), Rel.LT, 1), Row((0,), Rel.LE, 0)], 1),
            # thresholds with large numerators and denominators
            (
                [
                    Row((1, 1), Rel.EQ, 1),
                    Row((1, 0), Rel.GE, F(123456789, 987654321)),
                    Row((0, 1), Rel.GE, F(864197532, 987654321)),
                ],
                2,
            ),
            (
                [
                    Row((1, 1), Rel.EQ, 1),
                    Row((1, 0), Rel.GE, F(123456789, 987654321)),
                    Row((0, 1), Rel.GE, F(864197533, 987654321)),
                ],
                2,
            ),
            (
                [
                    Row((F(123456789, 987654321), 1, 0), Rel.LT, F(1, 3)),
                    Row((1, F(-987654321, 123456789), 1), Rel.GE, F(2, 7)),
                    Row((1, 1, 1), Rel.EQ, 1),
                ],
                3,
            ),
        ],
    )
    def test_tableau_build_edge_cases(self, rows, n):
        s = LinearSystem(tuple(rows), n)
        sol = feasible(s)
        assert (sol is not None) == fm_feasible(s)
        assert sol is None or satisfies(s, sol.values)


# O(3) of bench/workloads.py: 27 LPs of 10 rows over 64 signature columns.
O3 = (
    "~(~P>=1/2 p10 & ~P>=1/2 p11) & ~(~P>=1/2 p12 & ~P>=1/2 p13)"
    " & ~(~P>=1/2 p14 & ~P>=1/2 p15) & P>=1 ~p10 & P>=1 ~p12 & P>=1 ~p14"
)


def sat_pivots(monkeypatch, text):
    """solve_sat's model of text and the number of pivots it took."""
    count = 0

    def counting(tableau, basis, row, col):
        nonlocal count
        count += 1
        pivot(tableau, basis, row, col)

    pivot = linrat._pivot
    monkeypatch.setattr(linrat, "_pivot", counting)
    model = solve_sat(parse_pformula(text), default_cs())
    return model, count


class TestPricing:
    def test_beale_example_does_not_cycle(self, monkeypatch):
        # Beale (1955): minimize -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 subject to
        #   1/4 x4 -  8 x5 -     x6 + 9 x7 + x1 = 0
        #   1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 + x2 = 0
        #                        x6        + x3 = 1
        # from the basis x1, x2, x3, with the rows and the cost scaled to
        # ints.  Dantzig pricing alone cycles here, with period 6.
        pivots = []

        def limited(tableau, basis, row, col):
            pivots.append((row, col))
            if len(pivots) > 20:
                raise AssertionError(f"no optimum after 20 pivots: {pivots}")
            pivot(tableau, basis, row, col)

        pivot = linrat._pivot
        monkeypatch.setattr(linrat, "_pivot", limited)
        tableau = [
            [4, 0, 0, 1, -32, -4, 36, 0],
            [0, 2, 0, 1, -24, -1, 6, 0],
            [0, 0, 1, 0, 0, 1, 0, 1],
        ]
        basis = [0, 1, 2]
        cost = (0, 0, 0, F(-3, 4), 20, F(-1, 2), 6)
        linrat._price_out(tableau, basis, [int(4 * c) for c in cost])
        linrat._run_simplex(tableau, basis)
        x = [F(0)] * 7
        for i, b in enumerate(basis):
            x[b] = F(tableau[i][-1], tableau[i][b])
        assert sum(c * v for c, v in zip(cost, x)) == F(-5, 4)
        assert (x[3], x[5], x[0]) == (1, 1, F(3, 4))

    def test_one_pass_matches_pivoting_out(self, monkeypatch):
        # _price_out's one pass gives the row that one _pivot per basic
        # column of nonzero cost gives, on phase 1's starting tableau and
        # on phase 2's, which phase 1 has pivoted
        price_out = linrat._price_out
        phases = Counter()

        def compared(tableau, basis, cost):
            by_pivots = [list(line) for line in tableau] + [list(cost) + [0]]
            for i, b in enumerate(basis):
                if by_pivots[-1][b]:
                    linrat._pivot(by_pivots, list(basis), i, b)
            price_out(tableau, basis, cost)
            assert tableau[-1] == by_pivots[-1]
            phases[len(tableau) - len(basis)] += 1

        monkeypatch.setattr(linrat, "_price_out", compared)
        rng = random.Random(71)
        for k in range(600):
            feasible((with_dependent_rows, with_denominators)[k % 2](rng))
        assert phases[1] > 100 and phases[2] > 100

    def test_o3_pivot_count(self, monkeypatch):
        # Bland's rule throughout took 1739 pivots on these LPs, Dantzig's
        # 754 when every row started on an artificial that was priced out
        # with a pivot, and 319 before the presolve refuted the pairs of
        # bounds that contradict, P>=1 ~p10 against P>=1/2 p10 among them.
        model, count = sat_pivots(monkeypatch, O3)
        assert model is not None and count <= 20

    def test_split_mass_does_not_stall(self, monkeypatch):
        # N(10): with a Bland pivot after each degenerate one, nearly every
        # pivot was degenerate and the columns entered one by one in index
        # order, 2^10 + 3 = 1027 pivots; 17 with the lexicographic ratio test
        model, count = sat_pivots(monkeypatch, split_mass_text(10))
        assert model is not None and count <= 40

    def test_or_cover_does_not_stall(self, monkeypatch):
        # O(6)+C: one LP over 2^12 columns, 211 pivots with the Bland
        # fallback, 19 with the lexicographic ratio test
        model, count = sat_pivots(monkeypatch, or_cover_text(6))
        assert model is not None and count <= 40

    def test_rows_start_lexicographically_positive(self, monkeypatch):
        # every row of feasible's starting tableau, as phase 1 gets it, has
        # its highest-index nonzero on its start column, and positive there
        run = linrat._run_simplex
        starts = 0

        def checked(tableau, basis, enterable=None):
            nonlocal starts
            if enterable is None:  # phase 1, on the starting tableau
                for line, b in zip(tableau, basis):
                    assert max(k for k, v in enumerate(line[:-1]) if v) == b
                    assert line[b] > 0
                starts += 1
            run(tableau, basis, enterable)

        monkeypatch.setattr(linrat, "_run_simplex", checked)
        rng = random.Random(73)
        draws = (rand_feasibility_system, with_dependent_rows, with_denominators)
        for k in range(600):
            feasible(draws[k % 3](rng))
        assert starts == 600

    def test_o3_core_needs_no_pivot(self, monkeypatch):
        # O(3)+U: each of its 18 accepted assignments bounds some body and
        # its negation beyond the total measure, so the clash table skips
        # all 18 and no system is built
        def no_pivot(tableau, basis, row, col):
            raise AssertionError(f"pivot on ({row}, {col})")

        monkeypatch.setattr(linrat, "_pivot", no_pivot)
        systems = []
        f = parse_pformula(O3 + " & P>=1/2 p10")
        assert solve_sat(f, default_cs(), on_system=systems.append) is None
        assert systems == []


class TestSatisfies:
    def test_wrong_length_is_not_a_solution(self):
        s = sys_of([([1, 1], Rel.EQ, 1)], 2)
        assert not satisfies(s, (F(1),))
        assert not satisfies(s, (F(1), F(0), F(0)))
        assert satisfies(s, (F(1), F(0)))
        with pytest.raises(ValueError):
            shrink_solution(s, Solution((F(1),)))

    def test_matches_fraction_reference(self):
        # on a row's boundary: x1 + 2 x2 at (1/3, 1/3) is exactly 1
        point = (F(1, 3), F(1, 3))
        for rel, holds in ((Rel.EQ, True), (Rel.LE, True), (Rel.GE, True), (Rel.LT, False)):
            s = sys_of([([1, 2], rel, 1)], 2)
            assert satisfies(s, point) is ref_satisfies(s, point) is holds
        dens = (1, 2, 3, 7, 10**9 + 7)
        rng = random.Random(73)
        seen = set()
        for _ in range(4000):
            n = rng.randint(1, 4)
            values = tuple(F(rng.randint(-1, 4), rng.choice(dens)) for _ in range(n))
            as_int = rng.random() < 0.3
            rows = []
            for _ in range(rng.randint(1, 4)):
                if as_int:
                    coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
                else:
                    coeffs = tuple(F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n))
                rel = rng.choice((Rel.EQ, Rel.LE, Rel.GE, Rel.LT))
                if rng.random() < 0.5:  # on the row's boundary
                    rhs = sum(c * v for c, v in zip(coeffs, values))
                else:
                    rhs = F(rng.randint(-4, 4), rng.choice(dens))
                rows.append(Row(coeffs, rel, rhs))
            s = LinearSystem(tuple(rows), n)
            if rng.random() < 0.1:
                values = values[:-1] if rng.random() < 0.5 else values + (F(0),)
            got = satisfies(s, values)
            assert got == (len(values) == n and ref_satisfies(s, values))
            seen.add((got, len(values) == n, any(v < 0 for v in values)))
        # every combination but a True verdict with a negative entry
        assert len(seen) == 5


class TestReduceSupport:
    """Support reduction by shrink_solution on all-equality systems, where
    pinning changes no row."""

    def test_single_row_three_vars(self):
        s = sys_of([([1, 1, 1], Rel.EQ, 1)], 3)
        x = Solution((F(1, 3), F(1, 3), F(1, 3)))
        out = shrink_solution(s, x)
        assert satisfies(s, out.values)
        assert sum(1 for v in out.values if v > 0) == 1
        assert sum(out.values) == 1

    def test_already_small_support_unchanged(self):
        s = sys_of([([1, 1, 1], Rel.EQ, 1), ([1, 0, 0], Rel.EQ, F(1, 2))], 3)
        x = Solution((F(1, 2), F(1, 2), F(0)))
        assert shrink_solution(s, x) == x

    def test_zero_solution_unchanged(self):
        s = sys_of([([1, -1], Rel.EQ, 0)], 2)
        x = Solution((F(0), F(0)))
        assert shrink_solution(s, x) == x

    def test_never_adds_support(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randint(2, 6)
            r = rng.randint(1, min(3, n - 1))
            x = tuple(F(rng.randint(0, 3)) for _ in range(n))
            rows = []
            for _ in range(r):
                coeffs = [F(rng.randint(-2, 2)) for _ in range(n)]
                rows.append((coeffs, Rel.EQ, sum(c * v for c, v in zip(coeffs, x))))
            s = sys_of(rows, n)
            out = shrink_solution(s, Solution(x))
            assert satisfies(s, out.values)
            before = {i for i, v in enumerate(x) if v > 0}
            after = {i for i, v in enumerate(out.values) if v > 0}
            assert after <= before
            assert len(after) <= r


class TestIntegerize:
    def test_half(self):
        s = sys_of([([1], Rel.GE, F(1, 2))], 1)
        out, l = integerize(s)
        assert out.rows[0] == Row((F(2),), Rel.GE, F(1))
        assert l == 2

    def test_integral_unchanged(self):
        s = sys_of([([1, 1], Rel.EQ, 1)], 2)
        out, l = integerize(s)
        assert out == s
        assert l == 1

    def test_three_quarters(self):
        s = sys_of([([1], Rel.GE, F(3, 4))], 1)
        out, l = integerize(s)
        assert out.rows[0] == Row((F(4),), Rel.GE, F(3))
        assert l == 3

    def test_relations_preserved(self):
        s = sys_of([([F(1, 2), F(1, 3)], Rel.LT, F(1, 6))], 2)
        out, _ = integerize(s)
        assert out.rows[0].rel is Rel.LT
        assert all(c.denominator == 1 for c in out.rows[0].coeffs)


class TestShrinkSolution:
    def test_bound_expression(self):
        assert shrink_bound(2, 2) == 14

    def test_square_nonsingular_identity(self):
        s = sys_of([([1, 0], Rel.EQ, F(1, 3)), ([0, 1], Rel.EQ, F(2, 3))], 2)
        x = Solution((F(1, 3), F(2, 3)))
        assert shrink_solution(s, x) == x

    def test_mixed_system(self):
        s = sys_of([([1, 1], Rel.EQ, 1), ([1, 0], Rel.GE, F(1, 4))], 2)
        x = Solution((F(1, 2), F(1, 2)))
        out = shrink_solution(s, x)
        assert satisfies(s, out.values)
        assert sum(1 for v in out.values if v > 0) <= 2
        for v in out.values:
            assert size_rat(v) <= shrink_bound(2, 1)

    def test_rejects_non_solution(self):
        s = sys_of([([1], Rel.EQ, 1)], 1)
        with pytest.raises(ValueError):
            shrink_solution(s, Solution((F(2),)))

    def test_feasible_solutions_are_fixed_points(self):
        # feasible returns basic solutions, so shrinking one changes
        # nothing; this is what keeps emitted models as solved
        rng = random.Random(59)
        seen_feasible = 0
        for _ in range(300):
            s = rand_feasibility_system(rng)
            x = feasible(s)
            if x is not None:
                seen_feasible += 1
                assert shrink_solution(integerize(s)[0], x) == x
        assert seen_feasible > 50

    def test_theorem_properties_randomized(self):
        rng = random.Random(53)
        for _ in range(150):
            s, x = rand_system_with_point(rng)
            int_s, l = integerize(s)
            out = shrink_solution(int_s, Solution(x))
            r = len(int_s.rows)
            assert satisfies(int_s, out.values)
            assert all(v >= 0 for v in out.values)
            assert sum(1 for v in out.values if v > 0) <= r
            assert all(
                x[i] > 0 for i, v in enumerate(out.values) if v > 0
            )
            bound = shrink_bound(r, l)
            assert all(size_rat(v) <= bound for v in out.values)


class TestSystemStr:
    def test_format(self):
        s = sys_of([([1, F(1, 2)], Rel.GE, F(1, 3)), ([0, 0], Rel.EQ, 0)], 2)
        text = system_str(s)
        assert "1*z1 + 1/2*z2 >= 1/3" in text
        assert "0 = 0" in text
