import random
from fractions import Fraction

import pytest

from pjsat.linrat import (
    LinearSystem,
    Rel,
    Row,
    Solution,
    feasible,
    integerize,
    make_system,
    satisfies,
    shrink_bound,
    shrink_solution,
    system_str,
)
from pjsat.syntax import size_rat

from _gen import rand_feasibility_system, rand_system_with_point
from _oracles import fm_feasible

F = Fraction


def sys_of(rows, n):
    return make_system(rows, n)


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
        # A strict row sends feasible through the drive-out of artificials,
        # where an equality and its double leave a redundant row to drop.
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
