"""Exact-rational linear feasibility and small-solution machinery.

Systems are rows of rational coefficients with relations {=, <=, >=, <}
over implicitly non-negative variables.  ``feasible`` is the one simplex
routine: exact, Dantzig pricing with a lexicographic ratio test, which
cannot cycle.  Each row starts basic on its own slack where it can, else
on an artificial.  Phase 1 always runs; phase 2, which maximizes a slack
epsilon, runs only when some row is strict, and it continues on phase
1's tableau, artificial columns and all.  It returns a basic solution,
which the solver takes as its model.  Its tableau is fraction-free, on
Python ints, after Edmonds (1967) and Bareiss (1968), with one row per
input row.  It checks its solution in ints over one common denominator;
``Fraction``s are read only in input rows, made only for positive entries.
``shrink_solution`` turns any non-negative solution into a basic one
with few positive entries and certified entry sizes: it pins every row
at the solution's value, restricts the system to the solution's support
and calls ``feasible`` there.  ``_pivot`` is the only pivot step here.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .syntax import rat_str, shrink_bound, size_int  # noqa: F401 re-export


class Rel(enum.Enum):
    EQ = "="
    LE = "<="
    GE = ">="
    LT = "<"
    __hash__ = object.__hash__  # a C-level identity hash; Enum's is a Python call


@dataclass(frozen=True)
class Row:
    coeffs: tuple
    rel: Rel
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    rows: tuple
    var_count: int

    def __post_init__(self):
        for row in self.rows:
            if len(row.coeffs) != self.var_count:
                raise ValueError("row length does not match var_count")


@dataclass(frozen=True)
class Solution:
    values: tuple


def row_str(row: Row) -> str:
    terms = " + ".join(
        f"{rat_str(c)}*z{i + 1}" for i, c in enumerate(row.coeffs) if c != 0
    )
    if not terms:
        terms = "0"
    return f"{terms} {row.rel.value} {rat_str(row.rhs)}"


def system_str(system: LinearSystem) -> str:
    return "\n".join(row_str(row) for row in system.rows)


def _holds(lhs: int, rel: Rel, rhs: int) -> bool:
    if rel is Rel.EQ:
        return lhs == rhs
    if rel is Rel.LE:
        return lhs <= rhs
    if rel is Rel.GE:
        return lhs >= rhs
    return lhs < rhs


def satisfies(system: LinearSystem, values) -> bool:
    """Exact substitution check: values has one non-negative entry per
    variable, and every row holds, strict rows strictly."""
    if len(values) != system.var_count:
        return False
    rows = [(*_integer_row(row.coeffs, row.rhs)[1:], row.rel) for row in system.rows]
    d, nums = over_lcm([(v.numerator, v.denominator) for v in values])
    return _satisfied(rows, [(j, v) for j, v in enumerate(nums) if v], d)


def over_lcm(pairs):
    """The fractions n/q given as a collection of (n, q) pairs of ints,
    q != 0, over one common denominator: (d, [n * (d // q)]), d > 0 the
    lcm of the q."""
    d = math.lcm(*(q for _, q in pairs))
    return d, [n * (d // q) for n, q in pairs]


def _satisfied(rows, support, d):
    """Whether the values v / d (d > 0), given by their nonzero (column, v)
    pairs in support, are non-negative and satisfy the integer rows
    (coeffs, rhs, rel), each row's sum over support against d * rhs."""
    return all(v > 0 for _, v in support) and all(
        _holds(sum(coeffs[j] * v for j, v in support), rel, d * rhs)
        for coeffs, rhs, rel in rows
    )


class UnboundedError(RuntimeError):
    pass


def _integer_row(coeffs, rhs):
    """A row's scale, the lcm of its denominators, and its coefficients
    and right-hand side multiplied by that scale, as ints."""
    scale = math.lcm(*(c.denominator for c in coeffs), rhs.denominator)
    return (
        scale,
        [c.numerator * (scale // c.denominator) for c in coeffs],
        rhs.numerator * (scale // rhs.denominator),
    )


def _pivot(tableau, basis, row, col):
    """Fraction-free Gauss-Jordan step on tableau[row][col]: the one pivot
    in linrat.  Callers pivot only on an entry p > 0: the ratio test picks
    one, and a row's basic entry starts at its positive scale and is only
    ever scaled by positive factors.  Every other row
    with an entry f in column col becomes p*line - f*prow, divided by the
    gcd of its entries.  Both terms are divided by gcd(p, f) first, so
    when p divides f the row is not rescaled, and f*prow is subtracted on
    prow's nonzero columns only."""
    prow = tableau[row]
    p = prow[col]
    nonzero = [(k, v) for k, v in enumerate(prow) if v]
    for i, line in enumerate(tableau):
        f = line[col]
        if f and i != row:
            g = math.gcd(p, f)
            if g != p:
                line = list(map((p // g).__mul__, line))
            f //= g
            for k, v in nonzero:
                line[k] -= f * v
            g = math.gcd(*line)
            tableau[i] = [v // g for v in line] if g > 1 else line
    basis[row] = col


def _price_out(tableau, basis, cost):
    """Append cost as the objective row, priced out over the basis in one
    pass, gcd-reduced: L*cost minus (L/p)*cost[b] times each basic row of
    pivot p on its basic column b, L the lcm of those p.  Its entries are
    the reduced costs, its last entry minus the objective, all times one
    positive factor, as pivoting on each basic b with cost[b] != 0 gives."""
    priced = [(tableau[i], b) for i, b in enumerate(basis) if cost[b]]
    scale = math.lcm(*(line[b] for line, b in priced))
    row = [scale * c for c in cost] + [0]
    for line, b in priced:
        f = scale // line[b] * cost[b]
        row = [r - f * v for r, v in zip(row, line)]
    g = math.gcd(*row)
    tableau.append([v // g for v in row] if g > 1 else row)


def _run_simplex(tableau, basis, enterable=None):
    """Minimize the objective in the tableau's last row in place.  The
    entering column has the most negative reduced cost, lowest index on
    ties (Dantzig).  Basic columns have reduced cost 0 and never enter,
    nor does column j when enterable[j] is False.  The ratio test over
    the first len(basis) rows leaves on the lexicographically least
    row / a, a the row's entry in the entering column, read by cross
    products, so the rows' scales cancel: the right-hand side, then each
    column from the last to the first.  Each of those rows must start
    lexicographically positive in that order, as in ``feasible``, where
    a row's highest-index nonzero is its start column, at a positive
    scale.  The rows then stay lexicographically positive and distinct,
    and each pivot raises the objective row lexicographically, so no
    basis repeats, whatever enters (Dantzig, Orden and Wolfe, Pacific J.
    Math. 1955)."""
    m = len(basis)
    while True:
        costs = tableau[-1][:-1]
        if enterable is not None:
            costs = [d if ok else 0 for d, ok in zip(costs, enterable)]
        low = min(costs, default=0)
        if low >= 0:
            return
        enter = costs.index(low)
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave < 0:
                    leave, p = i, a
                    continue
                for x, y in zip(reversed(tableau[i]), reversed(tableau[leave])):
                    d = x * p - y * a
                    if d:
                        break
                if d < 0:
                    leave, p = i, a
        if leave < 0:
            raise UnboundedError("objective unbounded")
        _pivot(tableau, basis, leave, enter)


def feasible(system: LinearSystem):
    """A non-negative exact solution (strict rows strictly), or None.
    It is basic: its positive entries sit on independent columns.

    The tableau has one row per input row.  Its columns are the
    variables, then a slack eps when some row is strict, then one slack
    per non-equality row, then one artificial per row that does not
    start on its slack.  A strict row ``a < b`` is written
    ``a + eps <= b`` and ``eps <= 1`` is added as the strict row
    ``0 < 1``.  Every row is stored with a non-negative right-hand side,
    and it starts basic on its slack when the slack's stored entry is
    positive: ``<=`` and ``<`` rows with rhs >= 0, ``>=`` rows with
    rhs <= 0, and ``0 < 1`` (Bixby, ORSA J. Computing 1992).
    Phase 1 minimizes the sum of the artificials.  Without a strict row
    its basic solution is the answer.  Otherwise phase 2 maximizes eps,
    and the system is feasible iff the optimum has eps > 0.  Row i's
    phase-1 multiplier y_i, for the row as stored, is read at the column
    s it starts basic on, scale_i times the unit vector e_i: the final
    phase-1 row holds c_s - scale_i * y_i there, c_s 1 for an artificial
    and 0 for a slack, times the objective row's positive factor.

    Phase 2 continues on phase 1's tableau (Dantzig, 1963): the eps
    objective is priced out as a new last row, below the phase-1 row, and
    only non-artificial columns whose phase-1 reduced cost d_j is 0 enter.
    Artificials may stay basic, at 0.  The phase-1 row reads w = sum of
    artificials = sum of d_j x_j over the nonbasic columns, w = 0, and
    entering only d_j = 0 keeps it 0: an entering column's entries in the
    artificials' rows sum to 0, so a negative one means a positive one at
    right-hand side 0, and a degenerate pivot.  Pivots leave the phase-1
    row, which is 0 in the entering column, and so the mask, unchanged.
    A redundant row, 0 on every non-artificial column, is never a pivot
    row.  Every feasible point has x_j = 0 where d_j > 0, so the
    restricted phase 2 reaches the true maximum of eps, and its
    lexicographic pivots cannot cycle.

    The tableau holds Python ints.  Each row, the objective row too, is a
    positive multiple of the rational row that Gauss-Jordan division
    would give, reduced by the gcd of its entries; an input row enters
    multiplied by the lcm of its denominators, so its starting basic
    entry is that scale.  Every read is invariant under the multiples:
    signs of reduced costs and of the objective, the test d_j == 0, a
    cross-multiplied ratio test, and the basic values rhs_i / line_i[b],
    each read as that pair of ints.  eps > 0 is read off its pair's sign.
    Over the lcm d of their denominators, the values are checked
    non-negative and against every input row, as scaled to ints.
    ``Fraction``s are read only in the input rows and made only for the
    positive entries of the returned solution.
    """
    n = system.var_count
    # each input row as ints, (scale, coeffs, rhs, rel)
    ints = [(*_integer_row(row.coeffs, row.rhs), row.rel) for row in system.rows]
    eps = int(any(rel is Rel.LT for *_, rel in ints))
    rows = ints + [(1, [0] * n, 1, Rel.LT)] * eps
    arts = [rel is Rel.EQ or (rhs > 0 if rel is Rel.GE else rhs < 0) for *_, rhs, rel in rows]
    art = n + eps + sum(rel is not Rel.EQ for *_, rel in rows)
    width = art + sum(arts)
    free = itertools.count(art)  # the artificial columns, in row order
    tableau, basis = [], []
    slack = n + eps
    for (scale, coeffs, rhs, rel), artificial in zip(rows, arts):
        # Stored with a non-negative right-hand side, a row a >= b reads
        # -a + s = -b, and at b = 0 it is -a + s = 0, starting on s.
        unit = -scale if rhs < 0 or (rhs == 0 and rel is Rel.GE) else scale
        line = (coeffs if unit > 0 else [-c for c in coeffs]) + [0] * (width - n)
        line.append(abs(rhs))
        if rel is Rel.LT:
            line[n] = unit
        if rel is not Rel.EQ:
            line[slack] = -unit if rel is Rel.GE else unit
            slack += 1
        start = next(free) if artificial else slack - 1  # a slack start is scale already
        line[start] = scale
        tableau.append(line)
        basis.append(start)

    # phase 1: minimize the sum of artificials
    _price_out(tableau, basis, [0] * art + [1] * (width - art))
    _run_simplex(tableau, basis)
    if tableau[-1][-1] < 0:  # the artificials' sum stays positive
        return None

    if eps:
        # phase 2 maximizes eps on the same tableau, below the phase-1 row
        enterable = [d == 0 for d in tableau[-1][:art]] + [False] * (width - art)
        _price_out(tableau, basis, [0] * n + [-1] + [0] * (width - n - 1))
        _run_simplex(tableau, basis, enterable)

    # the nonzero basic values of the variables and eps, each as its pair (rhs, line[b])
    basic = {b: (line[-1], line[b]) for b, line in zip(basis, tableau) if b < n + eps and line[-1]}
    if eps and math.prod(basic.pop(n, (0, 1))) <= 0:  # eps is not positive
        return None
    d, nums = over_lcm(basic.values())
    if not _satisfied([row[1:] for row in ints], list(zip(basic, nums)), d):
        raise AssertionError("simplex produced an invalid solution")
    x = [Fraction(0)] * n
    for b, (rhs, p) in basic.items():
        x[b] = Fraction(rhs, p)
    return Solution(tuple(x))


def integerize(system: LinearSystem):
    """Scale each row to integer coefficients; returns the scaled system and
    the maximum coefficient size l."""
    out_rows = []
    l = 1
    for row in system.rows:
        _, coeffs, rhs = _integer_row(row.coeffs, row.rhs)
        out_rows.append(Row(tuple(map(Fraction, coeffs)), row.rel, Fraction(rhs)))
        l = max(l, size_int(abs(rhs)), *(size_int(abs(c)) for c in coeffs))
    return LinearSystem(tuple(out_rows), system.var_count), l


def shrink_solution(system: LinearSystem, x: Solution) -> Solution:
    """Transform a non-negative solution into one with at most r positive
    entries, support nested in x's, and entries of certified size.

    Every row is pinned to an equality at x's value and the system is
    restricted to x's support.  ``feasible`` on that system, which has no
    strict row and so runs phase 1 only, ends at a basic solution: it
    solves a square nonsingular subsystem, so it has at most r positive
    entries and entries of certified size.  When x's support columns are
    independent, as for every solution that ``feasible`` returns, that
    solution is x itself.
    """
    n = system.var_count
    values = x.values
    if not satisfies(system, values):
        raise ValueError("x is not a non-negative solution of the system")
    support = [j for j in range(n) if values[j] > 0]
    pinned = []
    for row in system.rows:
        coeffs = tuple(row.coeffs[j] for j in support)
        value = sum(c * values[j] for c, j in zip(coeffs, support))
        pinned.append(Row(coeffs, Rel.EQ, value))
    basic = feasible(LinearSystem(tuple(pinned), len(support))).values
    out = [Fraction(0)] * n
    for j, v in zip(support, basic):
        out[j] = v
    result = Solution(tuple(out))
    if not satisfies(system, result.values):
        raise AssertionError("shrunk solution fails the original system")
    return result
