"""The machine's speed, measured by a fixed pure-Python loop.

The benchmark shares its virtual machine with other load.  Its speed
changes from second to second, and whole stretches of a minute or more run
1.5-2 times slower.  A run cannot tell such a stretch from a slower program
by timing pjsat alone, so it also times ``kernel``, a fixed loop that uses
nothing but the standard library and does the kinds of work pjsat does:
exact rational elimination (linrat), tokenising and building nested tuples
(syntax), and a closure over a set of tuples (jsem, atoms).  A time taken
between two runs of the kernel is scaled by REFERENCE_S over their mean
time, which gives it in reference seconds: the time it would take when the
kernel takes REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Best time of kernel() on the reference machine: a shared 2-vCPU x86-64
# virtual machine under Python 3.11.7, in a quiet stretch.
REFERENCE_S = 0.0072


def _eliminate(n=9):
    a = [[Fraction((i * 7 + j * 3) % 11 + (i == j) * 5, 1 + (i + j) % 4)
          for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return sum(a[i][n] / a[i][i] for i in range(n))


def _parse(text):
    """Nested tuples from a parenthesised text."""
    stack = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append(tok)
    return stack[0]


def _text(depth, i):
    if depth == 0:
        return f"p{i % 5}"
    return f"({'&|>'[i % 3]} {_text(depth - 1, 2 * i + 1)} {_text(depth - 1, 3 * i + 2)})"


def _closure(items):
    """Pairs (x, y) closed under (x, y), (y, z) -> (x, z), capped in size."""
    known = set(items)
    frontier = list(known)
    by_left = {}
    for x, y in known:
        by_left.setdefault(x, []).append(y)
    while frontier and len(known) < 2000:
        x, y = frontier.pop()
        for z in list(by_left.get(y, ())):
            if (x, z) not in known:
                known.add((x, z))
                by_left.setdefault(x, []).append(z)
                frontier.append((x, z))
    return len(known)


def kernel():
    total = _eliminate()
    for i in range(6):
        total += len(_parse(_text(8, i))[0])
    edges = [(f"t{i}", f"t{(i * k + 3) % 100}") for i in range(100) for k in (7, 11)]
    return total + _closure(edges)


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
