"""Time single large family instances once each, for comparison with the
baseline figures quoted in ROADMAP.md (not part of the gated benchmark).

    python3 bench/frontier.py              # B(10..12), O(3), W(14..16), E(8,5)
    python3 bench/frontier.py "B(14)+U"    # any instance by name

Names: B(b), O(m), W(k) and E(d,k), each optionally with +U for the
member with the UNSAT core; O(m) without +U is its SAT sibling.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from pjsat import default_cs, parse_pformula, solve_sat  # noqa: E402

DEFAULT = (
    "B(10)", "B(10)+U", "B(12)", "B(12)+U", "O(3)", "O(3)+U",
    "W(14)+U", "W(16)+U", "E(8,5)",
)
PROPS = [f"p{i}" for i in range(10, 40)]


def text_of(name):
    m = re.fullmatch(r"([BOWE])\((\d+)(?:,(\d+))?\)(\+U)?", name)
    if m is None:
        raise SystemExit(f"bad instance name {name!r}")
    fam, a, b, core = m.group(1), int(m.group(2)), m.group(3), bool(m.group(4))
    if fam == "B":
        return workloads.basis_family(PROPS, a, core)
    if fam == "O":
        return workloads.or_family(PROPS, a, core)
    if fam == "W":
        return workloads.wide_family(PROPS, a, core)
    return workloads.evidence_family(PROPS, a, int(b), core)


def main(names):
    cs = default_cs()
    for name in names or DEFAULT:
        t0 = time.perf_counter()
        model = solve_sat(parse_pformula(text_of(name)), cs)
        dt = time.perf_counter() - t0
        print(f"{name:10s} {dt:8.2f} s  {'SAT' if model else 'UNSAT'}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
