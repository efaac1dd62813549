"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the module attributes that pjsat's entry points
look up at call time (``pjsat.solver.atom_jsat``, ``feasible``, ``p_dnf``,
...) with timing wrappers, and ``uninstall`` puts the originals back.
Each call becomes a span (parent, hook name, start, end) kept in memory;
a hook whose function a later version of pjsat no longer has is reported
as absent instead of failing the run.  A span's self time is its duration
minus the durations of its direct children.

Layers are the modules of src/pjsat: syntax, jsem, solver and linrat.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from checks import rat_bits

# (module, attribute, layer): every function the trace times.
HOOKS = (
    ("syntax", "parse_pformula", "syntax"),
    ("solver", "basis_of", "syntax"),
    ("solver", "atoms_of", "syntax"),
    ("solver", "atom_jsat", "jsem"),
    ("solver", "solve_sat", "solver"),
    ("solver", "p_dnf", "solver"),
    ("solver", "build_system", "solver"),
    ("solver", "certify_model", "solver"),
    ("solver", "feasible", "linrat"),
    ("solver", "integerize", "linrat"),
    ("solver", "shrink_solution", "linrat"),
)
GENERATORS = {"atoms_of"}
LAYERS = ("syntax", "jsem", "solver", "linrat")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (parent index or -1, hook, start, end)
        self.stack = []
        self.results = []  # (hook, result), counted after the round
        self.absent = []
        self._saved = []

    # --- installation ---

    def install(self):
        for module_name, attr, _ in HOOKS:
            module = getattr(self.package, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(attr)
                continue
            self._saved.append((module, attr, fn))
            wrap = self._wrap_generator if attr in GENERATORS else self._wrap
            setattr(module, attr, wrap(attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index, time.perf_counter()

    def _close(self, index, hook, start):
        end = time.perf_counter()
        self.stack.pop()
        self.spans[index] = (self.stack[-1] if self.stack else -1, hook, start, end)

    def _wrap(self, hook, fn):
        def traced(*args, **kwargs):
            index, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, hook, start)
            self.results.append((hook, result))
            return result

        return traced

    def _wrap_generator(self, hook, fn):
        """Time only the work inside the generator: one span per item."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                index, start = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index, hook, start)
                self.results.append((hook, None))
                yield item

        return traced

    # --- reduction ---

    def counts(self):
        """Calls per hook and the counts read off their results; the
        largest entry size of a feasible solution is under "bits_max"."""
        c = Counter()
        for hook, result in self.results:
            c[hook] += 1
            if hook == "atom_jsat":
                c["jsat_atoms"] += bool(result)
            elif hook == "p_dnf":
                c["disjuncts"] += len(getattr(result, "disjuncts", ()))
            elif hook == "build_system":
                n = result.var_count
                c["lp_cells"] += len(result.rows) * n
                c["columns"] += n
                c["distinct_columns"] += len(
                    set(zip(*(row.coeffs for row in result.rows))) if n else ()
                )
            elif hook == "feasible":
                if result is None:
                    c["infeasible"] += 1
                else:
                    c["bits_max"] = max([c["bits_max"]] + [rat_bits(v) for v in result.values])
        return c

    def totals(self):
        """Total and self seconds per hook over all recorded spans."""
        total = defaultdict(float)
        child = defaultdict(float)
        for parent, hook, start, end in self.spans:
            total[hook] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (_, hook, start, end) in enumerate(self.spans):
            own[hook] += end - start - child[i]
        return total, own

    def dump(self, path):
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["parent", "hook", "start", "end"],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                out,
            )
