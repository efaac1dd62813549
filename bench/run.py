"""Time-to-verdict benchmark for pjsat.

    python3 bench/run.py --workload small --seed 1 --seconds 25 --trace 0

Decides the workload's formulas one at a time in a closed loop, in whole
rounds, until --seconds have passed: each decision is parse_pformula on
the text followed by solve_sat with the default constant specification.
Times are in reference seconds: each decision's time is scaled by the
machine's speed at that moment, read off the calibration kernel of
bench/calibrate.py timed every KERNEL_EVERY seconds, and a formula's time
is its median over the rounds.  On a shared 2-vCPU virtual machine that
ran 1.7-1.9 times slower than when quiet, ten runs of each workload then
spread by 1-2.6%, against 3-15% for the times as measured (see
bench/README.md).  The times as measured are printed beside them.
Verdicts and models are checked afterwards by bench/checks.py, outside
the timed region.  Every metric is printed as "name value unit"; the last
line of output is one JSON object with the fields correct, attempted,
failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
rounds alternate between untraced and traced (see bench/tracing.py), and
the metrics are the per-layer ones, including the tracing overhead.
Exits with status 2, printing no result, when pjsat's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_EVERY = 1.0  # seconds between set-up samples taken between rounds
KERNEL_EVERY = 0.1  # seconds between calibration samples within a round

END_TO_END = (
    ("setup_s", "s"),
    ("decide_s", "s"),
    ("sat_s", "s"),
    ("unsat_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("largest_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_worlds", "count"),
    ("weight_bits", "bits"),
)

# (metric, unit): per-layer metrics of the traced run, one pass over the workload.
PER_LAYER = (
    ("syntax.parse_s", "s"),
    ("syntax.atoms_s", "s"),
    ("syntax.atoms", "count"),
    ("jsem.atom_jsat_s", "s"),
    ("jsem.atom_jsat_calls", "count"),
    ("jsem.jsat_atoms", "count"),
    ("solver.p_dnf_s", "s"),
    ("solver.disjuncts", "count"),
    ("solver.systems", "count"),
    ("solver.build_system_s", "s"),
    ("solver.lp_cells", "count"),
    ("solver.distinct_column_ratio", "ratio"),
    ("solver.certify_s", "s"),
    ("solver.self_s", "s"),
    ("linrat.feasible_s", "s"),
    ("linrat.feasible_calls", "count"),
    ("linrat.infeasible", "count"),
    ("linrat.solution_bits_max", "bits"),
    ("linrat.shrink_s", "s"),
    ("layer.syntax_s", "s"),
    ("layer.jsem_s", "s"),
    ("layer.solver_s", "s"),
    ("layer.linrat_s", "s"),
    ("trace.decide_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.absent_hooks", "count"),
    ("src.lines", "count"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("small", "atoms", "plevel", "evidence"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _pjsat_modules():
    return {k: m for k, m in sys.modules.items() if k == "pjsat" or k.startswith("pjsat.")}


def setup(workload, seed):
    """Import pjsat (and its command line front end), build the default
    constant specification and generate the workload's texts; fresh
    imports each time, so every repeat pays the same."""
    for name in _pjsat_modules():
        del sys.modules[name]
    pjsat = importlib.import_module("pjsat")
    importlib.import_module("pjsat.cli")
    cs = pjsat.default_cs()
    return pjsat, cs, workloads.WORKLOADS[workload](seed)


def timed_setup(workload, seed):
    """Time one more set-up, then put back the pjsat modules in use."""
    saved = _pjsat_modules()
    t0 = time.perf_counter()
    setup(workload, seed)
    elapsed = time.perf_counter() - t0
    for name in _pjsat_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def to_reference(elapsed, kernel_before, kernel_after):
    """A time in reference seconds: scaled by the machine's speed of that
    moment, the mean of the calibration kernel's times around it."""
    return elapsed * 2 * calibrate.REFERENCE_S / (kernel_before + kernel_after)


class Round:
    """Times and outcomes of one pass over the workload.  The calibration
    kernel runs after the first decision that ends KERNEL_EVERY seconds or
    more after its last run, and after the last decision; ``scaled`` holds
    each decision's time in reference seconds.  The argument ``kernel`` is
    the kernel's time just before the round; the attribute, its last time
    in the round."""

    def __init__(self, pjsat, cs, instances, kernel):
        syntax, solver = pjsat.syntax, pjsat.solver
        self.times, self.models, self.errors, self.scaled = [], [], [], []
        start = last = time.perf_counter()
        since = 0  # decisions since the kernel last ran
        for n, inst in enumerate(instances, 1):
            t0 = time.perf_counter()
            try:
                model = solver.solve_sat(syntax.parse_pformula(inst.text), cs)
            except Exception as exc:  # a failed operation, counted and reported
                model, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            t1 = time.perf_counter()
            self.times.append(t1 - t0)
            self.models.append(model)
            self.errors.append(error)
            since += 1
            if t1 - last >= KERNEL_EVERY or n == len(instances):
                after = calibrate.timed_kernel()
                self.scaled += [to_reference(t, kernel, after) for t in self.times[-since:]]
                kernel, since, last = after, 0, time.perf_counter()
        self.kernel = kernel
        self.wall = time.perf_counter() - start


def check(pjsat, instances, first, rounds):
    """Independent checks of the first round's outputs, the same outputs
    from every later round, and the checker's own self-test."""
    import checks

    sys.path.insert(0, str(ROOT / "tests"))
    from _oracles import fm_feasible

    rel = pjsat.linrat.Rel
    problems = []
    if not all(r.same for r in rounds if r is not first):
        problems.append("outputs differ between rounds")
    for inst, model, error in zip(instances, first.models, first.errors):
        if error is not None:
            continue
        f = pjsat.syntax.parse_pformula(inst.text)
        for p in checks.check_verdict(inst.expect_sat, f, model, fm_feasible, rel):
            problems.append(f"{inst.name}: {p}")
    problems += checks.self_test(
        [(i.expect_sat, pjsat.syntax.parse_pformula(i.text), m)
         for i, m, e in zip(instances, first.models, first.errors) if e is None],
        fm_feasible,
        rel,
    )
    return problems


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "pjsat").glob("*.py"))


def median_times(rounds, scaled=True):
    """Each formula's median time over the rounds, in reference seconds if
    ``scaled``, else as measured."""
    return [statistics.median(ts) for ts in zip(*(r.scaled if scaled else r.times for r in rounds))]


def end_to_end(setup_times, instances, rounds, scaled=True):
    """The end-to-end figures, times in reference seconds if ``scaled``."""
    import checks

    median = median_times(rounds, scaled)
    first = rounds[0]
    sat = [m is not None for m in first.models]
    models = [m for m in first.models if m is not None]
    return {
        "setup_s": statistics.median(setup_times),
        "decide_s": sum(median),
        "sat_s": sum(t for t, s in zip(median, sat) if s),
        "unsat_s": sum(t for t, s in zip(median, sat) if not s),
        "verdict_p50_ms": 1e3 * statistics.median(median),
        "largest_s": sum(t for t, i in zip(median, instances) if i.largest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "model_worlds": sum(len(m.worlds) for m in models),
        "weight_bits": sum(checks.rat_bits(w) for m in models for _, w in m.worlds),
    }


def per_layer(untraced, traced):
    """Per-layer figures of the fastest traced round."""
    import tracing

    fastest = min(traced, key=lambda r: r.wall)
    tracer = fastest.tracer
    total, own = tracer.totals()
    c = fastest.counts
    layer_of = {attr: layer for _, attr, layer in tracing.HOOKS}
    layer_own = dict.fromkeys(tracing.LAYERS, 0.0)
    for hook, secs in own.items():
        layer_own[layer_of[hook]] += secs
    traced_decide = sum(median_times(traced))
    return tracer, {
        "syntax.parse_s": total["parse_pformula"],
        "syntax.atoms_s": total["basis_of"] + total["atoms_of"],
        "syntax.atoms": c["atoms_of"],
        "jsem.atom_jsat_s": total["atom_jsat"],
        "jsem.atom_jsat_calls": c["atom_jsat"],
        "jsem.jsat_atoms": c["jsat_atoms"],
        "solver.p_dnf_s": total["p_dnf"],
        "solver.disjuncts": c["disjuncts"],
        "solver.systems": c["build_system"],
        "solver.build_system_s": total["build_system"],
        "solver.lp_cells": c["lp_cells"],
        "solver.distinct_column_ratio": c["distinct_columns"] / max(1, c["columns"]),
        "solver.certify_s": total["certify_model"],
        "solver.self_s": own["solve_sat"],
        "linrat.feasible_s": total["feasible"],
        "linrat.feasible_calls": c["feasible"],
        "linrat.infeasible": c["infeasible"],
        "linrat.solution_bits_max": c["bits_max"],
        "linrat.shrink_s": total["integerize"] + total["shrink_solution"],
        **{f"layer.{k}_s": v for k, v in layer_own.items()},
        "trace.decide_s": traced_decide,
        "trace.overhead_s": traced_decide - sum(median_times(untraced)),
        "trace.absent_hooks": len(tracer.absent),
        "src.lines": src_lines(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pjsat" / "__init__.py").is_file():
        print(f"pjsat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # The calibration kernel runs before and after every set-up, and within
    # every round (see Round).
    kernel = calibrate.timed_kernel()
    t0 = time.perf_counter()
    pjsat, cs, instances = setup(args.workload, args.seed)
    setup_raw = [time.perf_counter() - t0]
    after = calibrate.timed_kernel()
    setup_times = [to_reference(setup_raw[0], kernel, after)]
    kernel = after
    # tracing (like checks) imports pjsat's syntax, so it is imported only
    # now, to bind to the modules of the last set-up.
    import tracing

    # Whole rounds until the time is up; with --trace 1 every other round
    # runs under a fresh tracer.  Set-up is timed again every SETUP_EVERY
    # seconds, so that its samples span the run like the rounds do.
    untraced, traced = [], []
    first = None
    start = time.perf_counter()
    next_setup = start + SETUP_EVERY
    while not (untraced and (traced or not args.trace)) or time.perf_counter() - start < args.seconds:
        if args.trace and len(traced) < len(untraced):
            tracer = tracing.Tracer(pjsat)
            tracer.install()
            try:
                r = Round(pjsat, cs, instances, kernel)
            finally:
                tracer.uninstall()
            r.tracer, r.counts = tracer, tracer.counts()
            tracer.results.clear()
            traced.append(r)
        else:
            r = Round(pjsat, cs, instances, kernel)
            untraced.append(r)
        if first is None:
            first = r
        else:  # keep one round's models, so memory does not grow with the rounds
            r.same = (r.models, r.errors) == (first.models, first.errors)
            r.models = None
        kernel = r.kernel
        if time.perf_counter() >= next_setup:
            setup_raw.append(timed_setup(args.workload, args.seed))
            after = calibrate.timed_kernel()
            setup_times.append(to_reference(setup_raw[-1], kernel, after))
            kernel = after
            next_setup = time.perf_counter() + SETUP_EVERY
    rounds = untraced + traced
    raw = end_to_end(setup_raw, instances, untraced, scaled=False)
    values = end_to_end(setup_times, instances, untraced)
    units = END_TO_END

    problems = check(pjsat, instances, first, rounds)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for inst, e in zip(instances, first.errors):
        if e:
            print(f"FAILED {inst.name}: {e}", file=sys.stderr)

    if args.trace:
        tracer, values = per_layer(untraced, traced)
        units = PER_LAYER
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}.json")
        for hook in tracer.absent:
            print(f"absent: {hook} (its metrics read 0)")
        covered = sum(values[f"layer.{k}_s"] for k in tracing.LAYERS)
        print("share of traced time: " + ", ".join(
            f"{k} {100 * values[f'layer.{k}_s'] / covered:.1f}%" for k in tracing.LAYERS))

    print(f"workload {args.workload} seed {args.seed}: {len(instances)} formulas, "
          f"{len(rounds)} rounds, {sum(m is not None for m in first.models)} SAT, "
          f"src/ {src_lines()} lines")
    if not args.trace:
        print(f"times in reference seconds (calibration kernel {calibrate.REFERENCE_S} s); "
              f"as measured, decide_s was {raw['decide_s'] / values['decide_s']:.3f} times as long")
    for name, unit in units:
        measured = "" if args.trace or raw[name] == values[name] else f" (measured {raw[name]:.6g})"
        print(f"{name} {values[name]:.6g} {unit}{measured}")
    result = {
        "correct": not problems,
        "attempted": len(instances) * len(rounds),
        "failed": sum(1 for r in rounds for e in r.errors if e),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
