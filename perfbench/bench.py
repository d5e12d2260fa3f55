"""One benchmark run: set-up, timed rounds, output checks, one JSON line.

Started by run.py, which pins the BLAS and OpenMP thread pools to one
thread and passes its own start time in PERFBENCH_T0.  The run imports
mg_spectra from the checkout's src/, validates the workload's configs
(setup_s ends here), then runs whole rounds of the workload's
experiments until the next round would overrun --seconds.  wall_s is the
median round.  Every round's outputs are checked; each check is one
operation.  With --trace 1 one more round runs under the outside-in
tracer and the per-layer metrics are printed instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import checks
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# (name, unit) of every per-layer metric, printed by a traced run
PER_LAYER = [
    ("spectrum.truncated_matrix_eigenvalue.calls", "count"),
    ("spectrum.truncated_matrix_eigenvalue.self_s", "s"),
    ("spectrum.solve_growth_rate.calls", "count"),
    ("spectrum.solve_growth_rate.self_s", "s"),
    ("spectrum.solve_growth_rate_diffusive.calls", "count"),
    ("spectrum.solve_growth_rate_diffusive.self_s", "s"),
    ("spectrum.f_continued_fraction.calls", "count"),
    ("spectrum.f_continued_fraction.self_s", "s"),
    ("spectrum.sweep_growth_rates.calls", "count"),
    ("spectrum.sweep_growth_rates.self_s", "s"),
    ("spectrum.sweep_growth_rates.pairs", "count"),
    ("spectrum.optimal_diffusive_mode.self_s", "s"),
    ("evolution.evolve_slice.self_s", "s"),
    ("evolution.slice_rhs.calls", "count"),
    ("evolution.evolve_full_slice.self_s", "s"),
    ("evolution.full_slice_rhs.calls", "count"),
    ("evolution.fft.calls", "count"),
    ("evolution.fft.self_s", "s"),
    ("evolution.fft.points", "count"),
    ("evolution.fft.computed_bytes", "bytes"),
    ("evolution.NonlinearSolver.rhs.calls", "count"),
    ("evolution.NonlinearSolver.advection.self_s", "s"),
    ("evolution.NonlinearSolver.diagnostics.self_s", "s"),
    ("evolution.NonlinearSolver.physical.self_s", "s"),
    ("evolution.evolve_nonlinear.self_s", "s"),
    ("evolution.eigenmode_field.self_s", "s"),
    ("evolution.measure_growth_rate.self_s", "s"),
    ("fields.radius_estimate.calls", "count"),
    ("fields.radius_estimate.self_s", "s"),
    ("fields.sobolev_a.self_s", "s"),
    ("fields.gevrey_norm.self_s", "s"),
    ("fields.radius_ode_refined.self_s", "s"),
    ("symbols.m_symbol_grids.calls", "count"),
    ("symbols.m_symbol_grids.self_s", "s"),
    ("symbols.b_symbol_grids.self_s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.results_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """mg_spectra from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mg_spectra", "__init__.py")):
        raise SystemExit("perfbench: no mg_spectra sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import mg_spectra
    if os.path.dirname(os.path.dirname(mg_spectra.__file__)) != SRC:
        raise SystemExit("perfbench: mg_spectra imported from %s"
                         % mg_spectra.__file__)


class Run:
    """Rounds of one workload and the tally of their checked operations."""

    def __init__(self, workload):
        from mg_spectra.params import ModeParams, PhysicalParams
        self.workload = workload
        self.out_dirs = {exp: os.path.join(OUT, workload.name, exp)
                         for exp, _ in workload.runs}
        self.dense = checks.Dense()
        self.probes = workloads.make_probes(workload)
        phys = PhysicalParams.from_mu(omega=1.0, mu=1.0)
        self.probe_params = [
            ModeParams(a=p.mode[0], m=p.mode[1], k1=p.mode[2], k2=p.mode[3],
                       phys=phys) for p in self.probes]
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def round(self):
        """(wall time from the first experiment call to the last return,
        the probes' roots)."""
        # module attributes are looked up per call so the tracer's
        # wrappers take effect
        from mg_spectra import experiments, spectrum
        gc.collect()
        start = time.perf_counter()
        for exp, config in self.workload.runs:
            experiments.run_experiment(exp, config, self.out_dirs[exp],
                                       threads=1)
        sigmas = []
        for probe, mp in zip(self.probes, self.probe_params):
            mode = spectrum.solve_growth_rate_diffusive(mp, probe.kappa)
            sigmas.append(None if mode is None else mode.sigma)
        return time.perf_counter() - start, sigmas

    def tally(self, probe_sigmas):
        """Check the last round's outputs; count and report the failures."""
        outputs = {exp: checks.read_outputs(d)
                   for exp, d in self.out_dirs.items()}
        ops = workloads.check(self.workload, outputs, probe_sigmas,
                              self.probes, self.dense)
        self.attempted += len(ops)
        for op in ops:
            if op.passed:
                continue
            self.failed += 1
            if not op.known_fault:
                self.unexpected.append(op)
            print("perfbench: FAILED %s%s: %s" % (
                op.name, " (known fault)" if op.known_fault else "",
                op.detail), file=sys.stderr)

    def results_bytes(self):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d in self.out_dirs.values() for f in os.listdir(d))


def traced_round(run):
    """One round with the tracer installed: (tracer, wall seconds)."""
    tracer = Tracer()
    tracer.install()
    try:
        wall, sigmas = run.round()
    finally:
        tracer.uninstall()
    run.tally(sigmas)
    return tracer, wall


def layer_metrics(tracer, results_bytes, overhead_s):
    spans = tracer.summary()
    values = dict(tracer.counters)
    values["experiments.results_bytes"] = results_bytes
    values["trace.overhead_s"] = overhead_s
    out = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in values:
            value = values[name]
        elif field == "calls":
            value = spans.get(base, (0, 0.0))[0]
        elif field == "self_s":
            value = spans.get(base, (0, 0.0))[1]
        else:
            value = 0
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    t0 = float(os.environ["PERFBENCH_T0"])
    args = parse_args(argv)
    import_program()
    from mg_spectra import experiments
    workload = workloads.make(args.workload, args.seed)
    for exp, config in workload.runs:
        experiments.validate_config(exp, config)
    setup_s = time.monotonic() - t0

    run = Run(workload)
    walls = []
    loop_start = time.monotonic()
    while True:
        wall, sigmas = run.round()
        if not walls:
            # one reproduction's peak; later rounds only add heap growth
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.tally(sigmas)
        walls.append(wall)
        print("perfbench: %s round %d: %.4f s" % (
            workload.name, len(walls), walls[-1]), file=sys.stderr)
        elapsed = time.monotonic() - loop_start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    wall_s = statistics.median(walls)

    if args.trace:
        tracer, traced_wall = traced_round(run)
        tracer.write(os.path.join(OUT, workload.name, "spans.csv"))
        metrics = layer_metrics(tracer, run.results_bytes(),
                                traced_wall - wall_s)
    else:
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mib": {"value": rss, "unit": "MiB"}}
    print(json.dumps({"correct": not run.unexpected,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
