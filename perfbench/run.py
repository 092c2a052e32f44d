"""Benchmark of the cemhelm multiscale solver.

    python3 perfbench/run.py --workload shots-h10 --seed 7 --seconds 50 --trace 0

Run from the root of a checkout: the solver is imported from ./src.  One
operation is one multiscale solve (a data set turned into a fine-grid
field).  A run has a fixed number of rounds, set by the workload and
`--seconds` (not by how fast the machine is).  Round r sets up the inputs
of set-up r from the problem arrays and solves each of their data sets; the
remaining set-ups of SETUPS, on inputs of their own, run half before the
first round and half after the last, all behind one untimed warm-up
set-up.  `setup_s` is the median of all SETUPS set-up times,
`time_to_solutions_s` the median over rounds of a round's set-up plus its
solves.  Every solve is checked outside its timed part: Petrov-Galerkin
orthogonality and coarse complex symmetry right after it, and, after all
timing, the errors against the benchmark's own fine-grid solve.  A solve that raises CemhelmError or fails a check counts
as failed.

With --trace 0 the last line is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics, derived from spans recorded
around the benchmark's calls into each layer, and the spans go to
perfbench/out/<workload>-seed<seed>.trace.json.
"""

import os

# BLAS threads, set before numpy loads BLAS; part of the benchmark's
# definition, printed with every run.  With OpenBLAS's default of one thread
# per core (2 on the reference machine) the plane-wave-h40 solve time spread
# 17 % between runs (quartile distance over median, five seeds) against 5 %
# with one, and its median was 8 % slower.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import fem
from spans import PeakRss, Tracer
from workloads import K, NBF, NX, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 5  # set-ups per run, more when a run has more rounds
PG_TOL = 1e-8  # |Psi^T B (u_h - u_ms)|_max / |Psi^T b|_max
SYMMETRY_TOL = 1e-12  # |G - G^T|_max / |G|_max
FORMS_TOL = 1e-12  # solver's B against the benchmark's own B, relative
METRICS_TOL = 1e-8  # solver's relative errors against the benchmark's own

# per-layer metrics: median self time per call of these spans ...
TIMED_LAYERS = (
    "models.instantiate",
    "assembly.build_forms",
    "spectral.build_projection",
    "assembly.element_loads",
    "cem.build_space",
    "cem.assemble_coarse",
    "cem.solve_multiscale",
    "metrics.relative_errors",
)
# ... and work counts summed over one round (one set-up and its solves)
ROUND_SUMS = ("cem.patch_solves", "cem.patch_unknowns")


def import_solver():
    """The solver's modules, imported from ./src of the checkout and nowhere else."""
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import cemhelm
        from cemhelm import assembly, cem, errors, grid, medium, metrics, reference, spectral
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cemhelm from {src}: {exc}") from exc
    if src not in Path(cemhelm.__file__).resolve().parents:
        raise SystemExit(f"perfbench: cemhelm imported from {cemhelm.__file__}, not {src}")
    return types.SimpleNamespace(
        assembly=assembly, cem=cem, errors=errors, grid=grid, medium=medium,
        metrics=metrics, reference=reference, spectral=spectral,
    )


class Run:
    """The calls of one workload into the solver, and the checks of their results."""

    def __init__(self, sv, workload, tracer):
        self.sv = sv
        self.wl = workload
        self.tracer = tracer
        self.build_space_rss = 0.0

    def set_up(self, inputs, run_id):
        """Problem arrays -> offline operators shared by the solves of a round."""
        sv, span = self.sv, self.tracer.span
        with span("set-up", run_id):
            with span("models.instantiate"):
                fine = sv.grid.build_fine_grid(NX, NX)
                med = sv.medium.Medium(inputs.a_cells, NX, NX)
                specs = [
                    sv.reference.ProblemSpec(fine, med, K, f, g, model=self.wl.name)
                    for f, g in inputs.data
                ]
            with span("grid.build_coarse_grid"):
                coarse = sv.grid.build_coarse_grid(fine, self.wl.NH)
            with span("assembly.build_forms"):
                forms = sv.assembly.build_forms(fine, coarse, med, K)
            with span("spectral.build_projection"):
                P = sv.spectral.build_projection(forms, NBF)
        return types.SimpleNamespace(specs=specs, coarse=coarse, forms=forms, P=P)

    def timed_set_up(self, inputs, i):
        t0 = time.perf_counter()
        setup = self.set_up(inputs, f"set-up {i}")
        return time.perf_counter() - t0, setup

    def solve(self, setup, spec, run_id):
        """One operation: data set (f, g) -> fine-grid field."""
        sv, span = self.sv, self.tracer.span
        watch = PeakRss() if self.tracer.enabled else contextlib.nullcontext()
        with span("solve", run_id):
            with span("assembly.element_loads"):
                blocks = sv.assembly.element_loads(spec.grid, setup.coarse, spec.f, spec.g)
            with span("cem.build_space"), watch:
                space = sv.cem.build_space(setup.forms, setup.P, self.wl.m, load_blocks=blocks)
            loads = setup.forms.M @ spec.f + setup.forms.Mb @ spec.g
            with span("cem.assemble_coarse"):
                system = sv.cem.assemble_coarse(space, setup.forms, loads)
            with span("cem.solve_multiscale"):
                u, _ = sv.cem.solve_multiscale(system, space, setup.forms)
        if self.tracer.enabled:
            self.build_space_rss = max(self.build_space_rss, watch.peak_mb)
        return u, space, system

    @staticmethod
    def check_solve(own, b, u, space, system):
        """Failed checks of one solve that need its space: PG orthogonality, symmetry."""
        if not np.all(np.isfinite(u)):
            return ["non-finite field"]
        failures = []
        pg = np.abs(space.trial.T @ (b - own.B @ u)).max()
        scale = np.abs(space.trial.T @ b).max()
        if not pg <= PG_TOL * scale:
            failures.append(f"Petrov-Galerkin residual {pg:.3e} > {PG_TOL:g} * {scale:.3e}")
        G = system.G
        asym = abs(G - G.T).max()
        if not asym <= SYMMETRY_TOL * abs(G).max():
            failures.append(f"coarse matrix asymmetry {asym:.3e}")
        return failures

    def count_solve(self, setup, space, system):
        """Work and size counts read from the objects one solve returned."""
        unknowns = 0
        for j in range(setup.coarse.n_elements):
            patch = self.sv.grid.oversample(setup.coarse, j, self.wl.m)
            unknowns += patch.free_nodes().size + NBF * patch.elements.size
        return {
            "cem.patch_solves": setup.coarse.n_elements,
            "cem.patch_unknowns": unknowns,
            "cem.trial_nnz": space.trial.nnz,
            "cem.coarse_nnz": system.G.nnz,
        }

    def check_errors(self, fields, failures):
        """Errors of every field against the benchmark's own fine solve.

        `fields` holds (operation, own operator, fine load, u).  Appends to
        `failures` the solves above the workload's tolerance and returns
        (worst e_l2, worst e_energy, whether the solver's own error metric
        agrees with the benchmark's).
        """
        agree = True
        worst = [0.0, 0.0]
        for op, own, b, u in fields:
            ref = own.solve(b)
            l2, en = own.relative_errors(ref, u)
            with self.tracer.span("metrics.relative_errors", f"check {op}"):
                report = self.sv.metrics.relative_errors(ref, u, own)
            if not (abs(report.e_l2 - l2) <= METRICS_TOL * l2
                    and abs(report.e_energy - en) <= METRICS_TOL * en):
                agree = False
                print(f"solve {op}: metrics.relative_errors gives {report.e_l2:.6e} / "
                      f"{report.e_energy:.6e}, the benchmark {l2:.6e} / {en:.6e}",
                      file=sys.stderr)
            if not (l2 <= self.wl.tol_l2 and en <= self.wl.tol_energy):
                failures.append((op, f"errors {l2:.3e} / {en:.3e} above "
                                     f"{self.wl.tol_l2:g} / {self.wl.tol_energy:g}"))
            worst = [max(worst[0], l2), max(worst[1], en)]
        if not fields:
            worst = [1.0, 1.0]  # relative error of the zero field
        return worst[0], worst[1], agree


def run_workload(sv, wl, seed, seconds, tracer):
    run = Run(sv, wl, tracer)
    rounds = wl.rounds(seconds)
    extra = list(range(rounds, max(SETUPS, rounds)))
    setup_times = []

    def extra_set_ups(indices):
        for i in indices:
            inputs = wl.inputs(seed, i)
            setup_times.append(run.timed_set_up(inputs, i)[0])

    # untimed warm-up on inputs no timed set-up uses: first-call costs of the
    # solver's libraries (lazy imports, allocator growth) stay out of setup_s
    run.set_up(wl.inputs(seed, max(SETUPS, rounds)), "warm-up")
    extra_set_ups(extra[: len(extra) // 2])
    correct = True
    fields = []  # (operation, own operator, fine load, u) of every solve that passed its checks
    failures = []  # (operation, message)
    solve_times = []
    round_times = []  # set-up plus solves of each round
    round_counts = None
    descriptions = []
    attempted = 0
    for r in range(rounds):
        inputs = wl.inputs(seed, r)
        descriptions.append(inputs.description)
        setup_t, setup = run.timed_set_up(inputs, r)
        setup_times.append(setup_t)
        own = fem.Helmholtz(NX, inputs.a_cells, K)
        B_err = abs(setup.forms.B - own.B).max() / abs(own.B).max()
        if not B_err <= FORMS_TOL:
            correct = False
            print(f"set-up {r}: solver's B differs from the benchmark's by {B_err:.3e}",
                  file=sys.stderr)
        total, counts = setup_t, {}
        for spec, (f, g) in zip(setup.specs, inputs.data):
            op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                u, space, system = run.solve(setup, spec, f"solve {op}")
            except sv.errors.CemhelmError as exc:
                failures.append((op, f"{type(exc).__name__}: {exc}"))
                continue
            solve_times.append(time.perf_counter() - t0)
            total += solve_times[-1]
            b = own.load(f, g)
            failed = run.check_solve(own, b, u, space, system)
            failures += [(op, msg) for msg in failed]
            if not failed:
                fields.append((op, own, b, u))
            if tracer.enabled:
                for name, value in run.count_solve(setup, space, system).items():
                    counts[name] = counts.get(name, 0) + value if name in ROUND_SUMS else value
            del space, system
        round_times.append(total)
        round_counts = round_counts or counts
        setup_counts = {
            "assembly.fine_nnz": setup.forms.B.nnz,
            "spectral.eigenproblems": len(setup.P.bases),
        }
        del setup
    extra_set_ups(extra[len(extra) // 2 :])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # independent error checks, after all timing
    e_l2, e_energy, agree = run.check_errors(fields, failures)
    correct = correct and agree
    for op, msg in failures:
        print(f"solve {op} failed: {msg}", file=sys.stderr)

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(solve_times or [float("nan")]), "s"),
        "time_to_solutions_s": (statistics.median(round_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "e_l2": (e_l2, "1"),
        "e_energy": (e_energy, "1"),
    }
    per_layer = None
    if tracer.enabled:
        self_times = tracer.self_times()
        per_layer = {f"{n}_s": (statistics.median(self_times[n]), "s") for n in TIMED_LAYERS}
        for name, value in {**setup_counts, **(round_counts or {})}.items():
            per_layer[name] = (value, "count")
        per_layer["cem.build_space_peak_rss_mb"] = (run.build_space_rss, "MB")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len({op for op, _ in failures}),
        "rounds": rounds,
        "inputs": descriptions,
        "solve_times": solve_times,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def as_metrics(pairs):
    """{name: (value, unit)} -> {name: {"value": value, "unit": unit}}."""
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in pairs.items()}


def result_line(res, traced):
    """The last line of a run's output."""
    return json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": as_metrics(res["per_layer"] if traced else res["end_to_end"]),
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sv = import_solver()
    wl = WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    res = run_workload(sv, wl, args.seed, args.seconds, tracer)
    for r, text in enumerate(res["inputs"]):
        print(f"{wl.name} seed {args.seed} round {r}: {text}")
    print(f"{wl.name} blas threads = {BLAS_THREADS}")
    print(f"{wl.name} solve times = {' '.join(f'{t:.3f}' for t in res['solve_times'])} s")
    shown = res["per_layer"] if args.trace else res["end_to_end"]
    for name, (value, unit) in shown.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(f"{wl.name} attempted = {res['attempted']}, failed = {res['failed']}, "
          f"rounds = {res['rounds']}")
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{wl.name}-seed{args.seed}.trace.json"
        path.write_text(json.dumps({
            "workload": wl.name,
            "seed": args.seed,
            "blas_threads": BLAS_THREADS,
            "end_to_end": as_metrics(res["end_to_end"]),
            "per_layer": as_metrics(res["per_layer"]),
            "spans": tracer.spans,
        }, indent=1))
        print(f"spans written to {path.relative_to(HERE.parent)}")
    print(result_line(res, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
