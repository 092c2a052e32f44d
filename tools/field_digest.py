"""One SHA-256 over the fields of the benchmark's solves.

    python3 tools/field_digest.py --workload shots-h10 --seed 7 --rounds 2

Run from the root of a checkout.  It imports the benchmark (perfbench/),
which imports the solver from ./src, and makes the benchmark's calls for
rounds 0 .. rounds - 1: each round's set-up, then `Run.solve` for each of
its data sets.  The digest covers, solve after solve, the trial matrix and
G (data, indices, indptr), the corrector, the coefficients c and the field
u, so two checkouts that print the same digest computed the same fields
bit for bit.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (sets the benchmark's BLAS threads before numpy loads BLAS)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    sv, wl = run.import_solver(), WORKLOADS[args.workload]
    bench, digest = run.Run(sv, wl, Tracer(enabled=False)), hashlib.sha256()
    for r in range(args.rounds):
        setup = bench.set_up(wl.inputs(args.seed, r), f"set-up {r}")
        for s, spec in enumerate(setup.specs):
            u, space, system = bench.solve(setup, spec, f"solve {r}.{s}")
            _, c = sv.cem.solve_multiscale(system, space, setup.forms)  # `Run.solve` drops c
            for a in (space.trial.data, space.trial.indices, space.trial.indptr, space.G.data,
                      space.G.indices, space.G.indptr, space.corrector, c, u):
                digest.update(a.tobytes())
    print(f"{wl.name} seed {args.seed} rounds {args.rounds}: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
