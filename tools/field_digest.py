"""One SHA-256 over the fields of the benchmark's solves.

    python3 tools/field_digest.py --workload shots-h10 --seed 7 --rounds 2

Run from the root of a checkout.  It imports the benchmark (perfbench/),
which imports the solver from ./src, and makes the benchmark's calls for
rounds 0 .. rounds - 1: each round's set-up, then `Run.solve` for each of
its data sets.  The digest covers, solve after solve, the stored trial
space (the skeleton and the exceptions of `cem.CondensedTrial`) and G
(data, indices, indptr of each), the corrector, the coefficients c and the
field u, so two checkouts that print the same digest computed the same
fields bit for bit.

Fields that move inside rounding show with a saved run:

    python3 tools/field_digest.py --workload plane-wave-h40 --save old.npz
    python3 tools/field_digest.py --workload plane-wave-h40 --against old.npz

`--save` also writes each solve's c, u and corrector, and each round's G,
to an npz file; `--against` also prints, for each of the three, the
largest relative difference |x - x_saved|_2 / |x_saved|_2 over the solves,
and for G whether its pattern (indices and indptr) is bitwise the saved
one's and the largest relative difference max |G - G_saved| / max
|G_saved| of its entries over the rounds, against a file that `--save`
wrote for the same workload, seed and rounds.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (sets the benchmark's BLAS threads before numpy loads BLAS)
import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--save", metavar="PATH",
                        help="write each solve's c, u and corrector, and each round's G")
    parser.add_argument("--against", metavar="PATH",
                        help="compare c, u, corrector and G with a file written by --save")
    args = parser.parse_args(argv)
    sv, wl = run.import_solver(), WORKLOADS[args.workload]
    bench, digest = run.Run(sv, wl, Tracer(enabled=False)), hashlib.sha256()
    fields = {}  # "c 0.1": c of solve 1 of round 0, ...
    for r in range(args.rounds):
        setup = bench.set_up(wl.inputs(args.seed, r), f"set-up {r}")
        for s, spec in enumerate(setup.specs):
            u, space, system = bench.solve(setup, spec, f"solve {r}.{s}")
            _, c = sv.cem.solve_multiscale(system, space, setup.forms)  # `Run.solve` drops c
            stored = (space.trial.skeleton, space.trial.exceptions, space.G)
            for a in [*(getattr(A, name) for A in stored for name in ("data", "indices", "indptr")),
                      space.corrector, c, u]:
                digest.update(a.tobytes())
            fields.update({f"{name} {r}.{s}": a for name, a in
                           (("c", c), ("u", u), ("corrector", space.corrector))})
        fields.update({f"G.{name} {r}": getattr(space.G, name)
                       for name in ("data", "indices", "indptr")})
    print(f"{wl.name} seed {args.seed} rounds {args.rounds}: {digest.hexdigest()}")
    if args.save:
        np.savez(args.save, **fields)
    if args.against:
        with np.load(args.against) as saved:
            if set(saved.files) != set(fields):
                sys.exit(f"{args.against} holds other solves: {sorted(saved.files)}")
            for name in ("c", "u", "corrector"):
                diff, key = max((np.linalg.norm(a - saved[key]) / np.linalg.norm(saved[key]), key)
                                for key, a in fields.items() if key.split()[0] == name)
                print(f"{name}: largest relative difference {diff:.2e} (solve {key.split()[1]})")
            rounds = range(args.rounds)
            same = all(np.array_equal(fields[f"G.{name} {r}"], saved[f"G.{name} {r}"])
                       for name in ("indices", "indptr") for r in rounds)
            print(f"G pattern: {'bitwise equal' if same else 'differs'}")
            if same:
                diff, r = max((np.abs(fields[f"G.data {r}"] - saved[f"G.data {r}"]).max()
                               / np.abs(saved[f"G.data {r}"]).max(), r) for r in rounds)
                print(f"G: largest relative difference {diff:.2e} (round {r})")


if __name__ == "__main__":
    main()
