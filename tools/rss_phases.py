"""Resident set size over the spans of one traced benchmark run.

    python3 tools/rss_phases.py --workload plane-wave-h40 --seed 7

Run from the root of a checkout.  It imports the benchmark (perfbench/),
which imports the solver from ./src, and makes one benchmark run with its
tracer on and a thread reading the RSS every 2 ms.  For each span, in the
order they started, it prints the RSS at its start (the last reading
before it), the highest reading while it ran and the rise between the two,
and at the end the spans that hold the highest reading before the
benchmark's error checks (where it reads `peak_rss_mb`), outermost first,
or, outside every span, the last span that ended before it.
"""

import argparse
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (sets the benchmark's BLAS threads before numpy loads BLAS)
import numpy as np  # noqa: E402
from spans import Tracer, rss_mb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INTERVAL = 0.002  # seconds between two RSS readings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    readings, stop = [], threading.Event()

    def read():
        while not stop.wait(INTERVAL):
            readings.append((time.perf_counter(), rss_mb()))

    tracer, reader = Tracer(enabled=True), threading.Thread(target=read, daemon=True)
    readings.append((time.perf_counter(), rss_mb()))
    reader.start()
    try:
        run.run_workload(run.import_solver(), WORKLOADS[args.workload], args.seed,
                         args.seconds, tracer)
    finally:
        stop.set()
        reader.join()
    times, rss = (np.array(a) for a in zip(*readings))
    depth = {}
    for s in tracer.spans:
        depth[s["id"]] = 0 if s["parent"] is None else depth[s["parent"]] + 1
        lo, hi = np.searchsorted(times, (s["start"], s["end"]))
        start = rss[max(lo - 1, 0)]
        peak = rss[lo:hi].max(initial=start)
        name = "  " * depth[s["id"]] + s["name"]
        print(f"{str(s['run']):<10} {name:<32} start {start:6.1f} MB  peak {peak:6.1f} MB"
              f"  rise {peak - start:5.1f} MB")
    # the benchmark reads peak_rss_mb before its error checks ("check" runs)
    timed = times <= max(s["end"] for s in tracer.spans if not str(s["run"]).startswith("check"))
    at, peak = times[timed][rss[timed].argmax()], rss[timed].max()
    holding = [s for s in tracer.spans if s["start"] <= at <= s["end"]]
    if holding:
        where = f"{holding[0]['run']}: " + " > ".join(s["name"] for s in holding)
    else:  # outside the spans: name the last one that ended before it
        last = max((s for s in tracer.spans if s["end"] < at), key=lambda s: s["end"])
        where = f"no span, {at - last['end']:.2f} s after {last['run']}: {last['name']}"
    print(f"{args.workload} seed {args.seed}: peak {peak:.1f} MB in {where}")


if __name__ == "__main__":
    main()
