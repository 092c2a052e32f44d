"""In-memory spans recorded around the benchmark's calls into the solver.

A span has a name, start and end (perf_counter seconds), the id of the span
that was open when it started, and the run id of the operation it serves
("set-up 0", "solve 3", ...).  Spans are kept in memory and written out when
the benchmark ends; a disabled tracer records nothing.
"""

import contextlib
import os
import threading
import time
from collections import defaultdict

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
# Seconds between two RSS samples of PeakRss.  Each sample takes the
# interpreter lock from the solver: sampled every 2 ms, a plane-wave-h40
# cem.build_space ran 5-23 % slower than unsampled in three alternating pairs.
RSS_INTERVAL = 0.02


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name, run=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, run)

    @contextlib.contextmanager
    def _record(self, name, run):
        parent = self._open[-1] if self._open else None
        if run is None and parent is not None:
            run = parent["run"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "run": run,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Span name -> list of self times: duration minus the children's durations."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append(s["end"] - s["start"] - child[s["id"]])
        return dict(out)


def rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


class PeakRss:
    """Highest resident set size seen while the block runs, sampled every RSS_INTERVAL s."""

    def __init__(self):
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = None

    def _sample(self):
        while True:
            self.peak_mb = max(self.peak_mb, rss_mb())
            if self._stop.wait(RSS_INTERVAL):
                return

    def __enter__(self):
        self.peak_mb = rss_mb()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, rss_mb())
        return False
