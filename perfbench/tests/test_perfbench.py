"""Fast self-tests of the benchmark: its fine-grid operator, its seeded
generators and the format of its output.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import fem  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def plane_wave_error(nx, k=4.0, theta=0.3):
    """M-norm error of the discrete solution against the exact plane wave."""
    op = fem.Helmholtz(nx, np.ones(nx * nx), k)
    u = op.solve(fem.plane_wave_edge_load(nx, k, theta))
    d = u - fem.plane_wave(fem.node_coords(nx), k, theta)
    return np.sqrt(np.real(np.vdot(d, op.M @ d)))


def test_fine_operator_converges_at_second_order():
    errs = [plane_wave_error(nx) for nx in (16, 32, 64)]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert errs[-1] < 1e-3
    assert all(3.6 < r < 4.4 for r in ratios), ratios


def test_fine_operator_integrates_constants():
    op = fem.Helmholtz(6, np.linspace(1.0, 2.0, 36), 3.0)
    one = np.ones(49)
    assert np.abs(op.K @ one).max() < 1e-12
    assert one @ op.M @ one == pytest.approx(1.0)
    assert one @ op.Mb @ one == pytest.approx(4.0)
    assert abs(op.B - op.B.T).max() == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_per_seed(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.inputs(7, 0), wl.inputs(7, 0), wl.inputs(8, 0)
    n = (workloads.NX + 1) ** 2
    assert a.a_cells.shape == (workloads.NX**2,) and np.all(a.a_cells > 0.0)
    assert np.array_equal(a.a_cells, b.a_cells)
    assert len(a.data) == len(b.data) >= 1
    for (fa, ga), (fb, gb) in zip(a.data, b.data):
        assert fa.shape == ga.shape == (n,)
        assert np.array_equal(fa, fb) and np.array_equal(ga, gb)
    differs = not np.array_equal(a.a_cells, c.a_cells) or any(
        not (np.array_equal(fa, fc) and np.array_equal(ga, gc))
        for (fa, ga), (fc, gc) in zip(a.data, c.data)
    )
    assert differs


def test_set_ups_of_a_run_mirror_one_medium():
    wl = workloads.WORKLOADS["shots-h10"]
    media = [wl.inputs(7, i).a_cells for i in range(run.SETUPS)]
    assert all(np.array_equal(np.sort(m), np.sort(media[0])) for m in media)
    assert len({m.tobytes() for m in media}) == run.SETUPS
    rounds = {n: w.rounds(BENCHMARK["run_seconds"]) for n, w in workloads.WORKLOADS.items()}
    assert rounds == {"plane-wave-h40": 2, "shots-h10": 2}


def test_channels_keep_parallel_lanes_apart():
    mask = workloads.channel_mask(120, np.random.default_rng(3)).reshape(120, 120)
    rows = np.flatnonzero(mask.sum(axis=1) > 60)  # horizontal channel lanes
    assert len(rows) == 4 and np.diff(rows).min() >= 8


def test_result_line_and_operation_counts(monkeypatch):
    """A tiny workload through the real solver: names, units and counts."""
    nx = 24
    monkeypatch.setattr(run, "NX", nx)
    rng = np.random.default_rng(0)
    zero = np.zeros((nx + 1) ** 2, dtype=complex)
    inputs = workloads.Inputs(
        np.where(rng.random(nx * nx) < 0.1, 10.0, 1.0),
        [(workloads.bump(nx, c, 0.2), zero) for c in ((0.3, 0.3), (0.6, 0.5))],
        "tiny",
    )
    wl = workloads.Workload("tiny", 4, 1, 1.0, 1.0, 1.0, lambda rng: inputs)
    sv = run.import_solver()
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        res = run.run_workload(sv, wl, 0, 0.0, Tracer(traced))
        line = json.loads(run.result_line(res, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] == 2 and line["failed"] == 0  # one round of two data sets
        assert res["rounds"] == 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
        assert all(m["value"] > 0.0 for m in line["metrics"].values())
    counts = line["metrics"]
    assert counts["cem.patch_solves"]["value"] == 2 * 16  # elements x data sets
    assert counts["spectral.eigenproblems"]["value"] == 16
