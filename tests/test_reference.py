import numpy as np
import pytest

from cemhelm.assembly import build_forms
from cemhelm.errors import MalformedRaster, SingularSystem
from cemhelm.grid import build_coarse_grid, build_fine_grid
from cemhelm.medium import constant_medium
from cemhelm.metrics import relative_errors
from cemhelm.reference import (
    ProblemSpec,
    bump_source,
    export_field,
    fine_load,
    piecewise_source,
    robin_data_plane_wave,
    solve_fine,
)

import oracles


def _model1_spec(nx, k):
    g = build_fine_grid(nx, nx)
    med = constant_medium(nx, nx, 1.0)
    return ProblemSpec(
        grid=g,
        medium=med,
        k=k,
        f=np.zeros(g.n_nodes, dtype=complex),
        g=robin_data_plane_wave(g, k),
        model="model1",
    )


def test_zero_data_gives_zero_solution():
    g = build_fine_grid(8, 8)
    med = constant_medium(8, 8, 1.0)
    spec = ProblemSpec(
        grid=g, medium=med, k=2.0,
        f=np.zeros(g.n_nodes, complex), g=np.zeros(g.n_nodes, complex),
    )
    u = solve_fine(spec).values
    assert np.abs(u).max() <= 1e-14


def test_fine_solver_residual():
    spec = _model1_spec(30, 8.0)
    g = spec.grid
    c = build_coarse_grid(g, 10)
    forms = build_forms(g, c, spec.medium, spec.k)
    u = solve_fine(spec, forms=forms).values
    b = fine_load(spec)
    assert np.linalg.norm(forms.B @ u - b) <= 1e-10 * np.linalg.norm(b)


def test_self_convergence_against_plane_wave():
    k = 16.0
    errs = []
    for nx in (50, 100, 200):
        spec = _model1_spec(nx, k)
        c = build_coarse_grid(spec.grid, 10)
        forms = build_forms(spec.grid, c, spec.medium, k)
        u = solve_fine(spec, forms=forms).values
        u_ex = oracles.plane_wave(spec.grid, k)
        errs.append(relative_errors(u_ex, u, forms).e_l2)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05  # resolved but pollution-affected


def test_plane_wave_field():
    g = build_fine_grid(16, 16)
    u = oracles.plane_wave(g, 4.0)
    assert u[0] == pytest.approx(1.0)
    assert np.allclose(np.abs(u), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        oracles.plane_wave(g, 4.0, direction=(1.0, 1.0))


def test_plane_wave_energy_norm():
    g = build_fine_grid(200, 200)
    c = build_coarse_grid(g, 10)
    forms = build_forms(g, c, constant_medium(200, 200, 1.0), 16.0)
    u = oracles.plane_wave(g, 16.0)
    a2 = float(np.real(np.vdot(u, forms.K @ u)))
    assert np.sqrt(a2) == pytest.approx(16.0, rel=2e-2)


def test_robin_data_closed_forms():
    g = build_fine_grid(10, 10)
    k = 4.0
    gdata = robin_data_plane_wave(g, k)
    # corner (0,0) takes the left-edge branch
    assert gdata[oracles.node_index(g, 0, 0)] == pytest.approx(-1.6j * k)
    # bottom edge has modulus 1.8k away from corners
    bottom = [oracles.node_index(g, i, 0) for i in range(1, g.nx)]
    assert np.allclose(np.abs(gdata[bottom]), 1.8 * k, atol=1e-12)
    left = [oracles.node_index(g, 0, j) for j in range(1, g.ny)]
    assert np.allclose(np.abs(gdata[left]), 1.6 * k, atol=1e-12)
    interior = ~g.boundary_mask
    assert np.abs(gdata[interior]).max() == 0.0


def test_robin_data_consistency_with_plane_wave():
    # finite-difference normal derivative at edge midpoints approaches
    # g = A grad(u*).n - i k u* under refinement
    k = 5.0
    prev = None
    for nx in (20, 40, 80):
        g = build_fine_grid(nx, nx)
        gdata = robin_data_plane_wave(g, k)
        h = g.h
        d = np.array([0.6, 0.8])
        mid = nx // 2
        # left edge node (0, mid): n = (-1, 0)
        x0 = g.node_coords[oracles.node_index(g, 0, mid)]
        u = lambda p: np.exp(1j * k * (p @ d))
        dn = (u(x0) - u(x0 + np.array([h, 0.0]))) / h  # -du/dx, first order
        resid = abs(dn - 1j * k * u(x0) - gdata[oracles.node_index(g, 0, mid)])
        if prev is not None:
            assert resid < prev
        prev = resid
    assert prev < 0.5  # first-order one-sided difference at k=5


def test_bump_source_values():
    g = build_fine_grid(40, 40)
    f = bump_source(g)
    assert f[oracles.node_index(g, 0, 0)] == pytest.approx(np.exp(-1.0))
    r = np.hypot(g.node_coords[:, 0], g.node_coords[:, 1])
    assert np.abs(f[r >= 0.05]).max() == 0.0
    near = (r < 0.05) & (r > 0.0495)
    if near.any():
        assert np.abs(f[near]).max() < 1e-3  # continuous vanishing at the rim


def test_piecewise_source_averaging():
    g = build_fine_grid(4, 4)
    const = piecewise_source(g, np.full((4, 4), 2.5))
    assert np.allclose(const, 2.5)
    assert np.allclose(piecewise_source(g, np.zeros((4, 4))), 0.0)
    # two-level raster: interface nodes take intermediate values
    vals = np.zeros((4, 4))
    vals[:, :2] = 1.0  # left half
    f = piecewise_source(g, vals).real
    assert f[oracles.node_index(g, 0, 1)] == pytest.approx(1.0)
    assert f[oracles.node_index(g, 2, 1)] == pytest.approx(0.5)  # interface column
    assert f[oracles.node_index(g, 4, 1)] == pytest.approx(0.0)


def test_piecewise_source_raster_file(tmp_path):
    g = build_fine_grid(2, 2)
    p = tmp_path / "f.txt"
    p.write_text("2 2\n0.0 0.0\n1.0 1.0\n")
    f = piecewise_source(g, str(p)).real
    assert f[oracles.node_index(g, 0, 0)] == 0.0
    assert f[oracles.node_index(g, 0, 2)] == 1.0
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 1 1\n")
    with pytest.raises(MalformedRaster):
        piecewise_source(g, str(bad))


def test_export_field(tmp_path):
    g = build_fine_grid(2, 2)
    u = np.arange(g.n_nodes, dtype=complex) * (1 + 2j)
    out = tmp_path / "field.csv"
    export_field(g, u, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + g.n_nodes
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 0.0
