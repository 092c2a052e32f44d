import numpy as np
import pytest

from cemhelm.assembly import build_forms
from cemhelm.errors import DimensionMismatch, ZeroReference
from cemhelm.grid import build_coarse_grid, build_fine_grid
from cemhelm.medium import constant_medium
from cemhelm.metrics import a_norm, l2_norm, relative_errors

import oracles
from oracles import k_weighted_norm, s_norm


@pytest.fixture(scope="module")
def forms():
    g = build_fine_grid(50, 50)
    c = build_coarse_grid(g, 10)
    return build_forms(g, c, constant_medium(50, 50, 1.0), 16.0)


def test_constant_field_norms(forms):
    one = np.ones(forms.grid.n_nodes)
    assert l2_norm(one, forms.M) == pytest.approx(1.0, abs=1e-13)
    assert a_norm(one, forms.K) == pytest.approx(0.0, abs=1e-6)


def test_linear_field_energy(forms):
    v = forms.grid.node_coords[:, 0]
    assert a_norm(v, forms.K) == pytest.approx(1.0, abs=1e-12)


def test_plane_wave_norms():
    g = build_fine_grid(200, 200)
    c = build_coarse_grid(g, 10)
    forms = build_forms(g, c, constant_medium(200, 200, 1.0), 16.0)
    u = oracles.plane_wave(g, 16.0)
    # nodal interpolant carries an O((kh)^2) defect against the analytic values
    assert a_norm(u, forms.K) == pytest.approx(16.0, rel=2e-2)
    assert k_weighted_norm(u, forms.K, forms.M, 16.0) == pytest.approx(
        16.0 * np.sqrt(2.0), rel=2e-2
    )


def test_k_weighted_identity(forms):
    rng = np.random.default_rng(0)
    u = rng.normal(size=forms.grid.n_nodes) + 1j * rng.normal(size=forms.grid.n_nodes)
    lhs = k_weighted_norm(u, forms.K, forms.M, forms.k) ** 2
    rhs = forms.k**2 * l2_norm(u, forms.M) ** 2 + a_norm(u, forms.K) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_norm_homogeneity_and_triangle(forms):
    rng = np.random.default_rng(1)
    n = forms.grid.n_nodes
    S = oracles.assemble_weighted_mass(forms.grid, forms.weights)
    for _ in range(5):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        c = complex(rng.normal(), rng.normal())
        for norm, W in ((l2_norm, forms.M), (a_norm, forms.K), (s_norm, S)):
            assert norm(c * u, W) == pytest.approx(abs(c) * norm(u, W), rel=1e-10)
            assert norm(u + v, W) <= norm(u, W) + norm(v, W) + 1e-12


def test_relative_errors_basic(forms):
    rng = np.random.default_rng(2)
    u = rng.normal(size=forms.grid.n_nodes) + 0j
    rep = relative_errors(u, u, forms)
    assert rep.e_l2 == 0.0 and rep.e_energy == 0.0
    rep2 = relative_errors(u, 2.0 * u, forms)
    assert rep2.e_l2 == pytest.approx(1.0, rel=1e-12)
    assert rep2.e_energy == pytest.approx(1.0, rel=1e-12)


def test_relative_errors_guards(forms):
    u = np.ones(forms.grid.n_nodes)
    with pytest.raises(ZeroReference):
        relative_errors(np.zeros_like(u), u, forms)
    with pytest.raises(DimensionMismatch):
        relative_errors(u, u[:-1], forms)
    with pytest.raises(DimensionMismatch):
        l2_norm(u[:-1], forms.M)


def test_error_report_metadata(forms):
    u = np.ones(forms.grid.n_nodes)
    rep = relative_errors(u, 1.5 * u, forms, meta={"H": 0.1, "m": 2})
    d = rep.to_dict()
    assert d["meta"]["H"] == 0.1
    assert set(d["norms"]) == {"ref_l2", "ref_energy", "diff_l2", "diff_energy"}
