"""Acceptance suite: the ten exit criteria of the build, one test each.

Heavy configurations (the 200x200 error tables) are built once per session
and shared.  Two solver configurations appear:

* default mode: localized data correctors on, plain auxiliary form -- the
  package default, most accurate;
* reproduction mode: correctors off, trace-weighted auxiliary form -- the
  configuration whose error levels track the published table for the
  boundary-driven benchmark (see README, "reproducing the tables").

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from cemhelm import cem, spectral
from cemhelm.assembly import (
    assemble_stiffness,
    assemble_weighted_mass,
    build_forms,
    element_loads,
)
from cemhelm.grid import build_coarse_grid, build_fine_grid, oversample
from cemhelm.medium import constant_medium, synthesize_channels
from cemhelm.metrics import a_norm, relative_errors
from cemhelm.models import instantiate
from cemhelm.reference import (
    ProblemSpec,
    fine_load,
    plane_wave,
    robin_data_plane_wave,
    solve_fine,
)

pytestmark = pytest.mark.slow

PUBLISHED_TABLE = {
    (10, 2): (1.32e-2, 1.30e-2),
    (20, 3): (1.25e-3, 1.54e-2),
    (40, 4): (1.92e-4, 3.97e-3),
}


def _model1_spec(nx, k=16.0):
    g = build_fine_grid(nx, nx)
    med = constant_medium(nx, nx, 1.0)
    return ProblemSpec(
        grid=g, medium=med, k=k,
        f=np.zeros(g.n_nodes, dtype=complex),
        g=robin_data_plane_wave(g, k),
        model="model1",
    )


def _solve_cell(spec, NH, m, nbf=4, trace_weight=0.0, corrector=True,
                u_h=None, forms=None, P=None):
    """One multiscale solve; returns (report vs fine, context dict)."""
    if forms is None:
        coarse = build_coarse_grid(spec.grid, NH)
        forms = build_forms(spec.grid, coarse, spec.medium, spec.k)
    if P is None:
        P = spectral.build_projection(forms, nbf, trace_weight=trace_weight)
    if u_h is None:
        u_h = solve_fine(spec, forms=forms).values
    blocks = None
    if corrector:
        blocks = element_loads(spec.grid, forms.coarse, spec.f, spec.g)
    space = cem.build_space(forms, P, m, load_blocks=blocks)
    loads = fine_load(spec)
    system = cem.assemble_coarse(space, forms, loads)
    u_ms, _ = cem.solve_multiscale(system, space, forms=forms)
    report = relative_errors(u_h, u_ms, forms, meta={"NH": NH, "m": m})
    ctx = {"forms": forms, "P": P, "u_h": u_h, "space": space,
           "system": system, "u_ms": u_ms, "loads": loads}
    return report, ctx


@pytest.fixture(scope="session")
def model1_table():
    """Model-1 error table on the 200^2 grid, reproduction mode, for the
    (H, m) cells used by the table and the pollution comparison."""
    t0 = time.perf_counter()
    spec = _model1_spec(200)
    cells = {}
    pg_ctx = {}
    for NH, m_list in ((10, (2,)), (20, (3, 4)), (40, (3, 4))):
        coarse = build_coarse_grid(spec.grid, NH)
        forms = build_forms(spec.grid, coarse, spec.medium, spec.k)
        P = spectral.build_projection(forms, 4, trace_weight=-1.0)
        u_h = solve_fine(spec, forms=forms).values
        for m in m_list:
            report, ctx = _solve_cell(
                spec, NH, m, trace_weight=-1.0, corrector=False,
                u_h=u_h, forms=forms, P=P,
            )
            cells[(NH, m)] = report
            if (NH, m) == (20, 3):
                pg_ctx = ctx
    return {"cells": cells, "pg": pg_ctx, "seconds": time.perf_counter() - t0,
            "spec": spec}


def test_model1_error_table(model1_table):
    """Published Model-1 errors, factor-3 band, monotone L2 column."""
    cells = model1_table["cells"]
    table_runtime = model1_table["seconds"]
    rows = []
    ok = True
    for (NH, m), (p_l2, p_a) in PUBLISHED_TABLE.items():
        rep = cells[(NH, m)]
        f_l2 = rep.e_l2 / p_l2
        f_a = rep.e_energy / p_a
        rows.append((NH, m, rep.e_l2, f_l2, rep.e_energy, f_a))
        ok &= (1.0 / 3.0 <= f_l2 <= 3.0) and (1.0 / 3.0 <= f_a <= 3.0)
    l2_col = [cells[key].e_l2 for key in ((10, 2), (20, 3), (40, 4))]
    monotone = l2_col[0] > l2_col[1] > l2_col[2]
    print("\n[acceptance 1] published-table comparison (reproduction mode)")
    for NH, m, e2, f2, ea, fa in rows:
        print(f"  H=1/{NH} m={m}: e_l2={e2:.3e} ({f2:.2f}x)  e_a={ea:.3e} ({fa:.2f}x)")
    print(f"  monotone e_l2: {monotone}; shared-table runtime {table_runtime:.0f}s")
    print(f"  -> {'PASS' if ok and monotone else 'FAIL'}")
    assert monotone, "e_l2 must decrease down the sweep"
    assert ok, (
        "each error must lie within a factor of 3 of the published value; "
        f"rows (NH, m, e_l2, factor, e_a, factor): {rows}"
    )


def test_pollution_resolution_pattern(model1_table):
    """For m in {3, 4} the multiscale errors lie below coarse-grid Q1 FEM
    at H = 1/20 and 1/40 (m = 1 curves need not decay)."""
    k = 16.0
    fem = {}
    for NH in (20, 40):
        gc = build_fine_grid(NH, NH)
        medc = constant_medium(NH, NH, 1.0)
        formsc = build_forms(gc, build_coarse_grid(gc, NH), medc, k)
        specc = ProblemSpec(
            grid=gc, medium=medc, k=k,
            f=np.zeros(gc.n_nodes, complex), g=robin_data_plane_wave(gc, k),
        )
        u = solve_fine(specc, forms=formsc).values
        fem[NH] = relative_errors(plane_wave(gc, k).values, u, formsc)
    cells = model1_table["cells"]
    print("\n[acceptance 2] pollution-resolution pattern")
    ok = True
    for m in (3, 4):
        for NH in (20, 40):
            cem_rep = cells[(NH, m)]
            fem_rep = fem[NH]
            below = (cem_rep.e_l2 < fem_rep.e_l2) and (cem_rep.e_energy < fem_rep.e_energy)
            ok &= below
            print(
                f"  m={m} H=1/{NH}: cem ({cem_rep.e_l2:.2e}, {cem_rep.e_energy:.2e}) "
                f"vs Q1 ({fem_rep.e_l2:.2e}, {fem_rep.e_energy:.2e}) below={below}"
            )
    print(f"  -> {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="session")
def model3_sweep():
    t0 = time.perf_counter()
    spec = instantiate("model3", nx=200, k=16.0, synthesize=True, seed=7)
    cells = {}
    for NH, m in ((10, 2), (20, 3), (40, 4)):
        report, _ = _solve_cell(spec, NH, m)
        cells[(NH, m)] = report
    return {"cells": cells, "seconds": time.perf_counter() - t0}


def test_high_contrast_pattern(model3_sweep):
    """High-contrast synthetic medium: large errors permitted on the two
    coarse cells, small errors required at (H, m) = (1/40, 4)."""
    cells = model3_sweep["cells"]
    print("\n[acceptance 3] high-contrast pattern (contrast 1e-3, seed 7)")
    for (NH, m), rep in cells.items():
        print(f"  H=1/{NH} m={m}: e_l2={rep.e_l2:.3e} e_a={rep.e_energy:.3e}")
    print(f"  runtime {model3_sweep['seconds']:.0f}s")
    final = cells[(40, 4)]
    ok = final.e_l2 <= 0.05 and final.e_energy <= 0.10
    assert np.isfinite([r.e_l2 for r in cells.values()]).all()
    print(f"  -> {'PASS' if ok else 'FAIL'}")
    assert final.e_l2 <= 0.05, f"e_l2 at (1/40, 4) is {final.e_l2:.3e}"
    assert final.e_energy <= 0.10, f"e_a at (1/40, 4) is {final.e_energy:.3e}"


def test_basis_exponential_decay():
    """Tail energies of unlocalized bases decay geometrically in m."""
    nx, NH, k, nbf = 64, 8, 4.0, 4
    g = build_fine_grid(nx, nx)
    med = constant_medium(nx, nx, 1.0)
    forms = build_forms(g, build_coarse_grid(g, NH), med, k)
    P = spectral.build_projection(forms, nbf)
    rng = np.random.default_rng(2024)
    picks = [(int(rng.integers(0, NH * NH)), int(rng.integers(0, nbf))) for _ in range(3)]
    print("\n[acceptance 4] exponential decay of unlocalized bases")
    m_list = [1, 2, 3]
    for j, i in picks:
        tails, beta = cem.measure_decay(j, i, forms, P, m_list)
        logs = np.log(tails)
        A = np.vstack([np.array(m_list, dtype=float), np.ones(3)]).T
        coef, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
        ss = np.sum((logs - logs.mean()) ** 2)
        r2 = 1.0 - (res[0] / ss if res.size else 0.0)
        print(f"  (j={j}, i={i}): beta_hat={beta:.4f} slope={coef[0]:.2f} R2={r2:.4f}")
        assert beta < 0.8
        assert coef[0] < 0.0
        assert r2 >= 0.9
    print("  -> PASS")


def test_localization_consistency():
    """Patches that fill the domain reproduce the unlocalized bases."""
    nx, NH, nbf, k = 32, 4, 4, 4.0
    g = build_fine_grid(nx, nx)
    med = constant_medium(nx, nx, 1.0)
    forms = build_forms(g, build_coarse_grid(g, NH), med, k)
    P = spectral.build_projection(forms, nbf)
    gspace = cem.build_global_space(forms, P)
    space = cem.build_space(forms, P, 4)  # m=4 covers the domain from any center
    worst = 0.0
    for j in range(16):
        for i in range(nbf):
            glo = gspace.vector(j, i)
            loc = space.vector(j, i)
            rel = a_norm(loc - glo, forms.K) / a_norm(glo, forms.K)
            worst = max(worst, rel)
    print(f"\n[acceptance 5] localization consistency: worst rel a-error {worst:.2e}")
    assert worst <= 1e-6
    print("  -> PASS")


def test_conjugate_test_space():
    """Test vectors equal conjugated trial vectors; the independent adjoint
    solve agrees."""
    nx, NH, nbf, k = 32, 4, 4, 4.0
    g = build_fine_grid(nx, nx)
    med = constant_medium(nx, nx, 1.0)
    forms = build_forms(g, build_coarse_grid(g, NH), med, k)
    P = spectral.build_projection(forms, nbf)
    worst_conj = 0.0
    worst_adj = 0.0
    for m in (1, 2):
        for j in range(16):
            psi, _ = cem.local_cem_solve(j, m, forms, P)
            adj, _ = cem.local_cem_solve(j, m, forms, P, adjoint=True)
            w = cem.test_basis(psi)
            for i in range(nbf):
                scale = np.linalg.norm(psi[:, i])
                worst_conj = max(worst_conj, np.linalg.norm(w[:, i] - np.conj(psi[:, i])) / scale)
                worst_adj = max(worst_adj, np.linalg.norm(adj[:, i] - np.conj(psi[:, i])) / scale)
    print(f"\n[acceptance 6] conjugate test space: conj dev {worst_conj:.2e}, "
          f"adjoint dev {worst_adj:.2e}")
    assert worst_conj <= 1e-10
    assert worst_adj <= 1e-10
    print("  -> PASS")


def test_petrov_galerkin_orthogonality(model1_table):
    """Residual of the fine-vs-multiscale difference against every test
    vector stays at solver precision (Model 1, H=1/20, m=3)."""
    ctx = model1_table["pg"]
    resid = ctx["space"].trial.T @ (ctx["forms"].B @ (ctx["u_h"] - ctx["u_ms"]))
    bound = 1e-8 * np.linalg.norm(ctx["system"].b)
    worst = np.abs(resid).max()
    print(f"\n[acceptance 7] Petrov-Galerkin orthogonality: max residual "
          f"{worst:.2e} vs bound {bound:.2e}")
    assert worst <= bound
    print("  -> PASS")


def test_local_spectral_correctness():
    """Element eigenpairs match an independent dense oracle; the constant
    mode carries a zero eigenvalue; the projection-defect bound holds."""
    nx, NH, nbf = 8, 4, 3  # 2x2-cell elements
    g = build_fine_grid(nx, nx)
    med = constant_medium(nx, nx, 1.0)
    forms = build_forms(g, build_coarse_grid(g, NH), med, 2.0)
    coarse = forms.coarse
    P = spectral.build_projection(forms, nbf, trace_weight=0.0)
    rng = np.random.default_rng(11)
    for j in range(coarse.n_elements):
        nodes, cells = coarse.element_nodes[j], coarse.element_cells[j]
        K = assemble_stiffness(g, med, cells=cells).toarray()[np.ix_(nodes, nodes)]
        S = assemble_weighted_mass(g, forms.weights, cells=cells).toarray()[np.ix_(nodes, nodes)]
        L = np.linalg.cholesky(S)
        Linv = np.linalg.inv(L)
        C = Linv @ K @ Linv.T
        w, Q = np.linalg.eigh((C + C.T) / 2.0)
        V = Linv.T @ Q
        assert np.abs(P.eigenvalues[j] - w[:nbf]).max() <= 1e-10 * max(1.0, w.max())
        mine = P.bases[j]
        assert np.abs(mine @ mine.T @ S - V[:, :nbf] @ V[:, :nbf].T @ S).max() <= 1e-9
        lam = P.eigenvalues[j]
        assert abs(lam[0]) <= 1e-10 * lam[1]
        # projection defect against the next eigenvalue
        lam_next = w[nbf]
        Phi = mine
        for _ in range(50):
            v = rng.normal(size=nodes.size)
            d = v - Phi @ (Phi.T @ (S @ v))
            assert d @ (S @ d) <= (v @ (K @ v)) / lam_next * (1 + 1e-9) + 1e-12
    print("\n[acceptance 8] local spectral correctness: oracle match, zero "
          "constant mode, defect bound on 50 vectors/element -> PASS")


def test_elliptic_regression():
    """k=0 with homogeneous Dirichlet walls: real solutions, errors against
    the unlocalized solve decrease monotonically in m."""
    nx, NH, nbf = 64, 8, 4
    g = build_fine_grid(nx, nx)
    med = synthesize_channels(nx, nx, seed=7, contrast=1e-3, channel_count=4)
    forms = build_forms(g, build_coarse_grid(g, NH), med, 0.0)
    from cemhelm.reference import bump_source
    from cemhelm.assembly import load_volume

    f = bump_source(g) + 0.2
    loads = load_volume(g, f)
    P = spectral.build_projection(forms, nbf)
    blocks = element_loads(g, forms.coarse, f, np.zeros(g.n_nodes))
    gspace = cem.build_global_space(forms, P, loads=loads, strict_zero_trace=True)
    gsys = cem.assemble_coarse(gspace, forms, loads)
    u_glo, _ = cem.solve_multiscale(gsys, gspace, forms=forms)
    errs = []
    imag_worst = np.abs(u_glo.imag).max() / np.abs(u_glo.real).max()
    for m in (1, 2, 3):
        space = cem.build_space(forms, P, m, strict_zero_trace=True, load_blocks=blocks)
        system = cem.assemble_coarse(space, forms, loads)
        u_ms, _ = cem.solve_multiscale(system, space, forms=forms)
        imag_worst = max(imag_worst, np.abs(u_ms.imag).max() / np.abs(u_ms.real).max())
        errs.append(relative_errors(u_glo, u_ms, forms))
    print("\n[acceptance 9] elliptic regression (k=0):")
    for m, rep in zip((1, 2, 3), errs):
        print(f"  m={m}: e_l2={rep.e_l2:.3e} e_a={rep.e_energy:.3e}")
    print(f"  worst relative imaginary part {imag_worst:.2e}")
    assert imag_worst <= 1e-10
    assert errs[0].e_l2 > errs[1].e_l2 > errs[2].e_l2
    assert errs[0].e_energy > errs[1].e_energy > errs[2].e_energy
    print("  -> PASS")


def test_element_matrix_oracles():
    """Element stiffness/mass/edge matrices against symbolic integration."""
    from cemhelm.assembly import element_boundary_matrix, element_matrices

    x, y = sympy.symbols("x y")
    for h_num, h_sym, exact in ((0.5, sympy.Rational(1, 2), True),
                                (1.0 / 200.0, sympy.Rational(1, 200), False)):
        shapes = [
            (1 - x / h_sym) * (1 - y / h_sym),
            (x / h_sym) * (1 - y / h_sym),
            (x / h_sym) * (y / h_sym),
            (1 - x / h_sym) * (y / h_sym),
        ]
        Ke, Me = element_matrices(h_num, 1.0)
        for a in range(4):
            for b in range(4):
                grad = (sympy.diff(shapes[a], x) * sympy.diff(shapes[b], x)
                        + sympy.diff(shapes[a], y) * sympy.diff(shapes[b], y))
                K_ref = sympy.integrate(grad, (x, 0, h_sym), (y, 0, h_sym))
                M_ref = sympy.integrate(shapes[a] * shapes[b], (x, 0, h_sym), (y, 0, h_sym))
                if exact:
                    assert Ke[a, b] == float(Fraction(str(K_ref)))
                    assert Me[a, b] == float(Fraction(str(M_ref)))
                else:
                    assert abs(Ke[a, b] - float(K_ref)) <= 1e-14
                    assert abs(Me[a, b] - float(M_ref)) <= 1e-14 * float(M_ref if M_ref > 0 else 1)
    t = sympy.symbols("t")
    hb = sympy.Rational(1, 8)
    edge_shapes = [1 - t / hb, t / hb]
    Eb = element_boundary_matrix(0.125)
    for a in range(2):
        for b in range(2):
            ref = sympy.integrate(edge_shapes[a] * edge_shapes[b], (t, 0, hb))
            assert Eb[a, b] == float(Fraction(str(ref)))
    print("\n[acceptance 10] element matrices match symbolic oracles -> PASS")
