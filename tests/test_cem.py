import gc
import logging
import re
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from cemhelm import cem, kernels, spectral
from cemhelm.assembly import build_forms, element_loads
from cemhelm.errors import (
    DimensionMismatch,
    InvalidElement,
    SingularCoarseSystem,
    SingularGlobalSystem,
    SingularLocalSystem,
    SingularMatrix,
)
from cemhelm.grid import build_coarse_grid, build_fine_grid, oversample
from cemhelm.medium import Medium, constant_medium, synthesize_channels
from cemhelm.metrics import a_norm, relative_errors
from cemhelm.reference import (
    ProblemSpec,
    fine_load,
    robin_data_plane_wave,
    solve_fine,
)


def make_setup(nx=32, NH=4, nbf=4, k=4.0, medium=None):
    g = build_fine_grid(nx, nx)
    c = build_coarse_grid(g, NH)
    med = medium or constant_medium(nx, nx, 1.0)
    forms = build_forms(g, c, med, k)
    P = spectral.build_projection(forms, nbf)
    return g, c, forms, P


@pytest.fixture(scope="module")
def setup32():
    return make_setup()


def test_basis_support_containment(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    for j in (0, 5, 10):
        patch = oversample(c, j, 1)
        outside = np.setdiff1d(np.arange(g.n_nodes), patch.nodes)
        for i in range(P.nbf):
            v = space.vector(j, i)
            assert np.abs(v[outside]).max() == 0.0
            assert np.abs(v).max() > 0.0


def test_basis_count(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    assert space.n_basis == c.n_elements * P.nbf
    assert space.trial.shape == (g.n_nodes, 64)


def test_zero_trace_on_inner_patch_boundary(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    j = 5  # interior element
    patch = oversample(c, j, 1)
    rim = patch.nodes[patch.on_patch_boundary & ~patch.on_domain_boundary]
    for i in range(P.nbf):
        assert np.abs(space.vector(j, i)[rim]).max() == 0.0


def test_robin_rows_keep_boundary_values(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    # corner element: patch touches the domain boundary, trace stays free
    v = space.vector(0, 0)
    corner_patch = oversample(c, 0, 1)
    on_gamma = corner_patch.nodes[corner_patch.on_domain_boundary]
    assert np.abs(v[on_gamma]).max() > 0.0


def test_strict_mode_zeroes_domain_boundary(setup32):
    g, c, forms, P = setup32
    psi, patch = cem.local_cem_solve(0, 1, forms, P, strict_zero_trace=True)
    on_gamma = patch.nodes[patch.on_domain_boundary]
    assert np.abs(psi[on_gamma]).max() == 0.0


def test_local_solve_matches_dense_oracle():
    # single-element domain, k=0: (K + C) psi = r solved densely
    g, c, forms, P = make_setup(nx=4, NH=1, nbf=2, k=0.0)
    psi, patch = cem.local_cem_solve(0, 0, forms, P)
    C = spectral.pi_gram_correction(P).toarray()
    A = forms.B.toarray() + C
    for i in range(2):
        r = spectral.pi_rhs(P, 0, i)
        ref = np.linalg.solve(A, r.astype(complex))
        assert np.abs(psi[:, i] - ref).max() <= 1e-10 * np.abs(ref).max()


def test_local_solve_with_wavenumber_matches_dense_oracle():
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=2, k=3.0)
    psi, patch = cem.local_cem_solve(1, 1, forms, P)
    idx = patch.free_nodes()
    C = spectral.pi_gram_correction(P)
    A = (forms.B + C).toarray()[np.ix_(idx, idx)]
    r = spectral.pi_rhs(P, 1, 0)[idx]
    ref = np.linalg.solve(A, r.astype(complex))
    assert np.abs(psi[idx, 0] - ref).max() <= 1e-9 * np.abs(ref).max()


def test_empty_patch_interior_raises():
    g, c, forms, P = make_setup(nx=4, NH=4, nbf=1)
    with pytest.raises(SingularLocalSystem):
        cem.local_cem_solve(5, 0, forms, P, strict_zero_trace=True)


def test_singular_element_block_raises():
    """Z_e = [[B_II, U_I], [U_I^T, -I]] is singular exactly where B_II + U_I U_I^T
    = K_II + U_I U_I^T - k^2 M_II is.  On a homogeneous grid of 4x4-cell
    elements (nbf = 1, every element alike) k is bisected to the sign change
    of the smallest eigenvalue of the latter; there the condensation refuses
    the block, since its solve amplifies a right-hand side by more than
    1 / (cem._MIN_RCOND |Z_e|) = 1e12 / |Z_e|, and names element 0.  At 0.9 k
    the same space builds."""
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=1, k=1.0)
    nodes = c.element_nodes[0]
    xy = g.node_coords[nodes]
    inside = np.flatnonzero((xy > 0.0).all(axis=1) & (xy < c.H).all(axis=1))
    idx = nodes[inside]
    K, M = forms.K[idx][:, idx].toarray(), forms.M[idx][:, idx].toarray()
    U = P.sphi[0][inside]

    def smallest(k):
        return np.linalg.eigvalsh(K + U @ U.T - k * k * M)[0]

    lo, hi = 0.0, 20.0
    assert smallest(lo) > 0.0 > smallest(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if smallest(mid) > 0.0 else (lo, mid)
    for k, singular in ((lo, True), (0.9 * lo, False)):
        forms_k = build_forms(g, c, forms.medium, k)
        P_k = spectral.build_projection(forms_k, 1)
        if singular:
            with pytest.raises(SingularLocalSystem, match=r"element 0: .*k\*H/eps"):
                cem.build_space(forms_k, P_k, 1)
        else:
            cem.build_space(forms_k, P_k, 1)


def test_exactly_singular_element_block_is_named():
    # a zero pivot makes the batched solve raise; the error still names the block
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=1)
    Z = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0]), np.eye(3)])
    with pytest.raises(SingularLocalSystem, match="element 1: "):
        cem._solve_elements(forms, Z, np.ones((3, 3, 1)))


def test_localization_consistency_full_patch(setup32):
    # patch = domain reproduces the unlocalized basis exactly
    g, c, forms, P = setup32
    gspace = cem.build_global_space(forms, P)
    space = cem.build_space(forms, P, 4)
    for j in (0, 7, 15):
        for i in range(P.nbf):
            loc = space.vector(j, i)
            glo = gspace.vector(j, i)
            ref = a_norm(glo, forms.K)
            assert a_norm(loc - glo, forms.K) <= 1e-6 * ref


def test_localization_error_decreases_with_m():
    g, c, forms, P = make_setup(nx=32, NH=8, nbf=2)
    glo = cem.build_global_space(forms, P).vector(20, 0)
    errs = []
    for m in (1, 2, 3):
        psi, _ = cem.local_cem_solve(20, m, forms, P)
        errs.append(a_norm(psi[:, 0] - glo, forms.K))
    assert errs[0] > errs[1] > errs[2]


def test_conjugate_test_space(setup32):
    g, c, forms, P = setup32
    for j, m in ((0, 1), (5, 2)):
        psi, _ = cem.local_cem_solve(j, m, forms, P)
        adj, _ = cem.local_cem_solve(j, m, forms, P, adjoint=True)
        w = cem.test_basis(psi)
        scale = np.linalg.norm(psi)
        assert np.linalg.norm(w - np.conj(psi)) == 0.0
        assert np.linalg.norm(adj - np.conj(psi)) <= 1e-10 * scale
    assert np.abs(cem.test_basis(cem.test_basis(psi)) - psi).max() == 0.0


def test_real_problem_gives_real_basis():
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=2, k=0.0)
    psi, _ = cem.local_cem_solve(0, 1, forms, P)
    assert np.abs(psi.imag).max() <= 1e-12 * np.abs(psi.real).max()
    assert np.abs(cem.test_basis(psi) - psi).max() <= 1e-12 * np.abs(psi).max()


def test_global_space_residual_identity():
    # the unlocalized basis satisfies its defining variational identity
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2, k=2.0)
    j, i = 5, 1
    w = cem.build_global_space(forms, P).vector(j, i)
    C = spectral.pi_gram_correction(P)
    r = spectral.pi_rhs(P, j, i)
    resid = forms.B @ w + C @ w - r
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=g.n_nodes)
        assert abs(v @ resid) <= 1e-9 * np.linalg.norm(v) * np.linalg.norm(r)


def test_space_rebuild_bitwise_identical(setup32):
    # a second build on the same P shares the first one's trial, so the
    # rebuild runs on a fresh projection of the same forms
    g, c, forms, P = setup32
    s1 = cem.build_space(forms, P, 2)
    s2 = cem.build_space(forms, spectral.build_projection(forms, P.nbf), 2)
    assert s1.trial is not s2.trial
    assert np.array_equal(s1.trial.data, s2.trial.data)
    assert np.array_equal(s1.trial.indices, s2.trial.indices)


def test_coarse_system_symmetry_and_sparsity(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    loads = np.zeros(g.n_nodes, dtype=complex)
    system = cem.assemble_coarse(space, forms, loads)
    G = system.G
    asym = abs(G - G.T)
    rel = (asym.max() / abs(G).max()) if asym.nnz else 0.0
    assert rel <= 1e-12
    # far-apart elements with disjoint patches produce no stored entries
    Gd = G.toarray()
    p = space.index(0, 0)  # corner (0,0), patch m=1
    q = space.index(15, 0)  # corner (3,3)
    assert Gd[p, q] == 0.0


def test_coarse_system_matches_dense_oracle_full_patches():
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=2, k=2.0)
    space = cem.build_space(forms, P, 2)  # patches fill the domain
    loads = fine_load(
        ProblemSpec(
            grid=g, medium=forms.medium, k=2.0,
            f=np.ones(g.n_nodes, complex), g=np.zeros(g.n_nodes, complex),
        )
    )
    system = cem.assemble_coarse(space, forms, loads)
    Psi = space.trial.toarray()
    G_ref = Psi.T @ (forms.B.toarray() @ Psi)
    assert np.abs(system.G.toarray() - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
    b_ref = Psi.T @ loads
    assert np.abs(system.b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()


def test_zero_loads_give_zero_solution(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    system = cem.assemble_coarse(space, forms, np.zeros(g.n_nodes, complex))
    u, coeffs = cem.solve_multiscale(system, space, forms=forms)
    assert np.abs(u).max() == 0.0
    assert np.abs(coeffs).max() == 0.0


def test_load_dimension_mismatch(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    # a second column has the right row count but would give b two columns
    for shape in ((10,), (g.n_nodes, 2)):
        with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
            cem.assemble_coarse(space, forms, np.zeros(shape, dtype=complex))


def test_petrov_galerkin_orthogonality(setup32):
    g, c, forms, P = setup32
    k = forms.k
    spec = ProblemSpec(
        grid=g, medium=forms.medium, k=k,
        f=np.zeros(g.n_nodes, complex), g=robin_data_plane_wave(g, k),
    )
    loads = fine_load(spec)
    u_h = solve_fine(spec, forms=forms).values
    space = cem.build_space(forms, P, 2)
    system = cem.assemble_coarse(space, forms, loads)
    u_ms, _ = cem.solve_multiscale(system, space, forms=forms)
    resid = space.trial.T @ (forms.B @ (u_h - u_ms))
    assert np.abs(resid).max() <= 1e-8 * np.linalg.norm(system.b)


def test_measure_decay_monotone_and_zero_at_coverage(setup32):
    g, c, forms, P = setup32
    tails, beta = cem.measure_decay(5, 0, forms, P, [0, 1, 2, 3, 4])
    assert all(t0 >= t1 for t0, t1 in zip(tails, tails[1:]))
    assert tails[-1] == 0.0  # m=4 patch covers the domain from any center
    assert beta < 1.0


def test_measure_decay_beta_constant_medium():
    g, c, forms, P = make_setup(nx=64, NH=8, nbf=4)
    tails, beta = cem.measure_decay(27, 1, forms, P, [1, 2, 3])
    assert all(t > 0 for t in tails)
    assert beta < 0.8


OUT_OF_RANGE = ((5, 2), (15, 2), (16, 0), (-1, 0), (0, -1))  # of NH = 4, nbf = 2


def test_out_of_range_basis_index_raises():
    # with nbf = 2, j * nbf + i of (5, 2) is that of (6, 0)
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    space = cem.build_space(forms, P, 1)
    assert space.index(15, 1) == space.n_basis - 1
    for j, i in OUT_OF_RANGE:
        with pytest.raises(InvalidElement):
            space.vector(j, i)


def test_measure_decay_rejects_out_of_range_basis():
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    for j, i in OUT_OF_RANGE:
        with pytest.raises(InvalidElement):
            cem.measure_decay(j, i, forms, P, [1, 2])


def test_measure_decay_rejects_w_of_another_length():
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    for size in (g.n_nodes - 5, g.n_nodes + 5):
        with pytest.raises(DimensionMismatch, match=f"against {g.n_nodes} nodes"):
            cem.measure_decay(5, 0, forms, P, [1, 2], w=np.ones(size, dtype=complex))


def test_dump_basis(tmp_path, setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    out = tmp_path / "basis.csv"
    cem.dump_basis(space, g, 5, 2, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node,x,y,re,im"
    assert len(lines) == 1 + g.n_nodes


def test_corrector_zero_for_zero_data(setup32):
    from cemhelm.assembly import element_loads

    g, c, forms, P = setup32
    blocks = element_loads(g, c, np.zeros(g.n_nodes), np.zeros(g.n_nodes))
    space = cem.build_space(forms, P, 1, load_blocks=blocks)
    assert np.abs(space.corrector).max() == 0.0


def test_corrector_supported_in_patches(setup32):
    from cemhelm.assembly import element_loads

    g, c, forms, P = setup32
    # data only in one corner element: corrector lives in its patch
    f = np.zeros(g.n_nodes, dtype=complex)
    f[c.element_nodes[0]] = 1.0
    blocks = element_loads(g, c, f, np.zeros(g.n_nodes))
    blocks[1:] = 0.0  # keep only element 0's share
    space = cem.build_space(forms, P, 1, load_blocks=blocks)
    patch = oversample(c, 0, 1)
    outside = np.setdiff1d(np.arange(g.n_nodes), patch.nodes)
    assert np.abs(space.corrector[outside]).max() == 0.0
    assert np.abs(space.corrector).max() > 0.0


def test_corrector_full_patch_matches_direct_solve():
    # patch = domain: q solves (B + C) q = b exactly
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=2, k=2.0)
    from cemhelm.assembly import element_loads
    from cemhelm.spectral import pi_gram_correction

    rng = np.random.default_rng(3)
    f = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    gd = np.zeros(g.n_nodes, dtype=complex)
    blocks = element_loads(g, c, f, gd)
    space = cem.build_space(forms, P, 2, load_blocks=blocks)
    from cemhelm.assembly import load_volume

    b = load_volume(g, f)
    A = forms.B.toarray() + pi_gram_correction(P).toarray()
    q_ref = np.linalg.solve(A, b)
    assert np.abs(space.corrector - q_ref).max() <= 1e-9 * np.abs(q_ref).max()


def test_global_space_corrector():
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=2, k=2.0)
    rng = np.random.default_rng(4)
    b = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    gspace = cem.build_global_space(forms, P, loads=b)
    from cemhelm.spectral import pi_gram_correction

    A = forms.B.toarray() + pi_gram_correction(P).toarray()
    q_ref = np.linalg.solve(A, b)
    assert np.abs(gspace.corrector - q_ref).max() <= 1e-9 * np.abs(q_ref).max()


def test_global_space_rejects_loads_of_another_grid():
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    for size in (build_fine_grid(32, 32).n_nodes, g.n_nodes - 1):
        with pytest.raises(DimensionMismatch):
            cem.build_global_space(forms, P, loads=np.ones(size, dtype=complex))


def test_petrov_galerkin_orthogonality_with_corrector(setup32):
    # the PG residual identity survives the corrector
    g, c, forms, P = setup32
    from cemhelm.assembly import element_loads

    k = forms.k
    spec = ProblemSpec(
        grid=g, medium=forms.medium, k=k,
        f=np.zeros(g.n_nodes, complex), g=robin_data_plane_wave(g, k),
    )
    loads = fine_load(spec)
    u_h = solve_fine(spec, forms=forms).values
    blocks = element_loads(g, c, spec.f, spec.g)
    space = cem.build_space(forms, P, 2, load_blocks=blocks)
    system = cem.assemble_coarse(space, forms, loads)
    u_ms, _ = cem.solve_multiscale(system, space, forms=forms)
    resid = space.trial.T @ (forms.B @ (u_h - u_ms))
    assert np.abs(resid).max() <= 1e-8 * np.linalg.norm(loads)


def _plane_wave_system(forms, P, m):
    g = forms.grid
    spec = ProblemSpec(
        grid=g, medium=forms.medium, k=forms.k,
        f=np.zeros(g.n_nodes, complex), g=robin_data_plane_wave(g, forms.k),
    )
    space = cem.build_space(forms, P, m)
    return space, cem.assemble_coarse(space, forms, fine_load(spec))


def test_sparse_coarse_branch_matches_dense(setup32, monkeypatch):
    g, c, forms, P = setup32
    space, system = _plane_wave_system(forms, P, 2)
    u_dense, c_dense = cem.solve_multiscale(system, space, forms=forms)
    monkeypatch.setattr(cem, "DENSE_LIMIT", 0)
    u_sparse, c_sparse = cem.solve_multiscale(system, space, forms=forms)
    assert np.linalg.norm(c_sparse - c_dense) <= 1e-10 * np.linalg.norm(c_dense)
    assert np.linalg.norm(u_sparse - u_dense) <= 1e-10 * np.linalg.norm(u_dense)


@pytest.mark.parametrize("dense_limit", [2000, 0])
def test_singular_coarse_system_raises(setup32, dense_limit, monkeypatch):
    g, c, forms, P = setup32
    monkeypatch.setattr(cem, "DENSE_LIMIT", dense_limit)
    space, system = _plane_wave_system(forms, P, 1)
    keep = np.ones(system.n)
    keep[3] = 0.0  # coarse dof 3 decoupled: zero row and column
    D = sp.diags(keep)
    G = (D @ system.G @ D).tocsr()
    G.eliminate_zeros()
    singular = cem.CoarseSystem(G, system.b, system.nbf)
    with pytest.raises(SingularCoarseSystem, match="k\\*H/eps"):
        cem.solve_multiscale(singular, space, forms=forms)


def _element_distance(n, NH, nbf):
    """Chebyshev distance between the coarse elements of every pair of dofs."""
    e = np.arange(n) // nbf
    x, y = e % NH, e // NH
    return np.maximum(np.abs(x[:, None] - x[None, :]), np.abs(y[:, None] - y[None, :]))


@pytest.fixture(scope="module")
def system_nh6():
    g, c, forms, P = make_setup(nx=24, NH=6, nbf=2)
    space, system = _plane_wave_system(forms, P, 2)
    return forms, space, system


def test_near_field_matches_dense_mask(system_nh6):
    forms, space, system = system_nh6
    G = system.G
    near = cem._near_field(G, 6, 2)
    assert near.format == G.format == "csr"
    near_csc = cem._near_field(G.tocsc(), 6, 2)
    assert near_csc.format == "csc" and np.array_equal(near_csc.toarray(), near.toarray())
    mask = _element_distance(system.n, 6, 2) <= cem.NEAR_FIELD
    coo = G.tocoo()
    stored = np.zeros(G.shape, dtype=bool)
    stored[coo.row, coo.col] = True
    assert (stored & ~mask).any()  # G reaches beyond the near field
    dense = near.toarray()
    assert np.array_equal(dense[mask], G.toarray()[mask])  # kept, bitwise
    assert not dense[~mask].any()  # dropped
    assert near.nnz == (stored & mask).sum()


def test_sparse_coarse_branch_reads_csr(system_nh6, monkeypatch):
    # the space's CSR G reaches the GMRES as it is, without a copy
    forms, space, system = system_nh6
    monkeypatch.setattr(cem, "DENSE_LIMIT", 0)
    seen = []
    solve = cem._near_field_solve

    def spy(G, *args):
        seen.append(G)
        return solve(G, *args)

    monkeypatch.setattr(cem, "_near_field_solve", spy)
    cem.solve_multiscale(system, space, forms=forms)
    (G,) = seen
    assert G.format == "csr"
    assert all(np.shares_memory(a, b) for a, b in zip(
        (G.data, G.indices, G.indptr), (system.G.data, system.G.indices, system.G.indptr)))


@pytest.mark.parametrize("dense_limit", [2000, 0], ids=["dense", "gmres"])
def test_coarse_solve_reads_any_format(system_nh6, dense_limit, monkeypatch):
    # a hand-made system's G may come as CSC, CSR or a dense array
    forms, space, system = system_nh6
    monkeypatch.setattr(cem, "DENSE_LIMIT", dense_limit)
    coeffs = []
    for G in (system.G.tocsc(), system.G.tocsr(), system.G.toarray()):
        hand_made = cem.CoarseSystem(G, system.b, system.nbf)
        # the dense row sums are summed in BLAS's order
        assert abs(hand_made.G_norm - system.G_norm) <= 1e-14 * system.G_norm
        coeffs.append(cem.solve_multiscale(hand_made, space, forms=forms)[1])
    assert all(np.array_equal(c, coeffs[0]) for c in coeffs[1:])


def test_gmres_failure_falls_back_to_full_lu(system_nh6, monkeypatch):
    forms, space, system = system_nh6
    monkeypatch.setattr(cem, "DENSE_LIMIT", 0)
    monkeypatch.setattr(
        scipy.sparse.linalg, "gmres", lambda A, b, **kw: (np.zeros_like(b), 2)
    )
    _, c = cem.solve_multiscale(system, space, forms=forms)
    assert np.array_equal(c, kernels.factorize(system.G).solve(system.b))


@pytest.mark.parametrize(
    "dense_limit, owner, name",
    [(2000, np.linalg, "solve"), (0, cem, "_near_field_solve")],
    ids=["dense", "sparse"],
)
def test_coarse_backward_error_guard(system_nh6, dense_limit, owner, name, monkeypatch):
    forms, space, system = system_nh6
    monkeypatch.setattr(cem, "DENSE_LIMIT", dense_limit)
    cem.solve_multiscale(system, space, forms=forms)  # passes unperturbed
    solve = getattr(owner, name)

    def perturbed(*args):
        c = solve(*args).copy()
        c[0] += 1e-6 * np.abs(c).max()
        return c

    monkeypatch.setattr(owner, name, perturbed)
    with pytest.raises(SingularCoarseSystem, match=f"{system.n} dofs has backward error"):
        cem.solve_multiscale(system, space, forms=forms)


def test_channel_coarse_gmres_iterates_on_strict_near_field(channel_setup, caplog, monkeypatch):
    g, c, forms, P = channel_setup
    f, gd = np.zeros(g.n_nodes, dtype=complex), robin_data_plane_wave(g, forms.k)
    space = cem.build_space(forms, P, 2, load_blocks=element_loads(g, c, f, gd))
    system = cem.assemble_coarse(space, forms, forms.Mb @ gd)
    assert cem._near_field(system.G, c.NH, P.nbf).nnz < system.G.nnz
    _, c_dense = cem.solve_multiscale(system, space, forms=forms)
    monkeypatch.setattr(cem, "DENSE_LIMIT", 0)
    caplog.set_level(logging.DEBUG, logger="cemhelm.cem")
    _, c_gmres = cem.solve_multiscale(system, space, forms=forms)
    (record,) = [r for r in caplog.records if r.msg.startswith("coarse GMRES")]
    _, iterations, info = record.args
    assert iterations > 1 and info == 0
    assert np.linalg.norm(c_gmres - c_dense) <= 1e-10 * np.linalg.norm(c_dense)


def _bmat_oracle(forms, P, idx, elements, rhs_cols, adjoint=False, extra_rhs=None):
    """The bordered system stacked block by block with sp.bmat, solved densely."""
    B_loc = forms.B[idx][:, idx]
    if adjoint:
        B_loc = B_loc.conj()
    cols = (np.asarray(elements)[:, None] * P.nbf + np.arange(P.nbf)[None, :]).ravel()
    U = np.column_stack([spectral.pi_rhs(P, *divmod(q, P.nbf)) for q in cols])
    U_loc = sp.csr_matrix(U[idx])
    A = sp.bmat([[B_loc, U_loc], [U_loc.T, -sp.identity(cols.size)]]).toarray()
    R = np.column_stack([spectral.pi_rhs(P, *divmod(q, P.nbf)) for q in rhs_cols])[idx]
    if extra_rhs is not None:
        R = np.hstack([R, extra_rhs])
    rhs = np.vstack([R, np.zeros((cols.size, R.shape[1]))])
    return np.linalg.solve(A, rhs.astype(complex))[: idx.size]


@pytest.fixture(scope="module")
def channel_setup():
    med = synthesize_channels(32, 32, seed=5, contrast=1e-3, channel_count=4)
    return make_setup(nx=32, NH=4, nbf=3, k=6.0, medium=med)


def _condensed_solve(forms, P, patch, strict, j, block, adjoint=False):
    """Element j's trial columns and the data column of its load block on
    `patch`, through the condensed skeleton solve of the solver."""
    cond = cem._condense(forms, P)
    sources = cem._join(
        cem._trial_sources(cond, [j]), cem._load_sources(forms, P, [j], block[None], P.nbf)
    )
    layout = cem._skeleton_layout(cond, patch.coarse, j, patch.m, strict)
    rows, vals, _ = cem._skeleton_solve(
        cond.conj() if adjoint else cond, layout, j, patch.m, sources, P.nbf + 1
    )
    return rows, vals


def _zero_extended(c, j, block):
    v = np.zeros(c.fine.n_nodes, dtype=complex)
    v[c.element_nodes[j]] = block
    return v


@pytest.mark.parametrize(
    "j, strict, adjoint",
    [(5, False, False), (0, False, False), (0, True, False), (10, False, True)],
    ids=["interior", "corner", "strict-zero-trace", "adjoint"],
)
def test_bordered_assembly_matches_bmat_oracle(channel_setup, j, strict, adjoint):
    # the corner patch ends inside the domain on two sides, so its free
    # rim nodes on the outer boundary carry B's diagonal from outside it
    g, c, forms, P = channel_setup
    patch = oversample(c, j, 1)
    idx = patch.free_nodes(strict)
    rhs_cols = np.arange(j * P.nbf, (j + 1) * P.nbf)
    block = _random_complex(np.random.default_rng(j), c.element_nodes.shape[1])
    rows, vals = _condensed_solve(forms, P, patch, strict, j, block, adjoint)
    assert np.array_equal(rows, idx)
    extra = _zero_extended(c, j, block)[idx][:, None]
    ref = _bmat_oracle(forms, P, idx, patch.elements, rhs_cols, adjoint, extra)
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_global_bordered_assembly_matches_bmat_oracle(channel_setup):
    # the domain patch keeps every node and every element
    g, c, forms, P = channel_setup
    patch = oversample(c, 0, c.NH - 1)
    idx = np.arange(g.n_nodes)
    elements = np.arange(c.n_elements)
    assert np.array_equal(patch.elements, elements)
    assert np.array_equal(patch.free_nodes(), idx)
    cols = np.arange(c.n_elements * P.nbf)
    corrector_rhs = _random_complex(np.random.default_rng(1), g.n_nodes)
    gspace = cem.build_global_space(forms, P, loads=corrector_rhs)
    vals = np.column_stack([gspace.trial.toarray(), gspace.corrector])
    ref = _bmat_oracle(forms, P, idx, elements, cols, extra_rhs=corrector_rhs[:, None])
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


# --- the same identities over generated configurations


@st.composite
def configurations(draw):
    """A small problem: nx <= 16 cells, NH | nx, 1 <= nbf <= 3, a random
    two-level medium of contrast 1e-3 to 1e3, with or without the strict
    zero trace, and a seed for its random complex data."""
    nx = draw(st.integers(2, 16))
    NH = draw(st.sampled_from([d for d in (1, 2, 3, 4) if nx % d == 0]))
    return dict(
        nx=nx,
        NH=NH,
        nbf=draw(st.integers(1, 3)),
        contrast=10.0 ** draw(st.floats(-3.0, 3.0)),
        k=draw(st.floats(0.5, 4.0)),
        strict=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _generated_setup(cfg):
    rng = np.random.default_rng(cfg["seed"])
    nx = cfg["nx"]
    values = np.where(rng.random(nx * nx) < 0.3, cfg["contrast"], 1.0)
    g, c, forms, P = make_setup(
        nx=nx, NH=cfg["NH"], nbf=cfg["nbf"], k=cfg["k"], medium=Medium(values, nx, nx)
    )
    return rng, g, c, forms, P


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@given(cfg=configurations(), data=st.data())
def test_generated_bordered_solve_matches_bmat_oracle(cfg, data):
    rng, g, c, forms, P = _generated_setup(cfg)
    j = data.draw(st.integers(0, c.n_elements - 1), label="j")
    m = data.draw(st.integers(0, cfg["NH"]), label="m")
    adjoint = data.draw(st.booleans(), label="adjoint")
    patch = oversample(c, j, m)
    idx = patch.free_nodes(cfg["strict"])
    block = _random_complex(rng, c.element_nodes.shape[1])
    rhs_cols = np.arange(j * P.nbf, (j + 1) * P.nbf)
    if idx.size == 0:
        with pytest.raises(SingularLocalSystem, match=f"element {j}, m={m}"):
            _condensed_solve(forms, P, patch, cfg["strict"], j, block, adjoint)
        return
    rows, vals = _condensed_solve(forms, P, patch, cfg["strict"], j, block, adjoint)
    assert np.array_equal(rows, idx)
    extra = _zero_extended(c, j, block)[idx][:, None]
    ref = _bmat_oracle(forms, P, idx, patch.elements, rhs_cols, adjoint, extra)
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


@given(cfg=configurations())
def test_generated_domain_patch_space_equals_global_space(cfg):
    # with m = NH - 1 every patch is the domain: trial columns and the summed
    # corrector are those of the unlocalized problem
    rng, g, c, forms, P = _generated_setup(cfg)
    f, gd = _random_complex(rng, g.n_nodes), _random_complex(rng, g.n_nodes)
    blocks = element_loads(g, c, f, gd)
    space = cem.build_space(forms, P, c.NH - 1, cfg["strict"], load_blocks=blocks)
    gspace = cem.build_global_space(
        forms, P, loads=forms.M @ f + forms.Mb @ gd, strict_zero_trace=cfg["strict"]
    )
    for loc, glo in ((space.trial.toarray(), gspace.trial.toarray()),
                     (space.corrector, gspace.corrector)):
        assert np.abs(loc - glo).max() <= 1e-10 * np.abs(glo).max()


@given(cfg=configurations(), data=st.data())
def test_generated_sparse_coarse_solve(cfg, data):
    # the near-field GMRES branch: G complex symmetric, coefficients equal to
    # the dense branch's, and the field Petrov-Galerkin orthogonal
    rng, g, c, forms, P = _generated_setup(cfg)
    # more trial vectors than free fine nodes make G singular: the field is
    # still defined, its coefficients are not
    assume(c.n_elements * P.nbf <= oversample(c, 0, c.NH - 1).free_nodes(cfg["strict"]).size)
    m = data.draw(st.integers(1, max(1, cfg["NH"] - 1)), label="m")
    f, gd = _random_complex(rng, g.n_nodes), _random_complex(rng, g.n_nodes)
    loads = forms.M @ f + forms.Mb @ gd
    space = cem.build_space(forms, P, m, cfg["strict"], load_blocks=element_loads(g, c, f, gd))
    system = cem.assemble_coarse(space, forms, loads)
    G = system.G.toarray()
    assert np.abs(G - G.T).max() <= 1e-12 * np.abs(G).max()
    _, c_dense = cem.solve_multiscale(system, space, forms=forms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cem, "DENSE_LIMIT", 0)
        u, c_sparse = cem.solve_multiscale(system, space, forms=forms)
    assert np.linalg.norm(c_sparse - c_dense) <= 1e-10 * np.linalg.norm(c_dense)
    resid = space.trial.T @ (loads - forms.B @ u)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(space.trial.T @ loads)


@given(cfg=configurations())
def test_generated_load_blocks_scatter_to_load_vector(cfg):
    rng, g, c, forms, P = _generated_setup(cfg)
    f, gd = _random_complex(rng, g.n_nodes), _random_complex(rng, g.n_nodes)
    total = np.zeros(g.n_nodes, dtype=complex)
    np.add.at(total, c.element_nodes, element_loads(g, c, f, gd))
    ref = forms.M @ f + forms.Mb @ gd
    assert np.abs(total - ref).max() <= 1e-12 * np.abs(ref).max()


@given(cfg=configurations(), data=st.data())
def test_generated_online_space_equals_offline(cfg, data):
    # a second build_space call on P solves only the loaded patches (some
    # blocks are exactly zero); a first call on a fresh projection solves all
    rng, g, c, forms, P = _generated_setup(cfg)
    assume(c.n_elements * P.nbf <= oversample(c, 0, c.NH - 1).free_nodes(cfg["strict"]).size)
    m = data.draw(st.integers(1, max(1, cfg["NH"] - 1)), label="m")
    blocks = element_loads(g, c, _random_complex(rng, g.n_nodes), _random_complex(rng, g.n_nodes))
    loaded = rng.random(c.n_elements) < 0.5
    loaded[rng.integers(c.n_elements)] = True
    blocks[~loaded] = 0.0
    loads = np.zeros(g.n_nodes, dtype=complex)
    np.add.at(loads, c.element_nodes, blocks)
    first = cem.build_space(forms, P, m, cfg["strict"])
    results = []
    for proj in (P, spectral.build_projection(forms, P.nbf)):
        space = cem.build_space(forms, proj, m, cfg["strict"], load_blocks=blocks)
        u, _ = cem.solve_multiscale(cem.assemble_coarse(space, forms, loads), space, forms=forms)
        results.append((space, u))
    (online, u_online), (offline, u_offline) = results
    assert online.trial is first.trial and offline.trial is not first.trial
    assert _rel(online.corrector, offline.corrector) <= 1e-12
    assert _rel(u_online, u_offline) <= 1e-12


# --- offline/online split: P keeps the last space; spaces for the same
# (forms, m, strict_zero_trace) share its trial matrix and G


def _bump_source(g, center, width=0.08):
    xy = g.node_coords
    r2 = ((xy - np.asarray(center)) ** 2).sum(axis=1)
    return np.where(r2 < width**2, 1.0 + 0.5j, 0.0).astype(complex)


def _three_calls(forms, P, m, f, gd):
    blocks = element_loads(forms.grid, forms.coarse, f, gd)
    space = cem.build_space(forms, P, m, load_blocks=blocks)
    system = cem.assemble_coarse(space, forms, forms.M @ f + forms.Mb @ gd)
    u, _ = cem.solve_multiscale(system, space, forms=forms)
    return space, system, u


@pytest.fixture
def counted_factorize(monkeypatch):
    calls = []
    factorize = kernels.factorize

    def counting(A, **kw):
        calls.append(A.shape[0])
        return factorize(A, **kw)

    monkeypatch.setattr(kernels, "factorize", counting)
    return calls


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("second", ["bump", "plane-wave"])
def test_cached_space_matches_fresh_projection(channel_setup, second):
    g, c, forms, P = channel_setup
    zero = np.zeros(g.n_nodes, dtype=complex)
    _three_calls(forms, P, 1, _bump_source(g, (0.3, 0.6)), zero)  # builds P.space
    f, gd = _bump_source(g, (0.7, 0.4)), zero
    if second == "plane-wave":
        f, gd = zero, robin_data_plane_wave(g, forms.k)
    cached = _three_calls(forms, P, 1, f, gd)
    fresh = _three_calls(forms, spectral.build_projection(forms, P.nbf), 1, f, gd)
    assert cached[0].trial is P.space.trial and cached[1].G is P.space.G
    assert _rel(cached[0].corrector, fresh[0].corrector) <= 1e-12
    assert _rel(cached[1].G.toarray(), fresh[1].G.toarray()) <= 1e-12
    assert _rel(cached[1].b, fresh[1].b) <= 1e-12
    assert _rel(cached[2], fresh[2]) <= 1e-12


def test_cached_call_factors_only_loaded_patches(counted_factorize):
    g, c, forms, P = make_setup(nx=24, NH=6, nbf=3)
    zero = np.zeros(g.n_nodes, dtype=complex)
    _three_calls(forms, P, 1, _bump_source(g, (0.2, 0.2)), zero)
    assert len(counted_factorize) == c.n_elements
    f = _bump_source(g, (0.58, 0.41))
    loaded = np.any(element_loads(g, c, f, zero) != 0, axis=1).sum()
    assert 0 < loaded < c.n_elements
    del counted_factorize[:]
    space, _, _ = _three_calls(forms, P, 1, f, zero)
    # the loaded patches only; the coarse system is small, so solved densely
    assert len(counted_factorize) == loaded
    assert np.abs(space.corrector).max() > 0.0


def test_build_space_logs_patch_work(caplog, monkeypatch):
    # one DEBUG line per call: the patches it factorized (the loaded ones
    # online), how many in a reused class ordering and how many fresh (one
    # per shape class offline, all online), their skeleton unknowns, the
    # summed L+U fill of their LUs, and the G strips with the seconds spent
    # forming them and the final wait
    g, c, forms, P = make_setup(nx=24, NH=6, nbf=3)
    work = []
    factorize = kernels.factorize

    def counting(A, ordered=False):
        F = factorize(A, ordered=ordered)
        work.append((A.shape[0], F.fill, ordered))
        return F

    monkeypatch.setattr(kernels, "factorize", counting)
    caplog.set_level(logging.DEBUG, logger="cemhelm.cem")
    zero = np.zeros(g.n_nodes, dtype=complex)
    f = _bump_source(g, (0.58, 0.41))
    loaded = np.flatnonzero(np.any(element_loads(g, c, f, zero) != 0, axis=1))
    assert 0 < loaded.size < c.n_elements
    for source, elements, strips in ((_bump_source(g, (0.2, 0.2)), range(c.n_elements), c.NH),
                                     (f, loaded, 0)):
        del work[:], caplog.records[:]
        _three_calls(forms, P, 1, source, zero)
        (record,) = [r for r in caplog.records if r.msg.startswith("build_space")]
        patches, reused, fresh, unknowns, fill, n_strips, busy, wait = record.args
        assert (patches, unknowns, fill) == (
            len(work), sum(n for n, _, _ in work), sum(lu for _, lu, _ in work))
        assert reused == sum(ordered for _, _, ordered in work) == patches - fresh
        assert n_strips == strips and busy >= 0.0 and wait >= 0.0
        if strips:  # offline: 36 patches in 25 shape classes
            assert fresh == len({cem._layout_key(c, j, 1) for j in elements}) == 25
        else:  # online: each loaded patch in its own ordering
            assert reused == 0
        # a skeleton holds fewer unknowns than the patch's free nodes
        assert unknowns < len(work) * oversample(c, 14, 1).free_nodes().size
    assert patches == loaded.size  # online: the loaded patches only
    assert c.n_elements == 36 and len(work) == loaded.size


def test_cached_zero_load_gives_zero_corrector_without_factorization(counted_factorize):
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    blocks = np.zeros(c.element_nodes.shape, dtype=complex)
    cem.build_space(forms, P, 1, load_blocks=blocks)
    del counted_factorize[:]
    space = cem.build_space(forms, P, 1, load_blocks=blocks)
    assert counted_factorize == []
    assert space.corrector.shape == (g.n_nodes,)
    assert np.abs(space.corrector).max() == 0.0


def test_changed_key_rebuilds_space(counted_factorize):
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    first = cem.build_space(forms, P, 1)
    replaced = weakref.ref(first.trial)
    same_inputs = build_forms(g, c, forms.medium, forms.k)
    for forms_, m, strict in ((forms, 2, False), (forms, 2, True), (same_inputs, 2, True)):
        del counted_factorize[:]
        space = cem.build_space(forms_, P, m, strict)
        assert len(counted_factorize) == c.n_elements
        assert space.trial is not first.trial and space.G is not first.G
        assert P.space is space
        assert space.forms is forms_ and space.m == m and space.strict_zero_trace == strict
        first = space
        assert replaced() is None  # P holds only the last space
    del counted_factorize[:]
    again = cem.build_space(same_inputs, P, 2, True)
    assert again.trial is first.trial and again.G is first.G
    assert counted_factorize == []


def test_assemble_coarse_rejects_foreign_forms():
    # G belongs to the forms the space was built from; an equal copy is refused
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    other = build_forms(g, c, forms.medium, forms.k)
    space = cem.build_space(forms, P, 1)
    loads = np.ones(g.n_nodes, dtype=complex)
    with pytest.raises(DimensionMismatch):
        cem.assemble_coarse(space, other, loads)
    system = cem.assemble_coarse(space, forms, loads)
    assert system.G is space.G
    ref = ((forms.B @ space.trial).T @ space.trial).toarray()
    assert np.array_equal(system.G.toarray(), ref)
    # (B Psi)^T Psi is Psi^T B Psi summed in another order (B is complex symmetric)
    sym = (space.trial.T @ (forms.B @ space.trial)).toarray()
    assert np.abs(ref - sym).max() <= 1e-12 * np.abs(sym).max()


def test_wrong_load_block_shape_raises():
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    g32 = build_fine_grid(32, 32)
    zero = np.zeros(g32.n_nodes, dtype=complex)
    blocks = element_loads(g32, build_coarse_grid(g32, 8), np.ones(g32.n_nodes), zero)
    assert blocks.shape != c.element_nodes.shape
    with pytest.raises(DimensionMismatch):
        cem.build_space(forms, P, 1, load_blocks=blocks)  # offline build
    cem.build_space(forms, P, 1)
    with pytest.raises(DimensionMismatch):
        cem.build_space(forms, P, 1, load_blocks=blocks)  # online build


def test_coarse_matrix_is_csr(setup32):
    # the format G's row strips stack into without a copy
    g, c, forms, P = setup32
    loads = np.ones(g.n_nodes, dtype=complex)
    for space in (cem.build_space(forms, P, 1), cem.build_global_space(forms, P)):
        assert cem.assemble_coarse(space, forms, loads).G.format == "csr"


def test_spaces_from_one_cache_keep_independent_correctors():
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    zero = np.zeros(g.n_nodes, dtype=complex)
    s1, sys1, _ = _three_calls(forms, P, 1, _bump_source(g, (0.3, 0.3), 0.2), zero)
    q1 = s1.corrector.copy()
    s2, sys2, _ = _three_calls(forms, P, 1, _bump_source(g, (0.7, 0.7), 0.2), zero)
    assert s1 is not s2 and s1.trial is s2.trial and sys1.G is sys2.G
    assert s1.corrector is not s2.corrector
    assert np.array_equal(s1.corrector, q1)
    assert np.abs(s2.corrector - q1).max() > 0.0
    s2.corrector[:] = 0.0
    assert np.array_equal(s1.corrector, q1)


def test_shared_trial_and_coarse_matrix_are_read_only(setup32):
    g, c, forms, P = setup32
    space = cem.build_space(forms, P, 1)
    for s in (space, cem.build_global_space(forms, P)):
        for A in (s.trial, s.G):
            for arr in (A.data, A.indices, A.indptr):
                with pytest.raises(ValueError):
                    arr[0] = arr[0]
    again = cem.build_space(forms, P, 1)
    assert again.trial is space.trial and again.G is space.G


def test_trial_and_coarse_matrix_freed_with_projection_and_spaces():
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2)
    zero = np.zeros(g.n_nodes, dtype=complex)
    first, _, _ = _three_calls(forms, P, 1, _bump_source(g, (0.3, 0.3), 0.2), zero)
    kept = [weakref.ref(first.trial), weakref.ref(first.G)]
    second, system, _ = _three_calls(forms, P, 1, _bump_source(g, (0.7, 0.7), 0.2), zero)
    del P, first
    gc.collect()
    assert all(ref() is not None for ref in kept)  # held by `second` and its system
    # a space that outlives its projection still assembles its coarse system
    loads = np.ones(g.n_nodes, dtype=complex)
    assert cem.assemble_coarse(second, forms, loads).G is second.G
    del second, system
    gc.collect()
    assert all(ref() is None for ref in kept)


# --- the streamed offline build: G from row strips on worker threads


def _g_oracle(forms, space):
    G = ((forms.B @ space.trial).T @ space.trial).tocsr()
    G.sum_duplicates()
    return G


def _bitwise_equal(A, B):
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices) and np.array_equal(A.data, B.data))


@given(cfg=configurations(), data=st.data())
def test_generated_streamed_coarse_matrix_is_the_one_product(cfg, data):
    # every entry of G is summed as in (B Psi)^T Psi, whatever the number of
    # workers and the order their strips finish in
    rng, g, c, forms, P = _generated_setup(cfg)
    m = data.draw(st.integers(0, cfg["NH"]), label="m")
    assume(all(oversample(c, j, m).free_nodes(cfg["strict"]).size for j in range(c.n_elements)))
    spaces = []
    for workers in (3, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cem, "_g_workers", lambda: workers)
            spaces.append(cem.build_space(forms, spectral.build_projection(forms, P.nbf), m,
                                          cfg["strict"]))
    for space in spaces:
        assert _bitwise_equal(space.G, _g_oracle(forms, space))
    assert _bitwise_equal(spaces[0].trial, spaces[1].trial)
    gspace = cem.build_global_space(forms, P, strict_zero_trace=cfg["strict"])
    assert _bitwise_equal(gspace.G, _g_oracle(forms, gspace))


def test_coarse_matrix_norm_computed_once_per_space(system_nh6, monkeypatch):
    forms, space, system = system_nh6
    G = space.G
    assert G.format == "csr"
    rows = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
    row_sums = np.bincount(rows, weights=np.abs(G.data), minlength=G.shape[0])
    assert space.G_norm == row_sums.max()
    assert system.G_norm == space.G_norm
    gspace = cem.build_global_space(forms, spectral.build_projection(forms, space.nbf))
    assert gspace.G_norm == cem._inf_norm(gspace.G)

    def not_again(G):
        raise AssertionError("|G|_inf formed again")

    monkeypatch.setattr(cem, "_inf_norm", not_again)
    for limit in (2000, 0):  # the dense and the sparse branch read the stored norm
        monkeypatch.setattr(cem, "DENSE_LIMIT", limit)
        system = cem.assemble_coarse(space, forms, np.ones(forms.grid.n_nodes))
        cem.solve_multiscale(system, space, forms=forms)


def _g_threads():
    return [t for t in threading.enumerate() if t.name.startswith("cemhelm-G")]


def test_singular_patch_mid_stream_names_element(monkeypatch):
    # element 26 lies in element row 4; with m = 1 the G strips of row 0 are
    # under way when its patch fails
    g, c, forms, P = make_setup(nx=24, NH=6, nbf=2)
    calls = []
    factorize = kernels.factorize

    def failing(A, **kw):
        calls.append(A.shape[0])
        if len(calls) == 27:
            raise SingularMatrix("zero pivot")
        return factorize(A, **kw)

    monkeypatch.setattr(kernels, "factorize", failing)
    with pytest.raises(SingularLocalSystem, match="element 26, m=1: constrained system"):
        cem.build_space(forms, P, 1)
    assert _g_threads() == []
    assert P.space is None


def test_patch_without_free_nodes_named_in_build():
    g, c, forms, P = make_setup(nx=4, NH=4, nbf=1)
    with pytest.raises(SingularLocalSystem, match="element 0, m=0: patch has no unconstrained"):
        cem.build_space(forms, P, 0, strict_zero_trace=True)
    assert _g_threads() == []


def test_failed_strip_raises_from_build_space(monkeypatch):
    g, c, forms, P = make_setup(nx=24, NH=6, nbf=2)

    def out_of_memory(*args):
        raise MemoryError("strip")

    monkeypatch.setattr(cem, "_coarse_rows", out_of_memory)
    with pytest.raises(MemoryError, match="strip"):
        cem.build_space(forms, P, 1)
    assert _g_threads() == []
    assert P.space is None
