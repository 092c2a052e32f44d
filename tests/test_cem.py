import numpy as np
import pytest
import scipy.sparse as sp

from cemhelm import cem, spectral
from cemhelm.assembly import build_forms
from cemhelm.errors import (
    DimensionMismatch,
    SingularCoarseSystem,
    SingularGlobalSystem,
    SingularLocalSystem,
)
from cemhelm.grid import build_coarse_grid, build_fine_grid, oversample
from cemhelm.medium import constant_medium, synthesize_channels
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
    glo = cem.global_basis(20, 0, forms, P)
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


def test_global_basis_residual_identity():
    # the unlocalized basis satisfies its defining variational identity
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=2, k=2.0)
    j, i = 5, 1
    w = cem.global_basis(j, i, forms, P)
    C = spectral.pi_gram_correction(P)
    r = spectral.pi_rhs(P, j, i)
    resid = forms.B @ w + C @ w - r
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=g.n_nodes)
        assert abs(v @ resid) <= 1e-9 * np.linalg.norm(v) * np.linalg.norm(r)


def test_space_rebuild_bitwise_identical(setup32):
    g, c, forms, P = setup32
    s1 = cem.build_space(forms, P, 2)
    s2 = cem.build_space(forms, P, 2)
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
    with pytest.raises(DimensionMismatch):
        cem.assemble_coarse(space, forms, np.zeros(10, dtype=complex))


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


@pytest.mark.parametrize(
    "j, strict, adjoint",
    [(5, False, False), (0, False, False), (0, True, False), (10, False, True)],
    ids=["interior", "corner", "strict-zero-trace", "adjoint"],
)
def test_bordered_assembly_matches_bmat_oracle(channel_setup, j, strict, adjoint):
    g, c, forms, P = channel_setup
    patch = oversample(c, j, 1)
    idx = patch.free_nodes(strict)
    rhs_cols = np.arange(j * P.nbf, (j + 1) * P.nbf)
    rng = np.random.default_rng(j)
    extra = rng.normal(size=(idx.size, 1)) + 1j * rng.normal(size=(idx.size, 1))
    vals = cem._bordered_solve(
        forms, P, idx, patch.elements, rhs_cols, adjoint=adjoint, extra_rhs=extra
    )
    ref = _bmat_oracle(forms, P, idx, patch.elements, rhs_cols, adjoint, extra)
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_global_bordered_assembly_matches_bmat_oracle(channel_setup):
    g, c, forms, P = channel_setup
    idx = np.arange(g.n_nodes)
    elements = np.arange(c.n_elements)
    cols = np.arange(c.n_elements * P.nbf)
    rng = np.random.default_rng(1)
    corrector_rhs = rng.normal(size=(g.n_nodes, 1)) + 1j * rng.normal(size=(g.n_nodes, 1))
    vals = cem._bordered_solve(
        forms, P, idx, elements, cols, error=SingularGlobalSystem, extra_rhs=corrector_rhs
    )
    ref = _bmat_oracle(forms, P, idx, elements, cols, extra_rhs=corrector_rhs)
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()
