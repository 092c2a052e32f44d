import numpy as np
import pytest
import scipy.linalg as sla

from cemhelm import spectral
from cemhelm.assembly import (
    assemble_boundary_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    build_forms,
)
from cemhelm.grid import build_coarse_grid, build_fine_grid
from cemhelm.medium import constant_medium, synthesize_channels
from cemhelm.metrics import s_norm


def make_setup(nx=8, NH=4, nbf=2, k=2.0, medium=None, trace_weight=0.0):
    # trace_weight=0: the plain volume-weighted auxiliary form these unit
    # tests are written against; the pipeline default adds a boundary term
    g = build_fine_grid(nx, nx)
    c = build_coarse_grid(g, NH)
    med = medium or constant_medium(nx, nx, 1.0)
    forms = build_forms(g, c, med, k)
    P = spectral.build_projection(forms, nbf, trace_weight=trace_weight)
    return g, c, forms, P


def _element_forms(g, medium, weights, c, j):
    """Oracle element pair: global assembly over element j's cells, sliced to its nodes."""
    nodes = c.element_nodes[j]
    cells = c.element_cells[j]
    K = assemble_stiffness(g, medium, cells=cells).toarray()[np.ix_(nodes, nodes)]
    S = assemble_weighted_mass(g, weights, cells=cells).toarray()[np.ix_(nodes, nodes)]
    return K, S, nodes


def _s_block(P, j):
    p = P.bases.shape[1]
    return P.S[j * p:(j + 1) * p, j * p:(j + 1) * p].toarray()


def test_constant_mode_has_zero_eigenvalue():
    _, c, _, P = make_setup()
    for lam, vectors in zip(P.eigenvalues, P.bases):
        assert abs(lam[0]) <= 1e-10 * lam[1]
        # eigenvector of lambda=0 is the constant (up to sign and s-scaling)
        v = vectors[:, 0]
        assert np.abs(v - v.mean()).max() <= 1e-9 * np.abs(v.mean())


def test_constant_mode_high_contrast():
    med = synthesize_channels(16, 16, seed=3, contrast=1e-3, channel_count=4)
    _, _, _, P = make_setup(nx=16, NH=4, medium=med)
    for lam in P.eigenvalues:
        assert abs(lam[0]) <= 1e-8


def test_requested_count_returned():
    _, c, _, P = make_setup(nbf=4)
    assert P.eigenvalues.shape == (c.n_elements, 4)
    assert P.bases.shape == (c.n_elements, c.element_nodes.shape[1], 4)
    for lam in P.eigenvalues:
        assert np.all(np.diff(lam) >= -1e-12)


def test_local_pairs_match_dense_full_spectrum_oracle():
    # 2x2-cell elements: compare subspace projectors against an independent
    # Cholesky-reduction eigensolve (degenerate pairs compare as subspaces)
    g, c, forms, P = make_setup(nx=8, NH=4, nbf=3)
    for j in (0, 5, 15):
        K, S, _ = _element_forms(g, forms.medium, forms.weights, c, j)
        L = np.linalg.cholesky(S)
        Linv = np.linalg.inv(L)
        C = Linv @ K @ Linv.T
        w, Q = np.linalg.eigh((C + C.T) / 2.0)
        V = Linv.T @ Q
        assert np.allclose(P.eigenvalues[j], w[:3], atol=1e-10)
        mine = P.bases[j]
        proj_a = mine @ mine.T @ S
        proj_b = V[:, :3] @ V[:, :3].T @ S
        assert np.abs(proj_a - proj_b).max() <= 1e-9


def test_s_orthonormality():
    _, _, _, P = make_setup(nbf=3)
    for j, vectors in enumerate(P.bases):
        G = vectors.T @ (_s_block(P, j) @ vectors)
        assert np.abs(G - np.eye(3)).max() <= 1e-10


def test_pi_fixes_range():
    g, c, forms, P = make_setup()
    j = 5
    v = spectral.BrokenField.zero_extension(c, j, P.bases[j][:, 1])
    out = spectral.pi_apply(P, v)
    assert np.abs(out.blocks - v.blocks).max() <= 1e-10


def test_pi_annihilates_s_orthogonal_vectors():
    g, c, forms, P = make_setup(nbf=2)
    rng = np.random.default_rng(0)
    v = rng.normal(size=g.n_nodes)
    # subtract the projection once; the remainder is s-orthogonal elementwise
    first = spectral.pi_apply(P, v)
    residual = spectral.BrokenField(c, spectral.BrokenField.from_nodal(c, v).blocks - first.blocks)
    out = spectral.pi_coeffs(P, residual)
    assert np.abs(out).max() <= 1e-10 * np.abs(v).max()


def test_pythagoras_split():
    g, c, forms, P = make_setup(nx=4, NH=2, nbf=2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        pv = spectral.pi_apply(P, v)
        total = spectral.broken_s_norm_sq(P, v)
        proj = spectral.broken_s_norm_sq(P, pv)
        rem = spectral.BrokenField(c, spectral.BrokenField.from_nodal(c, v).blocks - pv.blocks)
        assert proj + spectral.broken_s_norm_sq(P, rem) == pytest.approx(total, rel=1e-12)
        # elementwise s-norms of a nodal vector add up to the global s-norm
        assert total == pytest.approx(s_norm(v, forms.S) ** 2, rel=1e-12)


def test_pi_idempotent():
    g, c, forms, P = make_setup()
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        once = spectral.pi_apply(P, v)
        twice = spectral.pi_apply(P, once)
        assert np.abs(twice.blocks - once.blocks).max() <= 1e-10 * np.abs(v).max()


def test_interpolation_bound():
    # projection defect against the next eigenvalue, per element
    g, c, forms, P = make_setup(nx=8, NH=2, nbf=2)
    rng = np.random.default_rng(3)
    for j in range(c.n_elements):
        Kj, Sj, nodes = _element_forms(g, forms.medium, forms.weights, c, j)
        lam_next = sla.eigh(Kj, Sj, eigvals_only=True)[2]
        Phi = P.bases[j]
        for _ in range(50):
            v = rng.normal(size=nodes.size)
            d = v - Phi @ (Phi.T @ (Sj @ v))
            lhs = d @ (Sj @ d)
            rhs = (v @ (Kj @ v)) / lam_next
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_gram_correction_consistency():
    g, c, forms, P = make_setup(nx=4, NH=2, nbf=2)
    C = spectral.pi_gram_correction(P)
    rng = np.random.default_rng(4)
    v = rng.normal(size=g.n_nodes)
    two_path = spectral.broken_s_norm_sq(P, spectral.pi_apply(P, v))
    assert v @ (C @ v) == pytest.approx(two_path, rel=1e-12)
    # rank = total number of auxiliary modes
    assert np.linalg.matrix_rank(C.toarray(), tol=1e-10) == c.n_elements * 2


def test_gram_correction_zero_modes():
    g, c, forms, _ = make_setup(nx=4, NH=2, nbf=1)
    # one mode per element: C should still factor exactly
    P1 = spectral.build_projection(forms, 1)
    C = spectral.pi_gram_correction(P1)
    assert C.shape == (g.n_nodes, g.n_nodes)
    F = np.column_stack([spectral.pi_rhs(P1, j, 0) for j in range(c.n_elements)])
    assert np.abs(C.toarray() - F @ F.T).max() <= 1e-14


def test_pi_rhs_properties():
    g, c, forms, P = make_setup(nx=8, NH=4, nbf=2)
    j, i = 5, 1
    r = spectral.pi_rhs(P, j, i)
    outside = np.setdiff1d(np.arange(g.n_nodes), c.element_nodes[j])
    assert np.abs(r[outside]).max() == 0.0
    phi = np.zeros(g.n_nodes)
    phi[c.element_nodes[j]] = P.bases[j][:, i]
    assert r @ phi == pytest.approx(1.0, rel=1e-10)
    phi0 = np.zeros(g.n_nodes)
    phi0[c.element_nodes[j]] = P.bases[j][:, 0]
    assert abs(r @ phi0) <= 1e-10


def test_subspace_determinism_under_sign_flips():
    g, c, forms, P = make_setup(nbf=2)
    P2 = spectral.build_projection(forms, 2, trace_weight=0.0)
    for j in range(c.n_elements):
        a, b = P.bases[j], P2.bases[j]
        S = _s_block(P, j)
        pa = a @ a.T @ S
        pb = b @ b.T @ S
        assert np.abs(pa - pb).max() <= 1e-9


def test_eigenvalue_dump(tmp_path):
    _, c, _, P = make_setup(nbf=2)
    out = tmp_path / "eigs.csv"
    spectral.dump_eigenvalues(P, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "element,index,lambda"
    assert len(lines) == 1 + c.n_elements * 2


def test_trace_weight_changes_only_boundary_elements():
    g, c, forms, P0 = make_setup(nx=16, NH=4, nbf=3)
    P1 = spectral.build_projection(forms, 3, trace_weight=-1.0)  # auto trace term
    for j in range(c.n_elements):
        same = np.allclose(P1.eigenvalues[j], P0.eigenvalues[j], rtol=1e-12)
        if c.touches_boundary[j]:
            assert not same
        else:
            assert same


def test_trace_weighted_projection_keeps_identities():
    # Pythagoras and idempotence are form-independent identities
    g, c, forms, _ = make_setup(nx=16, NH=4, nbf=3)
    P = spectral.build_projection(forms, 3, trace_weight=-1.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        pv = spectral.pi_apply(P, v)
        rem = spectral.BrokenField(c, spectral.BrokenField.from_nodal(c, v).blocks - pv.blocks)
        total = spectral.broken_s_norm_sq(P, v)
        split = spectral.broken_s_norm_sq(P, pv) + spectral.broken_s_norm_sq(P, rem)
        assert split == pytest.approx(total, rel=1e-12)
        twice = spectral.pi_apply(P, pv)
        assert np.abs(twice.blocks - pv.blocks).max() <= 1e-10 * np.abs(v).max()


def test_trace_weighted_constant_mode_still_zero():
    g, c, forms, _ = make_setup(nx=16, NH=4, nbf=2)
    P = spectral.build_projection(forms, 2, trace_weight=-1.0)
    for lam in P.eigenvalues:
        assert abs(lam[0]) <= 1e-10 * max(lam[1], 1e-30)


def _trace_blocks(forms, gamma):
    """Per-element trace term of the auxiliary form, (S_j(gamma) - S_j(0)) / gamma."""
    P0 = spectral.build_projection(forms, 2, trace_weight=0.0)
    P1 = spectral.build_projection(forms, 2, trace_weight=gamma)
    return [(_s_block(P1, j) - _s_block(P0, j)) / gamma
            for j in range(forms.coarse.n_elements)]


@pytest.mark.parametrize("medium", [
    constant_medium(8, 8, 1.0),
    synthesize_channels(8, 8, seed=3, contrast=1e-3, channel_count=2),
])
def test_trace_blocks_partition_global_boundary_mass(medium):
    # each boundary edge enters the trace term of exactly one element
    g, c, forms, _ = make_setup(nx=8, NH=4, medium=medium)
    total = np.zeros((g.n_nodes, g.n_nodes))
    for j, block in enumerate(_trace_blocks(forms, 5.0)):
        nodes = c.element_nodes[j]
        total[np.ix_(nodes, nodes)] += block
    Mb = assemble_boundary_mass(g, medium).toarray()
    assert np.abs(total - Mb).max() <= 1e-12 * np.abs(Mb).max()


def test_trace_block_weighs_own_boundary_length():
    # unit coefficient: 1^T block 1 is the element's share of the perimeter,
    # H on a side element, 2H on a corner element, 0 inside
    g, c, forms, _ = make_setup(nx=8, NH=4)
    for j, block in enumerate(_trace_blocks(forms, 5.0)):
        I, J = c.element_ij(j)
        sides = (I == 0) + (I == c.NH - 1) + (J == 0) + (J == c.NH - 1)
        assert block.sum() == pytest.approx(sides * c.H, rel=1e-12, abs=1e-14)


def test_stacked_projection_matches_per_element_oracle():
    # stiff channels with the trace term: each element's eigenvalues and
    # S_j Phi_j against a per-element assembly and eigensolve
    med = synthesize_channels(16, 16, seed=3, contrast=1e-3, channel_count=4)
    g, c, forms, P = make_setup(nx=16, NH=4, nbf=3, medium=med, trace_weight=-1.0)
    gamma = spectral.TRACE_WEIGHT_SCALE / c.H**2
    assert len(P.bases) == c.n_elements
    for j in range(c.n_elements):
        K, S, nodes = _element_forms(g, med, forms.weights, c, j)
        if c.touches_boundary[j]:
            Mb = assemble_boundary_mass(g, med, cells=c.element_cells[j], nodes=nodes)
            S = S + gamma * Mb.toarray()
        w, V = sla.eigh(K, S)
        assert np.abs(P.eigenvalues[j] - w[:3]).max() <= 1e-12 * w[2]
        ref = S @ V[:, :3]
        assert np.abs(P.sphi[j] - ref).max() <= 1e-12 * np.abs(ref).max()
