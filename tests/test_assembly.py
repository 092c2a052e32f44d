from fractions import Fraction

import numpy as np
import pytest
import sympy

from cemhelm.assembly import (
    assemble_B,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    build_forms,
    element_matrices,
    load_boundary,
    load_volume,
)
from cemhelm.errors import DimensionMismatch
from cemhelm.grid import build_coarse_grid, build_fine_grid, oversample
from cemhelm.medium import constant_medium

import oracles


def _maxabs(A):
    return np.abs(A.data).max() if A.nnz else 0.0


@pytest.fixture(scope="module")
def symbolic_element_matrices():
    """Exact integrals of the bilinear shape functions on an h x h square,
    integrated once with h a positive symbol: a function of the exact h
    returning (Ke, Me) at that h."""
    x, y = sympy.symbols("x y")
    h = sympy.symbols("h", positive=True)
    shapes = [
        (1 - x / h) * (1 - y / h),
        (x / h) * (1 - y / h),
        (x / h) * (y / h),
        (1 - x / h) * (y / h),
    ]
    Ke = sympy.zeros(4, 4)
    Me = sympy.zeros(4, 4)
    for a in range(4):
        for b in range(4):
            grad = (
                sympy.diff(shapes[a], x) * sympy.diff(shapes[b], x)
                + sympy.diff(shapes[a], y) * sympy.diff(shapes[b], y)
            )
            Ke[a, b] = sympy.integrate(grad, (x, 0, h), (y, 0, h))
            Me[a, b] = sympy.integrate(shapes[a] * shapes[b], (x, 0, h), (y, 0, h))
    return lambda value: (Ke.subs(h, value), Me.subs(h, value))


@pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
def test_element_matrices_match_symbolic_oracle_exactly(h, symbolic_element_matrices):
    # h a power of two: both paths round the same rationals, equality is exact
    Ke, Me = element_matrices(h, 1.0)
    Ke_sym, Me_sym = symbolic_element_matrices(sympy.Rational(h))
    for a in range(4):
        for b in range(4):
            assert Ke[a, b] == float(Fraction(str(Ke_sym[a, b])))
            assert Me[a, b] == float(Fraction(str(Me_sym[a, b])))


def test_element_matrices_generic_h(symbolic_element_matrices):
    h = 1.0 / 200.0
    Ke, Me = element_matrices(h, 1.0)
    Ke_sym, Me_sym = symbolic_element_matrices(sympy.Rational(1, 200))
    assert np.abs(Ke - np.array(Ke_sym, dtype=float)).max() <= 1e-14
    assert np.abs(Me - np.array(Me_sym, dtype=float)).max() <= 1e-14 * Me.max()


def test_element_stiffness_reference_values():
    Ke, Me = element_matrices(0.37, 1.0)
    expected_K = np.array(
        [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]
    ) / 6.0
    assert np.allclose(Ke, expected_K, atol=1e-15)
    expected_M = 0.37**2 / 36.0 * np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
    )
    assert np.allclose(Me, expected_M, atol=1e-18)


def test_element_coefficient_linearity():
    Ke1, Me1 = element_matrices(0.1, 1.0)
    Ke2, Me2 = element_matrices(0.1, 2.0)
    assert np.allclose(Ke2, 2.0 * Ke1)
    assert np.allclose(Me2, Me1)
    with pytest.raises(ValueError):
        element_matrices(0.1, 0.0)


def test_boundary_edge_matrix_oracle():
    # 1D line element of length h: exact integrals of the two hat functions
    x = sympy.symbols("x")
    h = sympy.Rational(1, 8)
    shapes = [1 - x / h, x / h]
    expected = [
        [sympy.integrate(shapes[a] * shapes[b], (x, 0, h)) for b in range(2)]
        for a in range(2)
    ]
    got = oracles.element_boundary_matrix(0.125)
    assert np.abs(got - np.array(expected, dtype=float)).max() <= 1e-16


def test_stiffness_kernel_contains_constants():
    g = build_fine_grid(5, 5)
    K = assemble_stiffness(g, constant_medium(5, 5, 1.0))
    assert np.abs(K @ np.ones(g.n_nodes)).max() <= 1e-13
    assert _maxabs(K - K.T) <= 1e-15


def test_single_cell_stiffness_equals_element_matrix():
    g = build_fine_grid(1, 1)
    K = assemble_stiffness(g, constant_medium(1, 1, 1.0)).toarray()
    Ke, _ = element_matrices(1.0, 1.0)
    # node order of cell 0 is (0, 1, 3, 2)
    perm = [0, 1, 3, 2]
    assert np.allclose(K[np.ix_(perm, perm)], Ke, atol=1e-15)


def test_quadratic_form_exact_on_linears():
    g = build_fine_grid(4, 4)
    K = assemble_stiffness(g, constant_medium(4, 4, 1.0))
    v = g.node_coords[:, 0]  # nodal interpolant of u = x
    assert v @ (K @ v) == pytest.approx(1.0, abs=1e-14)
    w = g.node_coords[:, 0] + 2.0 * g.node_coords[:, 1]  # u = x + 2y
    assert w @ (K @ w) == pytest.approx(5.0, abs=1e-13)


def test_mass_partition_of_unity():
    g = build_fine_grid(6, 6)
    M = assemble_mass(g)
    one = np.ones(g.n_nodes)
    assert one @ (M @ one) == pytest.approx(1.0, abs=1e-14)


def test_weighted_mass_linearity():
    g = build_fine_grid(4, 4)
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 3.0, g.n_cells)
    S1 = oracles.assemble_weighted_mass(g, w)
    S2 = oracles.assemble_weighted_mass(g, 2.0 * w)
    assert _maxabs(S2 - 2.0 * S1) <= 1e-14


def test_weighted_mass_positive_definite_dense_oracle():
    g = build_fine_grid(8, 8)
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 5.0, g.n_cells)
    S = oracles.assemble_weighted_mass(g, w).toarray()
    eigs = np.linalg.eigvalsh(S)
    assert eigs.min() > 0.0


def test_boundary_mass_perimeter_and_interior_rows():
    g = build_fine_grid(5, 5)
    Mb = assemble_boundary_mass(g)
    one = np.ones(g.n_nodes)
    assert one @ (Mb @ one) == pytest.approx(4.0, abs=1e-13)
    interior = ~g.boundary_mask
    rows = np.abs(Mb[interior]).sum()
    assert rows == 0.0


def test_helmholtz_operator_structure():
    g = build_fine_grid(6, 6)
    med = constant_medium(6, 6, 1.0)
    K = assemble_stiffness(g, med)
    B0 = assemble_B(g, med, 0.0)
    assert _maxabs(B0 - K.astype(complex)) <= 1e-15

    k = 16.0
    B = assemble_B(g, med, k)
    Mb = assemble_boundary_mass(g)
    imag_part = (B - B.conj()) / 2j
    assert _maxabs(imag_part + k * Mb) <= 1e-12

    rng = np.random.default_rng(8)
    Bk = assemble_B(g, med, float(rng.uniform(1, 30)))
    assert _maxabs(Bk - Bk.T) <= 1e-14


def test_hermitian_split():
    g = build_fine_grid(4, 4)
    med = constant_medium(4, 4, 1.0)
    k = 3.0
    B = assemble_B(g, med, k)
    re = B.real
    im = B.imag
    assert _maxabs(re - re.T) <= 1e-14
    assert _maxabs(im - im.T) <= 1e-14


def test_load_vectors():
    g = build_fine_grid(5, 5)
    zero = np.zeros(g.n_nodes, dtype=complex)
    assert np.all(load_volume(g, zero) == 0.0)
    assert np.all(load_boundary(g, zero) == 0.0)
    one = np.ones(g.n_nodes, dtype=complex)
    assert load_volume(g, one).sum() == pytest.approx(1.0, abs=1e-13)
    assert load_boundary(g, one).sum() == pytest.approx(4.0, abs=1e-13)


def test_bump_load_support():
    from cemhelm.reference import bump_source

    g = build_fine_grid(40, 40)
    b = load_volume(g, bump_source(g))
    radius = np.hypot(g.node_coords[:, 0], g.node_coords[:, 1])
    # mass matrix spreads support by at most one cell layer
    assert np.abs(b[radius > 0.05 + 2.0 * g.h]).max() == 0.0
    assert np.abs(b).max() > 0.0


def test_boundary_load_sparsity():
    from cemhelm.reference import robin_data_plane_wave

    g = build_fine_grid(10, 10)
    b = load_boundary(g, robin_data_plane_wave(g, 4.0))
    interior = ~g.boundary_mask
    # interior nodes adjacent to the boundary pick up mass, two layers in do not
    xy = g.node_coords
    deep = interior & (xy[:, 0] > 2 * g.h) & (xy[:, 0] < 1 - 2 * g.h)
    deep &= (xy[:, 1] > 2 * g.h) & (xy[:, 1] < 1 - 2 * g.h)
    assert np.abs(b[deep]).max() == 0.0
    assert np.abs(b[g.boundary_mask]).min() > 0.0


def test_restrict_single_element_stiffness():
    # index bookkeeping oracle: 2-cell-per-element grid, m=0 patch of K
    g = build_fine_grid(4, 4)
    med = constant_medium(4, 4, 1.0)
    c = build_coarse_grid(g, 2)
    patch = oversample(c, 0, 0)
    K = assemble_stiffness(g, med)
    idx = patch.free_nodes(strict_zero_trace=True)
    # element 0 spans nodes (0..2) x (0..2); only node (1,1) is interior
    assert np.array_equal(idx, [oracles.node_index(g, 1, 1)])
    Kr = K[idx][:, idx].toarray()
    assert Kr.shape == (1, 1)
    assert Kr[0, 0] == pytest.approx(8.0 / 3.0)  # 4 cells x diagonal entry 2/3


def test_build_forms_bundle():
    g = build_fine_grid(8, 8)
    c = build_coarse_grid(g, 4)
    med = constant_medium(8, 8, 1.0)
    forms = build_forms(g, c, med, 2.0)
    assert forms.B.shape == (g.n_nodes, g.n_nodes)
    assert oracles.assemble_weighted_mass(g, forms.weights).shape == (g.n_nodes, g.n_nodes)
    assert forms.k == 2.0
    assert np.allclose(forms.weights.values, 24.0 * 16.0)


def test_element_loads_partition_exactly():
    from cemhelm.assembly import element_loads
    from cemhelm.reference import robin_data_plane_wave

    g = build_fine_grid(12, 12)
    c = build_coarse_grid(g, 3)
    rng = np.random.default_rng(9)
    f = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    gd = robin_data_plane_wave(g, 3.0)
    blocks = element_loads(g, c, f, gd)
    total = np.zeros(g.n_nodes, dtype=complex)
    for j in range(c.n_elements):
        total[c.element_nodes[j]] += blocks[j]
    expected = load_volume(g, f) + load_boundary(g, gd)
    assert np.abs(total - expected).max() <= 1e-14 * np.abs(expected).max()


def test_element_loads_reject_data_of_another_grid():
    from cemhelm.assembly import element_loads

    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    n32 = build_fine_grid(32, 32).n_nodes
    ok = np.zeros(g.n_nodes)
    for f, gd in ((np.ones(n32), ok), (ok, np.ones(n32)), (np.ones(g.n_nodes - 1), ok),
                  (ok, np.ones(10))):
        with pytest.raises(DimensionMismatch):
            element_loads(g, c, f, gd)


def test_element_loads_interior_blocks_have_no_boundary_part():
    from cemhelm.assembly import element_loads

    g = build_fine_grid(12, 12)
    c = build_coarse_grid(g, 3)
    gd = np.ones(g.n_nodes, dtype=complex)
    blocks = element_loads(g, c, np.zeros(g.n_nodes), gd)
    center = oracles.element_index(c, 1, 1)
    assert np.abs(blocks[center]).max() == 0.0
    corner = oracles.element_index(c, 0, 0)
    assert np.abs(blocks[corner]).max() > 0.0


def test_element_loads_match_per_element_assembly():
    # oracle per element: the mass of its cells and the boundary mass of the
    # outer edges it owns, sliced to its nodes (element_loads takes no medium)
    from cemhelm.assembly import element_loads
    from cemhelm.reference import robin_data_plane_wave

    g = build_fine_grid(12, 12)
    c = build_coarse_grid(g, 3)
    rng = np.random.default_rng(5)
    f = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    gd = robin_data_plane_wave(g, 3.0)
    blocks = element_loads(g, c, f, gd)
    assert blocks.shape == c.element_nodes.shape
    for j in range(c.n_elements):
        nodes, cells = c.element_nodes[j], c.element_cells[j]
        expected = (oracles.assemble_weighted_mass(g, np.ones(g.n_cells), cells) @ f)[nodes]
        if c.touches_boundary[j]:
            expected += oracles.assemble_boundary_mass(g, cells=cells, nodes=nodes) @ gd[nodes]
        assert np.abs(blocks[j] - expected).max() <= 1e-14 * np.abs(expected).max()
