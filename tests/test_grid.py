import numpy as np
import pytest

from cemhelm.errors import IndivisibleMesh, InvalidElement
from cemhelm.grid import build_coarse_grid, build_fine_grid, oversample

import oracles


def test_single_cell_grid():
    g = build_fine_grid(1, 1)
    assert g.n_nodes == 4
    assert g.n_cells == 1
    assert np.array_equal(g.cell_nodes[0], [0, 1, 3, 2])


def test_benchmark_fine_grid():
    g = build_fine_grid(200, 200)
    assert g.n_nodes == 40401
    assert g.n_cells == 40000
    assert g.h == pytest.approx(0.005)


def test_numbering_rule_2x2():
    # lexicographic nodes, CCW cell connectivity from bottom-left
    g = build_fine_grid(2, 2)
    assert np.array_equal(g.cell_nodes[0], [0, 1, 4, 3])
    assert np.array_equal(g.cell_nodes[3], [4, 5, 8, 7])
    assert np.allclose(g.node_coords[4], [0.5, 0.5])


def test_boundary_mask():
    g = build_fine_grid(3, 3)
    inner = [oracles.node_index(g, 1, 1), oracles.node_index(g, 2, 2), oracles.node_index(g, 1, 2)]
    assert not g.boundary_mask[inner].any()
    assert g.boundary_mask.sum() == 4 * 3  # perimeter nodes


def test_coarse_blocks_20x20():
    g = build_fine_grid(200, 200)
    c = build_coarse_grid(g, 10)
    assert c.n_elements == 100
    assert c.element_cells.shape == (100, 400)  # 20x20 fine cells each
    assert c.element_nodes.shape == (100, 441)


def test_coarse_blocks_5x5():
    g = build_fine_grid(200, 200)
    c = build_coarse_grid(g, 40)
    assert c.element_cells.shape == (1600, 25)


def test_coarse_equals_fine_scale():
    g = build_fine_grid(8, 8)
    c = build_coarse_grid(g, 8)
    assert c.ratio == 1
    assert np.array_equal(np.sort(c.element_cells.ravel()), np.arange(64))


def test_elements_partition_cells():
    g = build_fine_grid(24, 24)
    c = build_coarse_grid(g, 6)
    seen = np.sort(c.element_cells.ravel())
    assert np.array_equal(seen, np.arange(g.n_cells))


def test_element_cell_block_contents():
    g = build_fine_grid(4, 4)
    c = build_coarse_grid(g, 2)
    # element (1, 0): fine cells i in {2,3}, j in {0,1}
    j = oracles.element_index(c, 1, 0)
    assert np.array_equal(np.sort(c.element_cells[j]), [2, 3, 6, 7])


def test_indivisible_mesh():
    g = build_fine_grid(200, 200)
    with pytest.raises(IndivisibleMesh):
        build_coarse_grid(g, 7)


def test_patch_m0_is_element():
    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    p = oversample(c, 5, 0)
    assert np.array_equal(p.elements, [5])


def test_patch_interior_m1_has_9_elements():
    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    center = oracles.element_index(c, 1, 1)
    p = oversample(c, center, 1)
    assert p.elements.size == 9


def test_patch_corner_m1_has_4_elements():
    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    p = oversample(c, 0, 1)
    assert p.elements.size == 4


def test_patch_nestedness_and_coverage():
    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    for j in range(c.n_elements):
        prev = set()
        for m in range(4):
            nodes = set(oversample(c, j, m).nodes.tolist())
            assert prev <= nodes
            prev = nodes
    covered = np.zeros(g.n_nodes, dtype=bool)
    for j in range(c.n_elements):
        covered[oversample(c, j, 0).nodes] = True
    assert covered.all()


def test_patch_free_nodes_conventions():
    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    # corner patch touching the domain boundary keeps boundary nodes by default
    p = oversample(c, 0, 1)
    free = p.free_nodes()
    strict = p.free_nodes(strict_zero_trace=True)
    assert strict.size < free.size
    assert not np.isin(strict, g.boundary_nodes).any()
    on_domain = np.isin(free, g.boundary_nodes)
    assert on_domain.any()
    # interior nodes of the patch are always free
    inner = p.nodes[~p.on_patch_boundary]
    assert np.isin(inner, free).all()
    assert np.isin(inner, strict).all()


def test_full_domain_patch_keeps_all_nodes():
    g = build_fine_grid(16, 16)
    c = build_coarse_grid(g, 4)
    p = oversample(c, 5, 4)
    assert oracles.covers_domain(p)
    assert p.free_nodes().size == g.n_nodes


def test_invalid_element():
    g = build_fine_grid(8, 8)
    c = build_coarse_grid(g, 2)
    with pytest.raises(InvalidElement):
        oversample(c, 99, 1)
    with pytest.raises(InvalidElement):
        oversample(c, 0, -1)


def _meshgrid_patch(coarse, I_lo, I_hi, J_lo, J_hi):
    # reference construction: index grids of elements and nodes
    r, fine = coarse.ratio, coarse.fine
    I, J = np.meshgrid(np.arange(I_lo, I_hi + 1), np.arange(J_lo, J_hi + 1))
    elements = J.ravel() * coarse.NH + I.ravel()
    ni = np.arange(I_lo * r, (I_hi + 1) * r + 1)
    nj = np.arange(J_lo * r, (J_hi + 1) * r + 1)
    NI, NJ = np.meshgrid(ni, nj)
    nodes = NJ.ravel() * (fine.nx + 1) + NI.ravel()
    on_patch = ((NI == ni[0]) | (NI == ni[-1]) | (NJ == nj[0]) | (NJ == nj[-1])).ravel()
    on_domain = ((NI == 0) | (NI == fine.nx) | (NJ == 0) | (NJ == fine.ny)).ravel()
    return elements, nodes, on_patch, on_domain


@pytest.mark.parametrize("nx, NH, m", [(12, 1, 0), (12, 3, 1), (16, 4, 2), (20, 5, 1), (24, 6, 3)])
def test_patch_fields_match_meshgrid_construction(nx, NH, m):
    c = build_coarse_grid(build_fine_grid(nx, nx), NH)
    for j in range(c.n_elements):
        p = oversample(c, j, m)
        ref = _meshgrid_patch(c, *p.I_range, *p.J_range)
        for got, want in zip(
            (p.elements, p.nodes, p.on_patch_boundary, p.on_domain_boundary), ref
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for strict in (False, True):
            constrained = ref[2] if strict else ref[2] & ~ref[3]
            assert np.array_equal(p.free_nodes(strict), ref[1][~constrained])
