"""Q1 discrete operators on the fine grid.

All element integrals are closed-form (the coefficient is constant per fine
cell), so assembly carries no quadrature error.  The discrete Helmholtz
operator is B(k) = K - i*k*Mb - k^2*M with K the coefficient-weighted
stiffness, M the mass and Mb the boundary mass on the whole outer boundary.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .medium import stilde_weights

__all__ = [
    "element_matrices",
    "element_boundary_matrix",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "assemble_boundary_mass",
    "assemble_B",
    "load_volume",
    "load_boundary",
    "element_stencil",
    "element_triplets",
    "element_blocks",
    "DiscreteForms",
    "build_forms",
]

# integer stencils of the bilinear element on a rectangle, CCW node order
_KXX = np.array(
    [[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]], dtype=float
)
_KYY = np.array(
    [[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]], dtype=float
)
_MASS = np.array(
    [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
)


def _rect_element(hx, hy):
    Ke = (hy / hx) / 6.0 * _KXX + (hx / hy) / 6.0 * _KYY
    Me = hx * hy / 36.0 * _MASS
    return Ke, Me


def element_matrices(h, a_cell):
    """Stiffness and mass of one h-by-h cell with constant coefficient."""
    if h <= 0.0 or a_cell <= 0.0:
        raise ValueError("cell size and coefficient must be positive")
    Ke, Me = _rect_element(h, h)
    return a_cell * Ke, Me


def element_boundary_matrix(h):
    """Mass of a boundary edge of length h (two-node line element)."""
    return h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def _scatter(grid, local, coeff, cells):
    conn = grid.cell_nodes if cells is None else grid.cell_nodes[cells]
    c = np.ones(conn.shape[0]) if coeff is None else np.asarray(coeff, dtype=float)
    if cells is not None and c.shape[0] == grid.n_cells:
        c = c[cells]
    vals = c[:, None, None] * local[None, :, :]
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    A = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
    return A.tocsr()


def assemble_stiffness(grid, medium, cells=None):
    """K = sum over (selected) cells of A_cell * Ke; symmetric, PSD."""
    a = np.asarray(getattr(medium, "values", medium), dtype=float)
    Ke, _ = _rect_element(grid.hx, grid.hy)
    return _scatter(grid, Ke, a, cells)


def assemble_weighted_mass(grid, weights, cells=None):
    w = np.asarray(getattr(weights, "values", weights), dtype=float)
    _, Me = _rect_element(grid.hx, grid.hy)
    return _scatter(grid, Me, w, cells)


def assemble_mass(grid, cells=None):
    _, Me = _rect_element(grid.hx, grid.hy)
    return _scatter(grid, Me, None, cells)


def assemble_boundary_mass(grid, coeff=None, cells=None, nodes=None):
    """Line-element mass on the four outer edges; zero rows at interior nodes.

    With `coeff` (per fine cell) each edge is weighted by the value of the
    cell it borders, mirroring how the volume forms carry the coefficient.
    `cells` keeps only the edges owned by those cells (edge ownership
    follows the adjacent cell), so the parts kept for the cells of each
    coarse element add up to the full matrix; `nodes` renumbers onto a
    sorted node subset that holds every node of the kept edges.
    """
    nx, ny = grid.nx, grid.ny
    w = nx + 1
    c = None if coeff is None else np.asarray(getattr(coeff, "values", coeff), dtype=float)
    bottom = (np.arange(nx), np.arange(nx))  # (edge start node, owning cell)
    top = (ny * w + np.arange(nx), (ny - 1) * nx + np.arange(nx))
    left = (np.arange(ny) * w, np.arange(ny) * nx)
    right = (np.arange(ny) * w + nx, np.arange(ny) * nx + nx - 1)

    rows, cols, vals = [], [], []
    for (starts, owners), step, h in (
        (bottom, 1, grid.hx),
        (top, 1, grid.hx),
        (left, w, grid.hy),
        (right, w, grid.hy),
    ):
        if cells is not None:
            keep = np.isin(owners, cells)
            starts, owners = starts[keep], owners[keep]
        n0, n1 = starts, starts + step
        local = element_boundary_matrix(h)
        weight = np.ones(starts.shape) if c is None else c[owners]
        for a, b, v in (
            (n0, n0, local[0, 0]),
            (n0, n1, local[0, 1]),
            (n1, n0, local[1, 0]),
            (n1, n1, local[1, 1]),
        ):
            rows.append(a)
            cols.append(b)
            vals.append(weight * v)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    if nodes is None:
        size = grid.n_nodes
    else:
        rows = np.searchsorted(nodes, rows)
        cols = np.searchsorted(nodes, cols)
        size = len(nodes)
    A = sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=(size, size))
    return A.tocsr()


def assemble_B(grid, medium, k, K=None, M=None, Mb=None):
    """Discrete Helmholtz operator B(k) = K - i*k*Mb - k^2*M (complex symmetric)."""
    if k < 0.0:
        raise ValueError("wavenumber must be >= 0")
    K = assemble_stiffness(grid, medium) if K is None else K
    M = assemble_mass(grid) if M is None else M
    Mb = assemble_boundary_mass(grid) if Mb is None else Mb
    return (K.astype(complex) - 1j * k * Mb - (k * k) * M).tocsr()


def load_volume(grid, f_nodal):
    """Load vector of a source given by its nodal interpolant: b = M f."""
    M = assemble_mass(grid)
    return M @ np.asarray(f_nodal)


def load_boundary(grid, g_nodal):
    """Load vector of Robin data (extension by zero off the boundary): b = Mb g."""
    Mb = assemble_boundary_mass(grid)
    return Mb @ np.asarray(g_nodal)


def element_stencil(grid, coarse):
    """(r^2, 4) cell -> node connectivity of a coarse element in the node
    numbering of `coarse.element_nodes`; every element shares it."""
    return np.searchsorted(coarse.element_nodes[0], grid.cell_nodes[coarse.element_cells[0]])


def element_triplets(stencil, local, cell_coeffs):
    """COO triplets of the forms  sum over element e's cells of coeff * local.

    `cell_coeffs[e]` holds the coefficients of element e's cells, e.g.
    `medium.values[coarse.element_cells]`.  Node a of element e is the broken
    row e*p + a: the triplets make the block-diagonal matrix of the forms.
    """
    p = stencil.max() + 1
    offsets = p * np.arange(cell_coeffs.shape[0])[:, None, None, None]
    rows, cols = np.broadcast_arrays(
        offsets + stencil[None, :, :, None], offsets + stencil[None, :, None, :]
    )
    vals = cell_coeffs[:, :, None, None] * local
    return rows.ravel(), cols.ravel(), vals.ravel()


def element_blocks(rows, cols, vals, n, p):
    """(n, p, p) C-contiguous stack of the diagonal blocks of broken-numbering triplets."""
    flat = rows * p + cols % p
    return np.bincount(flat, weights=vals, minlength=n * p * p).reshape(n, p, p)


def element_loads(grid, coarse, f_nodal, g_nodal):
    """Per-coarse-element split of the load vector M f + Mb g, shape (N, p).

    Block j integrates the data over element j's cells and its share of the
    outer boundary (edge ownership follows the adjacent cell), so the
    blocks scatter-add back to the full load vector exactly.  All elements
    share one (p, p) mass M_loc, so the volume parts are the one product
    f[element_nodes] @ M_loc; boundary elements add their edges' part.
    """
    f_nodal = np.asarray(f_nodal)
    g_nodal = np.asarray(g_nodal)
    p = coarse.element_nodes.shape[1]
    dtype = np.result_type(f_nodal.dtype, g_nodal.dtype, float)
    stencil = element_stencil(grid, coarse)
    _, Me = _rect_element(grid.hx, grid.hy)
    M_loc = element_blocks(*element_triplets(stencil, Me, np.ones((1, len(stencil)))), 1, p)[0]
    blocks = f_nodal[coarse.element_nodes].astype(dtype, copy=False) @ M_loc
    for j in np.flatnonzero(coarse.touches_boundary):
        nodes = coarse.element_nodes[j]
        Mbj = assemble_boundary_mass(grid, cells=coarse.element_cells[j], nodes=nodes)
        blocks[j] += Mbj @ g_nodal[nodes]
    return blocks


@dataclass
class DiscreteForms:
    """All discrete operators of one problem configuration."""

    grid: object
    coarse: object
    medium: object
    weights: object
    k: float
    K: sp.csr_matrix
    M: sp.csr_matrix
    S: sp.csr_matrix
    Mb: sp.csr_matrix
    B: sp.csr_matrix


def build_forms(grid, coarse, medium, k, stilde_rule="simplified"):
    weights = stilde_weights(medium, coarse, rule=stilde_rule)
    K = assemble_stiffness(grid, medium)
    M = assemble_mass(grid)
    S = assemble_weighted_mass(grid, weights)
    Mb = assemble_boundary_mass(grid)
    B = assemble_B(grid, medium, k, K=K, M=M, Mb=Mb)
    return DiscreteForms(grid, coarse, medium, weights, float(k), K, M, S, Mb, B)
