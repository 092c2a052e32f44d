"""Q1 discrete operators on the fine grid.

All element integrals are closed-form (the coefficient is constant per fine
cell), so assembly carries no quadrature error.  The discrete Helmholtz
operator is B(k) = K - i*k*Mb - k^2*M with K the coefficient-weighted
stiffness, M the mass and Mb the boundary mass on the whole outer boundary.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .medium import stilde_weights

__all__ = [
    "element_matrices",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_boundary_mass",
    "assemble_B",
    "load_volume",
    "load_boundary",
    "element_stencil",
    "element_triplets",
    "element_blocks",
    "element_boundary_triplets",
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


def _scatter(grid, local, coeff):
    c = np.ones(grid.n_cells) if coeff is None else np.asarray(coeff, dtype=float)
    rows, cols, vals = element_triplets(grid.cell_nodes, local, c[None, :])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
    return A.tocsr()


def assemble_stiffness(grid, medium):
    """K = sum over cells of A_cell * Ke; symmetric, PSD."""
    a = np.asarray(getattr(medium, "values", medium), dtype=float)
    Ke, _ = _rect_element(grid.hx, grid.hy)
    return _scatter(grid, Ke, a)


def assemble_mass(grid):
    _, Me = _rect_element(grid.hx, grid.hy)
    return _scatter(grid, Me, None)


def assemble_boundary_mass(grid):
    """Line-element mass on the four outer edges; zero rows at interior nodes."""
    n0, n1, _, h = _outer_edges(grid)
    rows, cols, vals = _edge_triplets(n0, n1, h)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
    return A.tocsr()


def _outer_edges(grid):
    """Start node, end node, owning cell and length of every outer edge
    (bottom, top, left, right; an edge belongs to the cell it borders)."""
    nx, ny = grid.nx, grid.ny
    w = nx + 1
    i, j = np.arange(nx), np.arange(ny)
    starts = np.concatenate([i, ny * w + i, j * w, j * w + nx])
    owners = np.concatenate([i, (ny - 1) * nx + i, j * nx, j * nx + nx - 1])
    counts = [nx, nx, ny, ny]
    step = np.repeat([1, 1, w, w], counts)
    h = np.repeat([grid.hx, grid.hx, grid.hy, grid.hy], counts)
    return starts, starts + step, owners, h


def _edge_triplets(n0, n1, h, weight=None):
    """COO triplets of the line-element masses (times `weight`) of edges n0 -> n1."""
    d, o = h / 6.0 * 2.0, h / 6.0 * 1.0  # the edge's line-element mass h/6 [[2, 1], [1, 2]]
    if weight is not None:
        d, o = weight * d, weight * o
    rows = np.concatenate([n0, n0, n1, n1])
    cols = np.concatenate([n0, n1, n0, n1])
    return rows, cols, np.concatenate([d, o, o, d])


def element_boundary_triplets(grid, coarse, coeff=None):
    """COO triplets, in broken numbering, of every coarse element's boundary mass.

    Element e keeps the outer edges owned by its cells (an edge belongs to
    the cell it borders, see `_outer_edges`), so the elements' parts add up
    to `assemble_boundary_mass`; each edge is weighted by `coeff` of its
    cell when given.  Node a of element e is the broken row e*p + a.
    """
    n0, n1, owners, h = _outer_edges(grid)
    c = None if coeff is None else np.asarray(getattr(coeff, "values", coeff), dtype=float)
    r, w = coarse.ratio, grid.nx + 1
    I, J = (owners % grid.nx) // r, (owners // grid.nx) // r
    base = (J * coarse.NH + I) * (r + 1) ** 2

    def broken(node):
        return base + (node // w - J * r) * (r + 1) + node % w - I * r

    return _edge_triplets(broken(n0), broken(n1), h, None if c is None else c[owners])


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


def _triplets_of(elements, p, rows, cols, vals):
    """The broken-numbering triplets of `elements` (ascending), in their
    order, with element elements[i] renumbered as element i."""
    owner = rows // p
    keep = np.isin(owner, elements)
    return np.searchsorted(elements, owner[keep]) * p + rows[keep] % p, cols[keep], vals[keep]


_CHUNK_BYTES = 2 << 20  # bytes of one (chunk, p, p) float64 stack, see `_element_chunks`


def _element_chunks(n, p):
    """Consecutive ranges of elements 0 ... n - 1, each of as many elements
    (one at least) as a (chunk, p, p) float64 stack within _CHUNK_BYTES."""
    size = max(1, _CHUNK_BYTES // (8 * p * p))
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def element_loads(grid, coarse, f_nodal, g_nodal):
    """Per-coarse-element split of the load vector M f + Mb g, shape (N, p).

    Block j integrates the data over element j's cells and its share of the
    outer boundary (edge ownership follows the adjacent cell), so the
    blocks scatter-add back to the full load vector exactly.  All elements
    share one (p, p) mass M_loc, so the volume parts are the one product
    f[element_nodes] @ M_loc; the boundary parts of all elements are one
    product with the broken boundary mass of `element_boundary_triplets`.
    Data without one entry per fine node raises DimensionMismatch.
    """
    f_nodal = np.asarray(f_nodal)
    g_nodal = np.asarray(g_nodal)
    for name, data in (("f", f_nodal), ("g", g_nodal)):
        if data.shape != (grid.n_nodes,):
            raise DimensionMismatch(f"{name} of shape {data.shape} against {grid.n_nodes} nodes")
    p = coarse.element_nodes.shape[1]
    dtype = np.result_type(f_nodal.dtype, g_nodal.dtype, float)
    stencil = element_stencil(grid, coarse)
    _, Me = _rect_element(grid.hx, grid.hy)
    M_loc = element_blocks(*element_triplets(stencil, Me, np.ones((1, len(stencil)))), 1, p)[0]
    blocks = f_nodal[coarse.element_nodes].astype(dtype, copy=False) @ M_loc
    rows, cols, vals = element_boundary_triplets(grid, coarse)
    Mb = sp.csr_matrix((vals, (rows, cols)), shape=(blocks.size, blocks.size))
    blocks += (Mb @ g_nodal[coarse.element_nodes].ravel()).reshape(blocks.shape)
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
    Mb: sp.csr_matrix
    B: sp.csr_matrix


def build_forms(grid, coarse, medium, k, stilde_rule="simplified"):
    weights = stilde_weights(medium, coarse, rule=stilde_rule)
    K = assemble_stiffness(grid, medium)
    M = assemble_mass(grid)
    Mb = assemble_boundary_mass(grid)
    B = assemble_B(grid, medium, k, K=K, M=M, Mb=Mb)
    return DiscreteForms(grid, coarse, medium, weights, float(k), K, M, Mb, B)
