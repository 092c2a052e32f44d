"""Two-scale quadrilateral meshes on the unit square.

Node numbering is lexicographic (x fastest, y slowest, origin bottom-left);
cell -> node connectivity runs counterclockwise from the bottom-left corner.
Coarse elements are indexed the same way on the NH x NH block grid, and
oversampled patches are computed by block arithmetic on (I, J) indices.
"""

import numpy as np

from .errors import IndivisibleMesh, InvalidElement

__all__ = ["FineGrid", "CoarseGrid", "Patch", "build_fine_grid", "build_coarse_grid", "oversample"]


class FineGrid:
    def __init__(self, nx, ny):
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = 1.0 / self.nx
        self.hy = 1.0 / self.ny
        self.n_nodes = (self.nx + 1) * (self.ny + 1)
        self.n_cells = self.nx * self.ny

        ii, jj = np.meshgrid(np.arange(self.nx + 1), np.arange(self.ny + 1))
        self.node_coords = np.column_stack([ii.ravel() * self.hx, jj.ravel() * self.hy])

        ci, cj = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        ci = ci.ravel()
        cj = cj.ravel()
        bl = cj * (self.nx + 1) + ci
        self.cell_nodes = np.column_stack(
            [bl, bl + 1, bl + self.nx + 2, bl + self.nx + 1]
        ).astype(np.int64)

        onb = (
            (ii == 0) | (ii == self.nx) | (jj == 0) | (jj == self.ny)
        ).ravel()
        self.boundary_mask = onb
        self.boundary_nodes = np.flatnonzero(onb)

    @property
    def h(self):
        return self.hx


def build_fine_grid(nx, ny):
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one cell per direction")
    return FineGrid(nx, ny)


class CoarseGrid:
    def __init__(self, fine, NH):
        self.fine = fine
        self.NH = int(NH)
        self.H = 1.0 / self.NH
        self.ratio = fine.nx // self.NH  # fine cells per coarse cell and direction
        self.n_elements = self.NH * self.NH

        r = self.ratio
        nx = fine.nx
        # fine cells of element (I, J): i in [I*r, (I+1)*r), j likewise
        cell_block = (np.arange(r)[:, None] * nx + np.arange(r)[None, :]).ravel()
        I, J = np.meshgrid(np.arange(self.NH), np.arange(self.NH))
        origins = (J.ravel() * r * nx + I.ravel() * r)
        self.element_cells = origins[:, None] + cell_block[None, :]

        ni = np.arange(r + 1)
        node_block = (ni[:, None] * (nx + 1) + ni[None, :]).ravel()
        node_origins = (J.ravel() * r * (nx + 1) + I.ravel() * r)
        self.element_nodes = node_origins[:, None] + node_block[None, :]

        self.touches_boundary = (
            (I.ravel() == 0) | (I.ravel() == self.NH - 1)
            | (J.ravel() == 0) | (J.ravel() == self.NH - 1)
        )

    def element_ij(self, j):
        if j < 0 or j >= self.n_elements:
            raise InvalidElement(f"element {j} out of range [0, {self.n_elements})")
        return j % self.NH, j // self.NH


def build_coarse_grid(fine, NH):
    if fine.nx % NH != 0 or fine.ny % NH != 0:
        raise IndivisibleMesh(f"{fine.nx}x{fine.ny} fine cells do not divide into {NH}x{NH} blocks")
    if fine.nx // NH != fine.ny // NH:
        raise IndivisibleMesh("coarse blocks must be square")
    return CoarseGrid(fine, NH)


class Patch:
    """Oversampled block of coarse elements around a center element.

    `free_nodes(strict_zero_trace)` lists the unconstrained fine nodes: the
    default drops only nodes on the patch boundary away from the domain
    boundary, so a patch that fills the domain keeps every node (and its
    Robin rows); strict mode constrains the whole patch boundary.
    """

    def __init__(self, coarse, center, m, I_lo, I_hi, J_lo, J_hi):
        self.coarse = coarse
        self.center = center
        self.m = m
        self.I_range = (I_lo, I_hi)
        self.J_range = (J_lo, J_hi)

        NH = coarse.NH
        self.elements = (
            np.arange(J_lo, J_hi + 1)[:, None] * NH + np.arange(I_lo, I_hi + 1)[None, :]
        ).ravel().astype(np.int64)

        r = coarse.ratio
        fine = coarse.fine
        ni = np.arange(I_lo * r, (I_hi + 1) * r + 1)
        nj = np.arange(J_lo * r, (J_hi + 1) * r + 1)
        self.nodes = (nj[:, None] * (fine.nx + 1) + ni[None, :]).ravel().astype(np.int64)

        rim = np.zeros((nj.size, ni.size), dtype=bool)
        rim[[0, -1], :] = True
        rim[:, [0, -1]] = True
        self.on_patch_boundary = rim.ravel()
        self.on_domain_boundary = (
            ((nj == 0) | (nj == fine.ny))[:, None] | ((ni == 0) | (ni == fine.nx))[None, :]
        ).ravel()

    def free_nodes(self, strict_zero_trace=False):
        if strict_zero_trace:
            constrained = self.on_patch_boundary
        else:
            constrained = self.on_patch_boundary & ~self.on_domain_boundary
        return self.nodes[~constrained]


def oversample(coarse, j, m):
    """Patch of all coarse elements within m layers of element j (clipped)."""
    if m < 0:
        raise InvalidElement(f"oversampling layers must be >= 0, got {m}")
    I, J = coarse.element_ij(j)
    NH = coarse.NH
    return Patch(
        coarse,
        j,
        m,
        max(I - m, 0),
        min(I + m, NH - 1),
        max(J - m, 0),
        min(J + m, NH - 1),
    )
