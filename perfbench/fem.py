"""Independent Q1 discretization of the Helmholtz impedance problem.

    -div(A grad u) - k^2 u = f  in (0, 1)^2,   A grad(u).n - i k u = g  on the boundary,

on an nx-by-nx grid of square cells with A constant per cell.  Nodes are
numbered lexicographically (x fastest), cells likewise, the layout the
solver under test uses, so vectors can be compared entry by entry.

The element matrices are built as tensor products of the 1D linear-element
stiffness and mass, not from the solver's 2D stencils, and nothing here
imports the solver, so a fault in its assembly cannot cancel out of the
benchmark's correctness checks.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SIDES = ("left", "right", "bottom", "top")
NORMALS = {"left": (-1.0, 0.0), "right": (1.0, 0.0), "bottom": (0.0, -1.0), "top": (0.0, 1.0)}


def _line_matrices(h):
    """Stiffness and mass of the 1D linear element of length h."""
    k1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m1 = np.array([[2.0, 1.0], [1.0, 2.0]]) * (h / 6.0)
    return k1, m1


def node_coords(nx):
    t = np.arange(nx + 1) / nx
    X, Y = np.meshgrid(t, t)
    return np.column_stack([X.ravel(), Y.ravel()])


def _cell_nodes(nx):
    """Nodes of every cell in tensor order (x index fastest): (0,0),(1,0),(0,1),(1,1)."""
    ci, cj = np.meshgrid(np.arange(nx), np.arange(nx))
    bl = (cj * (nx + 1) + ci).ravel()
    return np.column_stack([bl, bl + 1, bl + nx + 1, bl + nx + 2])


def _scatter(conn, local, weights, size):
    vals = weights[:, None, None] * local[None, :, :]
    p = conn.shape[1]
    rows = np.repeat(conn, p, axis=1).ravel()
    cols = np.tile(conn, (1, p)).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(size, size)).tocsr()


def side_nodes(nx, side):
    """Nodes along one side of the square, in increasing coordinate order."""
    t = np.arange(nx + 1)
    return {
        "left": t * (nx + 1),
        "right": t * (nx + 1) + nx,
        "bottom": t,
        "top": nx * (nx + 1) + t,
    }[side]


def side_mass(nx, side):
    """Boundary mass of one side (line elements between consecutive side nodes)."""
    _, m1 = _line_matrices(1.0 / nx)
    nodes = side_nodes(nx, side)
    conn = np.column_stack([nodes[:-1], nodes[1:]])
    return _scatter(conn, m1, np.ones(nx), (nx + 1) ** 2)


class Helmholtz:
    """K, M, Mb and B = K - i k Mb - k^2 M for a per-cell coefficient."""

    def __init__(self, nx, a_cells, k):
        a_cells = np.asarray(a_cells, dtype=float).ravel()
        if a_cells.size != nx * nx:
            raise ValueError(f"{a_cells.size} coefficient values for {nx}x{nx} cells")
        self.nx = nx
        self.k = float(k)
        n = (nx + 1) ** 2
        k1, m1 = _line_matrices(1.0 / nx)
        conn = _cell_nodes(nx)
        self.K = _scatter(conn, np.kron(m1, k1) + np.kron(k1, m1), a_cells, n)
        self.M = _scatter(conn, np.kron(m1, m1), np.ones(nx * nx), n)
        self.Mb = sum(side_mass(nx, s) for s in SIDES).tocsr()
        self.B = (self.K.astype(complex) - 1j * self.k * self.Mb - self.k**2 * self.M).tocsr()

    def load(self, f_nodal, g_nodal):
        """M f + Mb g for nodal data (g read at the boundary nodes)."""
        return self.M @ np.asarray(f_nodal) + self.Mb @ np.asarray(g_nodal)

    def solve(self, rhs):
        return spla.spsolve(self.B.tocsc(), np.asarray(rhs, dtype=complex))

    def relative_errors(self, u_ref, u):
        """Relative errors of u against u_ref in the L2 and the A-weighted energy norm."""
        d = np.asarray(u) - np.asarray(u_ref)

        def norm(W, v):
            return np.sqrt(max(float(np.real(np.vdot(v, W @ v))), 0.0))

        return norm(self.M, d) / norm(self.M, u_ref), norm(self.K, d) / norm(self.K, u_ref)


def plane_wave(xy, k, theta):
    """exp(i k d.x) with d = (cos theta, sin theta), at the points xy."""
    return np.exp(1j * k * (np.cos(theta) * xy[:, 0] + np.sin(theta) * xy[:, 1]))


def plane_wave_impedance(xy, k, theta, side):
    """Impedance data of the plane wave (A = 1) on one side: i k (d.n - 1) u."""
    nx_, ny_ = NORMALS[side]
    dn = np.cos(theta) * nx_ + np.sin(theta) * ny_
    return 1j * k * (dn - 1.0) * plane_wave(xy, k, theta)


def plane_wave_nodal_g(nx, k, theta):
    """Nodal impedance data of the plane wave.

    A corner node lies on two sides with different normals; it takes the
    value of the first of its sides in the order left, right, bottom, top.
    """
    xy = node_coords(nx)
    g = np.zeros(xy.shape[0], dtype=complex)
    for side in reversed(SIDES):  # later writes win
        nodes = side_nodes(nx, side)
        g[nodes] = plane_wave_impedance(xy[nodes], k, theta, side)
    return g


def plane_wave_edge_load(nx, k, theta):
    """Boundary load of the plane wave with each side's own normal.

    Unlike Mb @ plane_wave_nodal_g, corners carry no one-sided value, so the
    load is consistent to second order; used by the convergence test.
    """
    xy = node_coords(nx)
    out = np.zeros(xy.shape[0], dtype=complex)
    for side in SIDES:
        g = np.zeros(xy.shape[0], dtype=complex)
        nodes = side_nodes(nx, side)
        g[nodes] = plane_wave_impedance(xy[nodes], k, theta, side)
        out += side_mass(nx, side) @ g
    return out
