"""Reference computations that the tests check the package against.

They use the package's own building blocks in another way than the solver
does, and no solver path calls them.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from cemhelm import assembly, cem
from cemhelm.errors import DimensionMismatch
from cemhelm.metrics import _quad


def s_norm(u, S):
    """The norm sqrt(u^H S u) of the auxiliary form S."""
    return np.sqrt(max(_quad(S, u), 0.0))


def k_weighted_norm(u, K, M, k):
    """The wavenumber-weighted energy norm sqrt(k^2 |u|_M^2 + |u|_K^2)."""
    return np.sqrt(max(k * k * _quad(M, u) + _quad(K, u), 0.0))


def node_index(grid, i, j):
    """The index of the fine node in column i and row j of `grid`."""
    return j * (grid.nx + 1) + i


def element_index(coarse, I, J):
    """The index of the coarse element in column I and row J of `coarse`."""
    return J * coarse.NH + I


def covers_domain(patch):
    """Whether the elements of `patch` span the whole coarse grid."""
    return patch.I_range == (0, patch.coarse.NH - 1) and patch.J_range == (0, patch.coarse.NH - 1)


def _assemble_cells(grid, local, coeff, cells):
    """The sum over `cells` (all cells if None) of coeff[c] * local on the
    fine grid, coeff an array or an object with `values`."""
    c = np.asarray(getattr(coeff, "values", coeff), dtype=float)
    cells = np.arange(grid.n_cells) if cells is None else np.asarray(cells)
    rows, cols, vals = assembly.element_triplets(grid.cell_nodes[cells], local, c[cells][None, :])
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes)).tocsr()


def assemble_stiffness(grid, medium, cells):
    """The stiffness matrix over only `cells`."""
    Ke, _ = assembly._rect_element(grid.hx, grid.hy)
    return _assemble_cells(grid, Ke, medium, cells)


def assemble_weighted_mass(grid, weights, cells=None):
    """The mass matrix weighted per cell by `weights`, over all cells or
    only `cells`."""
    _, Me = assembly._rect_element(grid.hx, grid.hy)
    return _assemble_cells(grid, Me, weights, cells)


def assemble_boundary_mass(grid, coeff=None, cells=None, nodes=None):
    """The boundary mass, each outer edge weighted by `coeff` of the cell it
    borders when given, over the edges owned by `cells` only when given (an
    edge belongs to the cell it borders), renumbered onto the sorted node
    subset `nodes` (holding every node of the kept edges) when given."""
    n0, n1, owners, h = assembly._outer_edges(grid)
    if cells is not None:
        keep = np.isin(owners, cells)
        n0, n1, owners, h = n0[keep], n1[keep], owners[keep], h[keep]
    c = None if coeff is None else np.asarray(getattr(coeff, "values", coeff), dtype=float)
    rows, cols, vals = assembly._edge_triplets(n0, n1, h, None if c is None else c[owners])
    size = grid.n_nodes
    if nodes is not None:
        rows, cols, size = np.searchsorted(nodes, rows), np.searchsorted(nodes, cols), len(nodes)
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def element_boundary_matrix(h):
    """The mass of one boundary edge of length h (two-node line element),
    from the package's edge triplets."""
    rows, cols, vals = assembly._edge_triplets(np.array([0]), np.array([1]), np.array([h]))
    return sp.coo_matrix((vals, (rows, cols)), shape=(2, 2)).toarray()


def plane_wave(grid, k, direction=(0.6, 0.8)):
    """Nodal interpolant of exp(i*k*d.x) for a unit direction d: the exact
    solution of the homogeneous benchmark's Robin data
    (`reference.robin_data_plane_wave`) with the default d."""
    d = np.asarray(direction, dtype=float)
    if not np.isclose(np.hypot(d[0], d[1]), 1.0):
        raise ValueError(f"direction must be a unit vector, got {tuple(d)}")
    return np.exp(1j * k * (grid.node_coords @ d))


class BrokenField:
    """Element-blockwise function: blocks[j] holds nodal values on element j."""

    def __init__(self, coarse, blocks):
        self.coarse = coarse
        self.blocks = np.asarray(blocks)

    @classmethod
    def from_nodal(cls, coarse, v):
        v = np.asarray(v)
        return cls(coarse, v[coarse.element_nodes])

    @classmethod
    def zero_extension(cls, coarse, j, local_values):
        blocks = np.zeros(coarse.element_nodes.shape, dtype=np.asarray(local_values).dtype)
        blocks[j] = local_values
        return cls(coarse, blocks)


def _blocks_of(P, v):
    if isinstance(v, BrokenField):
        return v.blocks
    return np.asarray(v)[P.coarse.element_nodes]


def pi_coeffs(P, v):
    """`spectral.pi_coeffs` of a nodal vector or a broken field."""
    return (_blocks_of(P, v)[:, None, :] @ P.sphi)[:, 0, :]


def pi_apply(P, v):
    """Projection onto the auxiliary space, returned as a broken field."""
    coeffs = pi_coeffs(P, v)
    field = BrokenField(P.coarse, (P.bases @ coeffs[:, :, None])[:, :, 0])
    field.coeffs = coeffs
    return field


def pi_gram_correction(P):
    """Sparse C with v^T C w = s(pi v, pi w); rank = N*nbf."""
    nodes = P.coarse.element_nodes
    blocks = P.sphi @ P.sphi.transpose(0, 2, 1)  # S_j Phi_j Phi_j^T S_j
    rows = np.broadcast_to(nodes[:, :, None], blocks.shape)
    cols = np.broadcast_to(nodes[:, None, :], blocks.shape)
    n = P.coarse.fine.n_nodes
    return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def pi_rhs(P, j, i):
    """Right-hand side functional of basis problem (j, i): S_j phi_j^i, zero-extended."""
    r = np.zeros(P.coarse.fine.n_nodes)
    r[P.coarse.element_nodes[j]] = P.sphi[j, :, i]
    return r


def broken_s_norm_sq(P, v):
    """Sum of the s_j-norms squared over all elements.

    For a global nodal vector this equals the global s-norm squared; for a
    broken field the blocks are integrated element by element.
    """
    b = _blocks_of(P, v).ravel()
    return float(np.real(np.vdot(b, P.S @ b)))


def patch_layout(cond, coarse, j, m, strict_zero_trace=False):
    """The `cem._Layout` of element j's m-layer patch, from a layout plan of
    its own (`cem._LayoutPlan`), which packs j's class from j's patch."""
    plan = cem._LayoutPlan(coarse, m, strict_zero_trace)
    return plan.layout(tuple(cem._layout_keys(coarse, m)[j].tolist()), cond, j)


def build_global_space(forms, P, loads=None, strict_zero_trace=False):
    """The space of the unlocalized bases (`cem.MultiscaleSpace` with m = -1
    and no layouts): the constrained problem on the domain patch
    `oversample(coarse, 0, NH - 1)`, one factorization for all N*nbf
    right-hand sides, as `cem.build_space` with m = NH - 1.  With `loads`
    (full fine load vector) the global data corrector is solved alongside;
    a vector without one entry per fine node raises DimensionMismatch.  G
    comes from the same element products as in `cem.build_space`, each
    column reaching over the whole domain; the trial space is stored
    condensed, without exceptions."""
    coarse = forms.coarse
    N, n, NH, nbf = coarse.n_elements, forms.grid.n_nodes, coarse.NH, P.nbf
    cond = cem._condense(forms, P)
    sources = [cem._trial_sources(cond, np.arange(N), np.zeros(N, dtype=int))]
    if loads is not None:
        loads = np.asarray(loads)
        if loads.shape != (n,):
            raise DimensionMismatch(f"load vector of shape {loads.shape} against {n} nodes")
        # each node's load shared equally among the elements that hold it
        shares = np.bincount(coarse.element_nodes.ravel(), minlength=n)
        blocks = (loads / shares)[coarse.element_nodes]
        sources.append((np.zeros(N, dtype=int), np.arange(N), np.full(N, N * nbf),
                        *cem._load_sources(forms, P, np.arange(N), blocks)))
    plan, key = cem._LayoutPlan(coarse, NH - 1, strict_zero_trace), (0, NH - 1, 0, NH - 1)
    layout = plan.layout(key, cond, 0)
    solved, _ = cem._solve_batch(cond, layout, [0], NH - 1, cem._join(*sources),
                                 N * nbf + (loads is not None))
    corrector = None
    if loads is not None:
        corrector = np.zeros(n, dtype=complex)
        data = (np.zeros(N, dtype=int), np.arange(N), np.zeros(N, dtype=int), *sources[1][3:])
        rows, vals = cem._finish_batch(cond, layout, [0], data, solved[:, :, N * nbf:])
        corrector[rows[0]] = vals[0, :, 0]
    skeleton = cem._empty_csc(n, np.full(N * nbf, layout.skeleton.size))
    cem._write_skeleton(skeleton, cond, layout, np.zeros(1, dtype=int), solved, N * nbf)
    trial = cem.CondensedTrial(
        skeleton, sp.csc_matrix((cond.rim_nodes.size, N * nbf), dtype=complex), cond)
    order = plan[key][3].astype(np.intp)  # the skeleton's node ranks
    G, G_norm = cem._ElementProducts(  # each element its own class, its distances to the edges
        forms, cond, trial, NH - 1, NH - 1, False, cem._layout_keys(coarse, NH - 1),
        lambda key, NH, radius: cem._rim_offsets(np.arange(N), layout.local, order,
                                                 key[2] * NH + key[0], key, NH, radius)).matrix()
    return cem._new_space(forms, -1, strict_zero_trace, trial, G, G_norm, corrector, cond, None,
                          False)


def conjugate_basis(trial):
    """Test vectors: conjugates of the trial vectors (the local systems are
    complex symmetric with real right-hand sides)."""
    return np.conj(trial) if isinstance(trial, np.ndarray) else trial.conj()


def conjugate_condensation(cond):
    """The condensation of conj(B): Z_e and C_e are real, so only S_e and
    the B_RR diagonals are conjugated."""
    return replace(cond, S=cond.S.conj(), diag=cond.diag.conj())


def adjoint_cem_solve(j, m, forms, P, strict_zero_trace=False):
    """All nbf vectors of element j on its m-layer patch solved with the
    patch system of conj(B), zero-extended: an independent check of the
    conjugate test vectors (`cem.local_cem_solve` solves that of B)."""
    cond = cem._condense(forms, P)
    rows, vals = cem._solve_now(
        conjugate_condensation(cond), patch_layout(cond, forms.coarse, j, m, strict_zero_trace),
        [j], m, cem._trial_sources(cond, [j], [0]), P.nbf,
    )
    psi = np.zeros((forms.grid.n_nodes, P.nbf), dtype=complex)
    psi[rows[0]] = vals[0]
    return psi


def fine_trial(space, widths=None):
    """The fine trial matrix of `space` (a `cem.CondensedTrial` as its
    `trial`) in canonical CSC form, each column holding its patch's free
    nodes: the skeleton's entries and the interiors of the patch's elements,
    -W_k x_e + T_e a (see `cem.CondensedTrial`).  It recovers the interiors
    of element j's columns in products of `widths[j]` columns (nbf by
    default), as many as the patch solve that gave them had (nbf + 1 where
    it also solved a data column), so they are bitwise those of
    `cem._finish_batch` on that solve, which a product of another width is
    not.  A global space (m = -1) has the domain for every patch."""
    trial, cond, NH = space.trial, space.condensation, space.forms.coarse.NH
    m = space.m if space.m >= 0 else NH - 1
    S = trial.skeleton
    N, r4 = cond.rim_nodes.shape
    nbf = trial.shape[1] // N
    widths = np.full(N, nbf) if widths is None else np.asarray(widths)
    I, J = np.arange(N) % NH, np.arange(N) // NH
    j, e = np.nonzero((np.abs(I[:, None] - I) <= m) & (np.abs(J[:, None] - J) <= m))
    cols = (j * nbf)[:, None] + np.arange(nbf)  # (pairs, nbf): element e in j's patch
    shape = (j.size, r4, nbf)
    rims = np.asarray(S[np.broadcast_to(cond.rim_nodes[e][:, :, None], shape).ravel(),
                        np.broadcast_to(cols[:, None], shape).ravel()]).reshape(shape)
    interior = np.empty((j.size, cond.interior_nodes.shape[1], nbf), dtype=complex)
    groups = cond.kind[e] * (widths.max() + 1) + widths[j]  # (kind, width)
    for group in np.unique(groups):
        at = np.flatnonzero(groups == group)
        x = np.zeros(rims[at].shape[:2] + (widths[j[at[0]]],), dtype=complex)
        x[:, :, :nbf] = rims[at]
        interior[at] = -(cond.W[cond.kind[e[at[0]]]] @ x)[:, :, :nbf]
    own = np.flatnonzero(e == j)
    interior[own] += cond.trial_interior[e[own]]
    rows = np.broadcast_to(cond.interior_nodes[e][:, :, None], interior.shape)
    return sp.csc_matrix(
        (np.concatenate([S.data, interior.ravel()]),
         (np.concatenate([S.indices, rows.ravel()]),
          np.concatenate([np.repeat(np.arange(trial.shape[1]), np.diff(S.indptr)),
                          np.broadcast_to(cols[:, None], interior.shape).ravel()]))),
        shape=trial.shape)


def near_field(G, NH, nbf):
    """The entries of the CSR or CSC matrix G whose two coarse dofs'
    elements lie within Chebyshev distance `cem.NEAR_FIELD`, in G's format:
    the near field a space above `cem.DENSE_LIMIT` dofs stores.  Element e
    of coarse dof p is p // nbf, at position (e % NH, e // NH)."""
    e = np.repeat(np.arange(G.indptr.size - 1, dtype=G.indices.dtype) // nbf, np.diff(G.indptr))
    f = G.indices // nbf
    near = ((np.abs(e % NH - f % NH) <= cem.NEAR_FIELD)
            & (np.abs(e // NH - f // NH) <= cem.NEAR_FIELD))
    return cem._kept(G, near)


def inf_norm(G):
    """|G|_inf, the largest absolute row sum of G, sparse in any format or
    dense: the scale `G_norm` a space keeps for its coarse solve's guard."""
    return (abs(G) @ np.ones(G.shape[1])).max()
