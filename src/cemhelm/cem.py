"""Localized multiscale bases and the coarse Petrov-Galerkin system.

Each coarse element j contributes nbf trial vectors, obtained by solving the
constrained problem  (B + C) psi = r  on the oversampled patch, where C is
the projection Gram correction and r the auxiliary right-hand side of mode
(j, i).  C = U U^T is low rank on a patch, so instead of adding it
explicitly (which densifies the sparse system) the solve uses the
equivalent bordered form

    [ B   U ] [psi]   [r]
    [ U^T -I ] [ y ] = [0],

factorized once per patch and reused for all nbf right-hand sides.  The
bordered matrix is assembled directly, as one COO -> CSC matrix, from the
patch rows and columns of B, the per-element S_e Phi_e blocks (placed by a
fine node -> patch row map, which also places the right-hand sides) and the
-I block; it is complex symmetric, so it goes to the symmetric-ordering LU
of `kernels.factorize`, as does the sparse coarse system.  Test
vectors are the conjugates of the trial vectors; the independent adjoint
solve (same bordered form on conj(B)) is kept for cross-validation.

Patch systems constrain the fine nodes on the patch boundary away from the
domain boundary; where a patch touches the outer boundary the Robin rows
stay, so a patch that fills the domain reproduces the unlocalized problem
exactly.  `strict_zero_trace` constrains the whole patch boundary instead.

Passing the element-split load blocks to `build_space` additionally solves,
on each patch, the same constrained system against that element's share of
the data.  The summed solutions form a localized data corrector q; the
coarse solve then targets u = q + sum c_p psi_p with right-hand side
Psi^T (b - B q).  Without q, the coarse error is the projection-kernel
component of the reference solution, and for impedance (boundary) data
that component has an O(sqrt(H)) energy floor; with q the floor drops to
the patch-truncation level.  The published Model-1 error levels are met
without q: the corrector-free solve with the trace-weighted auxiliary form
(see spectral.build_projection) reproduces them, while the corrector lands
far below them.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels
from .errors import (
    DimensionMismatch,
    SingularCoarseSystem,
    SingularGlobalSystem,
    SingularLocalSystem,
    SingularMatrix,
)
from .grid import oversample
from .spectral import pi_coeffs
from .assembly import assemble_stiffness

__all__ = [
    "DENSE_LIMIT",
    "MultiscaleSpace",
    "CoarseSystem",
    "local_cem_solve",
    "test_basis",
    "build_space",
    "global_basis",
    "build_global_space",
    "assemble_coarse",
    "solve_multiscale",
    "measure_decay",
    "dump_basis",
]

DENSE_LIMIT = 2000  # larger coarse systems go to the sparse LU


def _border_columns(P, elements):
    cols = (np.asarray(elements)[:, None] * P.nbf + np.arange(P.nbf)[None, :]).ravel()
    return cols


def _bordered_solve(forms, P, idx, elements, rhs_cols, adjoint=False,
                    error=SingularLocalSystem, extra_rhs=None):
    """Solve (B + U U^T) psi = r on the nodes `idx` for every rhs column.

    U holds the S_e Phi_e columns of `elements`; the bordered matrix is
    assembled directly (see the module docstring).
    """
    n_free = idx.size
    if n_free == 0:
        raise error("patch has no unconstrained nodes")
    B = sp.csr_matrix(forms.B)
    local = np.full(B.shape[0], -1)  # fine node -> row of the bordered system
    local[idx] = np.arange(n_free)

    # B block: the CSR rows idx, keeping the columns that map into idx
    starts = B.indptr[idx]
    counts = B.indptr[idx + 1] - starts
    offsets = np.cumsum(counts) - counts
    pos = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
    b_rows = np.repeat(np.arange(n_free), counts)
    b_cols = local[B.indices[pos]]
    keep = b_cols >= 0
    b_rows, b_cols, b_vals = b_rows[keep], b_cols[keep], B.data[pos[keep]]
    if adjoint:
        b_vals = b_vals.conj()

    # U block: column k*nbf + i holds S_e phi_e^i for e = elements[k]
    nbf = P.nbf
    elements = np.asarray(elements)
    nb = elements.size * nbf
    u_vals = P.sphi[elements]  # (elements, p, nbf)
    u_rows = local[P.coarse.element_nodes[elements]][:, :, None]
    u_rows = np.broadcast_to(u_rows, u_vals.shape)
    u_cols = np.broadcast_to(n_free + np.arange(nb).reshape(-1, 1, nbf), u_vals.shape)
    on = u_rows >= 0
    u_rows, u_cols, u_vals = u_rows[on], u_cols[on], u_vals[on]
    border = n_free + np.arange(nb)

    size = n_free + nb
    A = sp.csc_matrix(
        (
            np.concatenate([b_vals, u_vals, u_vals, -np.ones(nb)]),
            (
                np.concatenate([b_rows, u_rows, u_cols, border]),
                np.concatenate([b_cols, u_cols, u_rows, border]),
            ),
        ),
        shape=(size, size),
    )

    # rhs column c: S_e phi_e^i for p = rhs_cols[c] = e*nbf + i, then extra_rhs
    e, i = np.divmod(np.asarray(rhs_cols), nbf)
    r_rows = local[P.coarse.element_nodes[e]]
    r_cols = np.broadcast_to(np.arange(e.size)[:, None], r_rows.shape)
    on = r_rows >= 0
    n_extra = 0 if extra_rhs is None else extra_rhs.shape[1]
    rhs = np.zeros((size, e.size + n_extra), dtype=complex)
    rhs[r_rows[on], r_cols[on]] = P.sphi[e, :, i][on]
    if extra_rhs is not None:
        rhs[:n_free, e.size:] = extra_rhs
    try:
        sol = kernels.factorize(A).solve(rhs)
    except SingularMatrix as exc:
        raise error(f"constrained system is singular: {exc}") from exc
    return sol[:n_free]


def local_cem_solve(j, m, forms, P, strict_zero_trace=False, adjoint=False):
    """All nbf trial vectors of element j on its m-layer patch, zero-extended."""
    patch = oversample(forms.coarse, j, m)
    idx = patch.free_nodes(strict_zero_trace)
    rhs_cols = _border_columns(P, [j])
    try:
        vals = _bordered_solve(forms, P, idx, patch.elements, rhs_cols, adjoint=adjoint)
    except SingularLocalSystem as exc:
        raise SingularLocalSystem(f"element {j}, m={m}: {exc}") from exc
    psi = np.zeros((forms.grid.n_nodes, P.nbf), dtype=complex)
    psi[idx] = vals
    return psi, patch


def test_basis(trial):
    """Test vectors: conjugates of the trial vectors (the local systems are
    complex symmetric with real right-hand sides)."""
    return np.conj(trial) if isinstance(trial, np.ndarray) else trial.conj()


@dataclass
class MultiscaleSpace:
    """Trial vectors as columns of a sparse matrix, column p = j*nbf + i.

    `corrector` is the summed localized data solve (None when the space was
    built without load blocks)."""

    trial: sp.csc_matrix
    coarse: object
    m: int
    nbf: int
    strict_zero_trace: bool = False
    corrector: np.ndarray = None

    @property
    def test(self):
        return self.trial.conj()

    @property
    def n_basis(self):
        return self.trial.shape[1]

    def index(self, j, i):
        return j * self.nbf + i

    def vector(self, j, i):
        return self.trial[:, [self.index(j, i)]].toarray().ravel()


def build_space(forms, P, m, strict_zero_trace=False, load_blocks=None):
    """Trial space of all N*nbf localized basis vectors (deterministic order).

    With `load_blocks` (per-element data loads, see assembly.element_loads)
    each patch factorization also solves that element's data problem; the
    summed result becomes the space's localized corrector.
    """
    coarse = forms.coarse
    n = forms.grid.n_nodes
    data, indices, indptr = [], [], [0]
    corrector = None if load_blocks is None else np.zeros(n, dtype=complex)
    for j in range(coarse.n_elements):
        patch = oversample(coarse, j, m)
        rows = patch.free_nodes(strict_zero_trace)
        rhs_cols = _border_columns(P, [j])
        extra = None
        if load_blocks is not None:
            extra = np.zeros(n, dtype=complex)
            extra[coarse.element_nodes[j]] = load_blocks[j]
            extra = extra[rows][:, None]
        try:
            vals = _bordered_solve(forms, P, rows, patch.elements, rhs_cols, extra_rhs=extra)
        except SingularLocalSystem as exc:
            raise SingularLocalSystem(f"element {j}, m={m}: {exc}") from exc
        for i in range(P.nbf):
            data.append(vals[:, i])
            indices.append(rows)
            indptr.append(indptr[-1] + rows.size)
        if load_blocks is not None:
            corrector[rows] += vals[:, P.nbf]
    trial = sp.csc_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(n, coarse.n_elements * P.nbf),
    )
    return MultiscaleSpace(trial, coarse, m, P.nbf, strict_zero_trace, corrector)


def _global_free_nodes(forms, strict_zero_trace):
    n = forms.grid.n_nodes
    if strict_zero_trace:
        return np.flatnonzero(~forms.grid.boundary_mask)
    return np.arange(n)


def build_global_space(forms, P, loads=None, strict_zero_trace=False):
    """Unlocalized bases: the same constrained problem posed on the whole
    domain (one factorization, all right-hand sides).  With `loads` (full
    fine load vector) the global data corrector is solved alongside."""
    coarse = forms.coarse
    n = forms.grid.n_nodes
    idx = _global_free_nodes(forms, strict_zero_trace)
    all_els = np.arange(coarse.n_elements)
    cols = _border_columns(P, all_els)
    extra = None if loads is None else np.asarray(loads, dtype=complex)[idx][:, None]
    vals = _bordered_solve(
        forms, P, idx, all_els, cols, error=SingularGlobalSystem, extra_rhs=extra
    )
    corrector = None
    if loads is not None:
        corrector = np.zeros(n, dtype=complex)
        corrector[idx] = vals[:, -1]
        vals = vals[:, :-1]
    full = np.zeros((n, vals.shape[1]), dtype=complex)
    full[idx] = vals
    trial = sp.csc_matrix(full)
    return MultiscaleSpace(trial, coarse, -1, P.nbf, strict_zero_trace, corrector)


def global_basis(j, i, forms, P, strict_zero_trace=False):
    """One unlocalized basis vector (small-grid oracle path)."""
    n = forms.grid.n_nodes
    idx = _global_free_nodes(forms, strict_zero_trace)
    all_els = np.arange(forms.coarse.n_elements)
    vals = _bordered_solve(
        forms, P, idx, all_els, np.array([j * P.nbf + i]), error=SingularGlobalSystem
    )
    out = np.zeros(n, dtype=complex)
    out[idx] = vals[:, 0]
    return out


@dataclass
class CoarseSystem:
    G: sp.csr_matrix
    b: np.ndarray
    nbf: int

    @property
    def n(self):
        return self.G.shape[0]


def assemble_coarse(space, forms, loads):
    """Petrov-Galerkin system G c = b with G[p,q] = B(psi_q, psi*_p).

    With psi*_p = conj(psi_p) the pairing collapses to psi_p^T B psi_q, so
    G = Psi^T B Psi is complex symmetric; the rhs is Psi^T (fine loads),
    minus Psi^T B q when the space carries a data corrector q.
    """
    loads = np.asarray(loads)
    if loads.shape[0] != space.trial.shape[0]:
        raise DimensionMismatch(
            f"load vector of length {loads.shape[0]} against {space.trial.shape[0]} nodes"
        )
    rhs_fine = loads.astype(complex)
    if space.corrector is not None:
        rhs_fine = rhs_fine - forms.B @ space.corrector
    G = (space.trial.T @ (forms.B @ space.trial)).tocsr()
    b = space.trial.T @ rhs_fine
    return CoarseSystem(G, np.asarray(b).ravel(), space.nbf)


def solve_multiscale(system, space, forms=None):
    """Coefficients and fine-grid expansion of the multiscale solution."""
    G, b = system.G, system.b
    try:
        if G.shape[0] <= DENSE_LIMIT:
            c = np.linalg.solve(G.toarray(), b)
        else:
            c = kernels.factorize(G).solve(b)
    except (np.linalg.LinAlgError, SingularMatrix) as exc:
        diag = ""
        if forms is not None:
            khe = forms.k * forms.coarse.H / forms.medium.epsilon
            diag = f" (k*H/eps = {khe:.3g}; check resolution/oversampling)"
        raise SingularCoarseSystem(f"coarse system is singular{diag}") from exc
    if not np.all(np.isfinite(c)):
        raise SingularCoarseSystem("coarse solve produced non-finite coefficients")
    u = np.asarray(space.trial @ c).ravel()
    if space.corrector is not None:
        u = u + space.corrector
    return u, c


def measure_decay(j, i, forms, P, m_list, w=None):
    """Tail energies of the unlocalized basis (j, i) outside each m-patch.

    t(m) = |w|^2_{a, outside} + |pi w|^2_{s, outside}; returns the list of
    t(m) and the geometric mean of consecutive ratios (decay factor).
    """
    if w is None:
        w = global_basis(j, i, forms, P)
    coeffs = pi_coeffs(P, w)
    per_element_s = np.sum(np.abs(coeffs) ** 2, axis=1)
    tails = []
    for m in m_list:
        patch = oversample(forms.coarse, j, m)
        cell_mask = np.ones(forms.grid.n_cells, dtype=bool)
        cell_mask[patch.cells] = False
        out_cells = np.flatnonzero(cell_mask)
        if out_cells.size == 0:
            tails.append(0.0)
            continue
        K_out = assemble_stiffness(forms.grid, forms.medium, cells=out_cells)
        a_part = float(np.real(np.vdot(w, K_out @ w)))
        el_mask = np.ones(forms.coarse.n_elements, dtype=bool)
        el_mask[patch.elements] = False
        s_part = float(per_element_s[el_mask].sum())
        tails.append(a_part + s_part)
    ratios = [
        t1 / t0
        for t0, t1 in zip(tails, tails[1:])
        if t0 > 0.0 and t1 > 0.0
    ]
    beta_hat = float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")
    return tails, beta_hat


def dump_basis(space, grid, j, i, path):
    """CSV export 'node,x,y,re,im' of one basis vector."""
    v = space.vector(j, i)
    xy = grid.node_coords
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x", "y", "re", "im"])
        for p in range(grid.n_nodes):
            writer.writerow(
                [
                    p,
                    repr(float(xy[p, 0])),
                    repr(float(xy[p, 1])),
                    repr(float(v[p].real)),
                    repr(float(v[p].imag)),
                ]
            )
