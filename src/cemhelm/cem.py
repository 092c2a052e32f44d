"""Localized multiscale bases and the coarse Petrov-Galerkin system.

Each coarse element j contributes nbf trial vectors, obtained by solving the
constrained problem  (B + C) psi = r  on the oversampled patch, where C is
the projection Gram correction and r the auxiliary right-hand side of mode
(j, i).  C = U U^T is low rank on a patch, so instead of adding it
explicitly (which densifies the sparse system) the solve uses the
equivalent bordered form

    [ B   U ] [psi]   [r]
    [ U^T -I ] [ y ] = [0],

factorized once per patch and reused for all nbf right-hand sides.  Every
constrained solve is posed on a `grid.Patch`; the whole domain is the patch
with m = NH - 1.  Its system is a principal submatrix of one global bordered
operator A = [[B, U], [U^T, -I]], whose U holds the S_e Phi_e columns of
all elements: it keeps the patch's free nodes and the border columns of its
elements, and its right-hand sides are U columns on those nodes.  A is
formed once per call, as one COO -> CSC matrix, so each patch matrix is a
CSC slice of it; it is complex symmetric and goes to the symmetric-ordering
LU of `kernels.factorize`, as does the sparse coarse system.  Test vectors
are the conjugates of the trial vectors; the independent adjoint solve (the
same slice of conj(A)) is kept for cross-validation.

Patch systems constrain the fine nodes on the patch boundary away from the
domain boundary (`Patch.free_nodes`, the one free-node rule); where a patch
touches the outer boundary the Robin rows stay, so the domain patch keeps
every node.  `strict_zero_trace` constrains the whole patch boundary instead.

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

The trial vectors depend on the medium, k, the coarse grid, the projection
and m, never on the data.  A `MultiscaleSpace` therefore carries, besides
its own data corrector, the read-only trial matrix and G = Psi^T B Psi,
both formed once, when the trial matrix is built; `build_space` keeps the
space it last built on the projection (`P.space`).  A later call for the
same forms object, m and strict_zero_trace returns that space with a new
corrector, solved only on the patches whose element load block has a
nonzero entry, one factorization and one right-hand side each.  Skipping
the other patches is exact, as the data column of a zero block is exactly
zero.  `assemble_coarse` forms only Psi^T (b - B q).

The basis vectors decay exponentially away from their element, and so do
the entries of G.  A coarse system larger than DENSE_LIMIT is therefore
solved by GMRES on G, preconditioned by the sparse LU of its near field,
the entries between elements within Chebyshev distance NEAR_FIELD, which
holds a sixth of G's entries and a quarter of its LU fill at H = 1/40, m = 3.
GMRES stops at a relative residual of 1e-12; when it does not get there in
two cycles of 100 iterations, the near-field LU is dropped and G's own LU
solves the system.  Either branch, dense or sparse, ends with a backward
error guard: a solution with |G c - b| > 1e-10 (|G| |c| + |b|), in max
norms, raises SingularCoarseSystem instead of returning a field.
"""

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .errors import (
    DimensionMismatch,
    InvalidElement,
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
    "NEAR_FIELD",
    "MultiscaleSpace",
    "CoarseSystem",
    "local_cem_solve",
    "test_basis",
    "build_space",
    "build_global_space",
    "assemble_coarse",
    "solve_multiscale",
    "measure_decay",
    "dump_basis",
]

log = logging.getLogger(__name__)

DENSE_LIMIT = 2000  # larger coarse systems go to the near-field GMRES

# Chebyshev distance, in coarse elements, within which the entries of G form
# the near field whose LU preconditions the coarse GMRES.  Measured on one
# BLAS thread at H = 1/40, m = 3, nbf = 4 (6400 dofs): for the homogeneous
# plane wave the near field holds 16 % of G's 3.7e6 entries and its LU 3.0e6
# entries against 12.0e6 for G's; GMRES needs 14 iterations and the solve
# takes 1.0 s against 4.6 s by the LU of G.  On contrast-1e-3 channels it
# needs 26 iterations (1.4 s against 4.4 s).  Distance 1 needs 37 and 70
# iterations (1.1 and 1.7 s).
NEAR_FIELD = 2


def _bordered_matrix(forms, P):
    """The global bordered operator A = [[B, U], [U^T, -I]] as one CSC matrix.

    Column n + e*nbf + i of U holds S_e phi_e^i on element e's nodes, so U U^T
    is the projection Gram correction C.  Every constrained solve is a
    principal submatrix of A (see `_bordered_solve`).
    """
    B = forms.B.tocoo()
    shape = P.sphi.shape  # (N, p, nbf)
    border = B.shape[0] + np.arange(shape[0] * shape[2])
    u_rows = np.broadcast_to(P.coarse.element_nodes[:, :, None], shape).ravel()
    u_cols = np.broadcast_to(border.reshape(shape[0], 1, shape[2]), shape).ravel()
    u_vals = P.sphi.ravel()
    size = B.shape[0] + border.size
    return sp.csc_matrix(
        (
            np.concatenate([B.data, u_vals, u_vals, -np.ones(border.size)]),
            (
                np.concatenate([B.row, u_rows, u_cols, border]),
                np.concatenate([B.col, u_cols, u_rows, border]),
            ),
        ),
        shape=(size, size),
    )


def _bordered_solve(A, P, patch, strict_zero_trace, rhs_cols, extra=None,
                    error=SingularLocalSystem):
    """Solve (B + U U^T) psi = r on the free nodes of `patch` for every rhs column.

    The system is the principal submatrix of the bordered operator A (see
    `_bordered_matrix`) on the free nodes and the border columns of
    `patch.elements`; the right-hand sides are the U columns `rhs_cols`,
    then the fine vector `extra`, on the free nodes.  Returns (free rows,
    solutions)."""
    rows = patch.free_nodes(strict_zero_trace)
    where = f"element {patch.center}, m={patch.m}"
    if rows.size == 0:
        raise error(f"{where}: patch has no unconstrained nodes")
    n = A.shape[0] - P.coarse.n_elements * P.nbf
    border = n + (patch.elements[:, None] * P.nbf + np.arange(P.nbf)).ravel()
    sel = np.concatenate([rows, border])
    n_trial = len(rhs_cols)
    rhs = np.zeros((sel.size, n_trial + (extra is not None)), dtype=complex)
    rhs[:rows.size, :n_trial] = A[:, n + np.asarray(rhs_cols)][rows].toarray()
    if extra is not None:
        rhs[:rows.size, n_trial] = np.asarray(extra)[rows]
    try:
        sol = kernels.factorize(A[:, sel][sel]).solve(rhs)
    except SingularMatrix as exc:
        raise error(f"{where}: constrained system is singular: {exc}") from exc
    return rows, sol[:rows.size]


def local_cem_solve(j, m, forms, P, strict_zero_trace=False, adjoint=False):
    """All nbf trial vectors of element j on its m-layer patch, zero-extended.

    With `adjoint` the patch system of conj(B) is solved instead (an
    independent check of the conjugate test vectors)."""
    A = _bordered_matrix(forms, P)
    if adjoint:
        A = A.conj()
    patch = oversample(forms.coarse, j, m)
    rows, vals = _bordered_solve(A, P, patch, strict_zero_trace, j * P.nbf + np.arange(P.nbf))
    psi = np.zeros((forms.grid.n_nodes, P.nbf), dtype=complex)
    psi[rows] = vals
    return psi, patch


def test_basis(trial):
    """Test vectors: conjugates of the trial vectors (the local systems are
    complex symmetric with real right-hand sides)."""
    return np.conj(trial) if isinstance(trial, np.ndarray) else trial.conj()


@dataclass
class MultiscaleSpace:
    """Trial vectors as columns of a sparse matrix, column p = j*nbf + i.

    `G` is the coarse matrix Psi^T B Psi of `forms.B`; `trial` and `G` are
    read-only, and the spaces `build_space` returns for one (forms, P, m,
    strict_zero_trace) share them.  `corrector` is the space's own summed
    localized data solve (None when it was built without load blocks).
    """

    forms: object
    m: int
    strict_zero_trace: bool
    trial: sp.csc_matrix
    G: sp.csc_matrix
    corrector: np.ndarray = None

    @property
    def nbf(self):
        return self.trial.shape[1] // self.forms.coarse.n_elements

    @property
    def n_basis(self):
        return self.trial.shape[1]

    def index(self, j, i):
        _check_basis(j, i, self.forms.coarse.n_elements, self.nbf)
        return j * self.nbf + i

    def vector(self, j, i):
        return self.trial[:, [self.index(j, i)]].toarray().ravel()


def _check_basis(j, i, n_elements, nbf):
    """Raise InvalidElement unless 0 <= j < n_elements and 0 <= i < nbf."""
    if not (0 <= j < n_elements and 0 <= i < nbf):
        raise InvalidElement(f"basis ({j}, {i}) outside {n_elements} elements x {nbf} functions")


def _read_only(A):
    """Freeze the arrays of a canonical CSR/CSC matrix; returns A."""
    A.sum_duplicates()  # settles the format flags, so no later call sorts in place
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


def _new_space(forms, m, strict_zero_trace, trial, corrector):
    """The space of a newly built trial matrix: freezes it and forms G.

    G = (B Psi)^T Psi, equal to Psi^T B Psi as B is complex symmetric, comes
    out as CSC, the format the sparse coarse LU reads without a copy.
    """
    trial = _read_only(trial)
    G = _read_only((forms.B @ trial).T @ trial)
    return MultiscaleSpace(forms, m, strict_zero_trace, trial, G, corrector)


def _solve_patches(forms, P, m, strict_zero_trace, elements, load_blocks, with_trial):
    """Bordered solves on the patches of `elements`, one factorization each.

    With `with_trial`, each patch solves its nbf trial columns, returned as the
    columns of the trial matrix (`elements` must then be every element); with
    `load_blocks`, it also solves its data column, summed into the corrector.
    Returns (trial matrix or None, corrector or None).
    """
    n = forms.grid.n_nodes
    nbf = P.nbf if with_trial else 0
    A = _bordered_matrix(forms, P)
    data, indices, indptr = [], [], [0]
    corrector = None if load_blocks is None else np.zeros(n, dtype=complex)
    for j in elements:
        extra = None
        if load_blocks is not None:
            extra = np.zeros(n, dtype=complex)
            extra[forms.coarse.element_nodes[j]] = load_blocks[j]
        rows, vals = _bordered_solve(
            A, P, oversample(forms.coarse, j, m), strict_zero_trace,
            j * P.nbf + np.arange(nbf), extra,
        )
        for i in range(nbf):
            data.append(vals[:, i])
            indices.append(rows)
            indptr.append(indptr[-1] + rows.size)
        if load_blocks is not None:
            corrector[rows] += vals[:, nbf]
    if not with_trial:
        return None, corrector
    trial = sp.csc_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(n, forms.coarse.n_elements * P.nbf),
    )
    return trial, corrector


def build_space(forms, P, m, strict_zero_trace=False, load_blocks=None):
    """Trial space of all N*nbf localized basis vectors (deterministic order).

    With `load_blocks` (per-element data loads, shape (N, p), see
    assembly.element_loads) the space also carries the summed localized
    data solve as its corrector.  The trial matrix and G do not depend on
    the data: P keeps the space it last built, and a call for the same
    forms object, m and strict_zero_trace reuses its trial and G and solves
    only the loaded patches (see the module docstring).
    """
    coarse = forms.coarse
    if load_blocks is not None:
        load_blocks = np.asarray(load_blocks)
        if load_blocks.shape != coarse.element_nodes.shape:
            raise DimensionMismatch(
                f"load blocks of shape {load_blocks.shape} against "
                f"{coarse.element_nodes.shape} element nodes"
            )
    space = P.space
    if (space is not None and space.forms is forms and space.m == m
            and space.strict_zero_trace == strict_zero_trace):
        loaded = []
        if load_blocks is not None:
            loaded = np.flatnonzero(np.any(load_blocks != 0, axis=1))
        _, corrector = _solve_patches(
            forms, P, m, strict_zero_trace, loaded, load_blocks, with_trial=False
        )
        return replace(space, corrector=corrector)
    P.space = None  # free the previous trial and G before building the next
    trial, corrector = _solve_patches(
        forms, P, m, strict_zero_trace, range(coarse.n_elements), load_blocks, with_trial=True
    )
    P.space = _new_space(forms, m, strict_zero_trace, trial, corrector)
    return P.space


def build_global_space(forms, P, loads=None, strict_zero_trace=False):
    """Unlocalized bases: the constrained problem on the domain patch
    `oversample(coarse, 0, NH - 1)`, one factorization for all N*nbf
    right-hand sides, as `build_space` with m = NH - 1.  With `loads` (full
    fine load vector) the global data corrector is solved alongside."""
    coarse = forms.coarse
    n_basis = coarse.n_elements * P.nbf
    rows, vals = _bordered_solve(
        _bordered_matrix(forms, P), P, oversample(coarse, 0, coarse.NH - 1),
        strict_zero_trace, np.arange(n_basis), loads, error=SingularGlobalSystem,
    )
    full = np.zeros((forms.grid.n_nodes, vals.shape[1]), dtype=complex)
    full[rows] = vals
    corrector = None if loads is None else full[:, n_basis].copy()
    trial = sp.csc_matrix(full[:, :n_basis])
    return _new_space(forms, -1, strict_zero_trace, trial, corrector)


@dataclass
class CoarseSystem:
    G: sp.csc_matrix
    b: np.ndarray
    nbf: int

    @property
    def n(self):
        return self.G.shape[0]


def assemble_coarse(space, forms, loads):
    """Petrov-Galerkin system G c = b with G[p,q] = B(psi_q, psi*_p).

    With psi*_p = conj(psi_p) the pairing collapses to psi_p^T B psi_q, so
    G = Psi^T B Psi is complex symmetric; it is the space's own (see
    `build_space`).  The rhs is Psi^T (fine loads), minus Psi^T B q when the
    space carries a data corrector q.  `forms` must be the object the space
    was built from.
    """
    if forms is not space.forms:
        raise DimensionMismatch("forms differ from the forms the space was built from")
    loads = np.asarray(loads)
    if loads.shape[0] != space.trial.shape[0]:
        raise DimensionMismatch(
            f"load vector of length {loads.shape[0]} against {space.trial.shape[0]} nodes"
        )
    rhs_fine = loads.astype(complex)
    if space.corrector is not None:
        rhs_fine = rhs_fine - forms.B @ space.corrector
    b = space.trial.T @ rhs_fine
    return CoarseSystem(space.G, np.asarray(b).ravel(), space.nbf)


def _near_field(G, NH, nbf):
    """The entries of the CSC matrix G whose two coarse elements lie within
    Chebyshev distance NEAR_FIELD, as a CSC matrix.  Element e of coarse dof
    p is p // nbf, at position (e % NH, e // NH)."""
    e = np.arange(G.shape[0], dtype=G.indices.dtype) // nbf
    x, y = e % NH, e // NH
    counts = np.diff(G.indptr)
    keep = np.abs(x[G.indices] - np.repeat(x, counts)) <= NEAR_FIELD
    keep &= np.abs(y[G.indices] - np.repeat(y, counts)) <= NEAR_FIELD
    indptr = np.concatenate([[0], np.cumsum(keep)])[G.indptr]
    return sp.csc_matrix((G.data[keep], G.indices[keep], indptr), shape=G.shape)


def _near_field_solve(G, b, NH, nbf):
    """Solve the CSC system G c = b by GMRES preconditioned with the LU of
    its near field, or, when GMRES does not converge, by the LU of G."""
    F = kernels.factorize(_near_field(G, NH, nbf))
    M = spla.LinearOperator(G.shape, matvec=F.solve, dtype=G.dtype)
    residuals = []  # one per iteration
    c, info = spla.gmres(
        G, b, M=M, rtol=1e-12, atol=0.0, restart=100, maxiter=2,
        callback=residuals.append, callback_type="pr_norm",
    )
    log.debug("coarse GMRES on %d dofs: %d iterations, info %d", G.shape[0], len(residuals), info)
    if info != 0:
        del F, M  # free the near-field LU before factorizing all of G
        c = kernels.factorize(G).solve(b)
    return c


def _check_backward_error(G, b, c, diag):
    """Raise SingularCoarseSystem unless the normwise backward error
    |G c - b| / (|G| |c| + |b|), in max norms, is at most 1e-10."""
    residual = np.abs(G @ c - b).max()
    scale = np.bincount(G.indices, weights=np.abs(G.data), minlength=G.shape[0]).max()
    eta = residual / (scale * np.abs(c).max() + np.abs(b).max()) if residual else 0.0
    log.debug("coarse solve on %d dofs: backward error %.2e", G.shape[0], eta)
    if not eta <= 1e-10:
        raise SingularCoarseSystem(
            f"coarse solve of {G.shape[0]} dofs has backward error {eta:.2e} "
            f"> 1e-10{diag}"
        )


def solve_multiscale(system, space, forms=None):
    """Coefficients and fine-grid expansion of the multiscale solution.

    Up to DENSE_LIMIT coarse dofs, G c = b is solved by a dense LU.  Larger
    systems are solved by GMRES on G (restart 100, at most two cycles) to a
    relative residual |G c - b|_2 / |b|_2 of 1e-12, preconditioned by the
    sparse LU of G's near field: its entries between coarse elements within
    Chebyshev distance NEAR_FIELD.  If GMRES does not converge, the
    near-field LU is dropped and G's own sparse LU solves the system.  A
    singular G or near field raises SingularCoarseSystem; so does, in either
    branch, a solution whose backward error |G c - b| / (|G| |c| + |b|), in
    max norms, exceeds 1e-10.  The GMRES iteration count and the backward
    error are logged at DEBUG.
    """
    G, b = sp.csc_matrix(system.G), system.b
    diag = ""
    if forms is not None:
        khe = forms.k * forms.coarse.H / forms.medium.epsilon
        diag = f" (k*H/eps = {khe:.3g}; check resolution/oversampling)"
    try:
        if G.shape[0] <= DENSE_LIMIT:
            c = np.linalg.solve(G.toarray(), b)
        else:
            c = _near_field_solve(G, b, space.forms.coarse.NH, system.nbf)
    except (np.linalg.LinAlgError, SingularMatrix) as exc:
        raise SingularCoarseSystem(f"coarse system is singular{diag}") from exc
    if not np.all(np.isfinite(c)):
        raise SingularCoarseSystem("coarse solve produced non-finite coefficients")
    _check_backward_error(G, b, c, diag)
    u = np.asarray(space.trial @ c).ravel()
    if space.corrector is not None:
        u = u + space.corrector
    return u, c


def measure_decay(j, i, forms, P, m_list, w=None):
    """Tail energies of the unlocalized basis (j, i) outside each m-patch.

    w defaults to the solve on element j's domain patch (m = NH - 1).
    t(m) = |w|^2_{a, outside} + |pi w|^2_{s, outside}; returns the list of
    t(m) and the geometric mean of consecutive ratios (decay factor).
    """
    _check_basis(j, i, forms.coarse.n_elements, P.nbf)
    if w is None:
        w = local_cem_solve(j, forms.coarse.NH - 1, forms, P)[0][:, i]
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
