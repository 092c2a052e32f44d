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
with m = NH - 1.  Its system is a principal submatrix of the bordered
operator [[B, U], [U^T, -I]] of the whole grid: the patch's free nodes and
the border unknowns y_e of its elements, where U holds the S_e Phi_e
columns of all elements.

That system is solved by element-interior static condensation.  An
element's interior nodes touch only its own cells and its y_e only its
own nodes, and the free-node rule never constrains an interior node.  So
each element e eliminates Z_e = (interior nodes, y_e) once per space, in
one batched dense solve over all elements, leaving a dense Schur complement
S_e on its 4r rim nodes (see `Condensation`).  Z_e and its coupling C_e to
the rim are real, as the boundary mass lives on rim nodes; only B_RR
carries -ik Mb.  A patch system is then the sum of S_e over the patch's
elements on its free rim nodes, the skeleton, with a fraction of the
patch's unknowns and LU fill; its right-hand sides enter through one
element's rim, and the interiors come back from one batched product over
the patch's elements.  Patches of one shape share the skeleton's index maps
(`_Layout`).  The skeleton matrices go to the symmetric-ordering LU of
`kernels.factorize`, as does the sparse coarse system.  A singular or
ill-conditioned Z_e (k H / eps far beyond the resolution condition) raises
SingularLocalSystem naming the element.  Test vectors are the conjugates of
the trial vectors; the independent adjoint solve (the condensation of
conj(B), which conjugates only S_e and the B_RR diagonals) is kept for
cross-validation.

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
its own data corrector, the read-only trial matrix, G = Psi^T B Psi and
the element condensation, all formed once, when the trial matrix is built;
`build_space` keeps the space it last built on the projection (`P.space`).
A later call for the same forms object, m and strict_zero_trace returns
that space with a new corrector, solved only on the patches whose element
load block has a nonzero entry, one factorization and one right-hand side
each; a load enters only through its element's Z_e and rim, so only the
loaded elements' data are condensed.  Skipping the other patches is exact,
as the data column of a zero block is exactly zero.  `assemble_coarse`
forms only Psi^T (b - B q).  Each `build_space` logs at DEBUG the patches
it factorized, their skeleton unknowns and the summed L+U fill.

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
from .assembly import (
    assemble_stiffness,
    element_blocks,
    element_boundary_triplets,
    element_matrices,
    element_stencil,
    element_triplets,
)
from .grid import oversample
from .spectral import pi_coeffs

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

# An element block Z_e whose solve amplifies its right-hand sides beyond
# 1 / (_MIN_RCOND |Z_e|) is refused (see `_solve_elements`).
_MIN_RCOND = 1e-12


def _element_split(coarse):
    """Columns of `coarse.element_nodes` inside an element and on its rim."""
    edge = np.isin(np.arange(coarse.ratio + 1), (0, coarse.ratio))
    on_rim = (edge[:, None] | edge[None, :]).ravel()
    return np.flatnonzero(~on_rim), np.flatnonzero(on_rim)


def _element_systems(forms, P, elements):
    """Z_e, C_e and B_RR of `elements`, stacked (see `Condensation`).

    The element forms K_e - k^2 M_e are scattered from the element stencil
    with the interior nodes numbered first; in Z_e the border unknowns y_e
    follow the interior nodes.  The boundary mass of B lives on rim nodes
    only, so -ik Mb enters B_RR alone.
    """
    grid, coarse = forms.grid, forms.coarse
    N, p = coarse.element_nodes.shape
    interior, rim = _element_split(coarse)
    order = np.concatenate([interior, rim])
    n_i, n_r, nbf = interior.size, rim.size, P.nbf
    at = np.argsort(order)  # position of each element node in `order`
    Ke, Me = element_matrices(grid.h, 1.0)
    coeffs = forms.medium.values[coarse.element_cells[elements]]
    rows, cols, vals = element_triplets(at[element_stencil(grid, coarse)], Ke, coeffs)
    vals = vals - (forms.k * forms.k) * np.tile(Me.ravel(), coeffs.size)
    blocks = element_blocks(rows, cols, vals, len(coeffs), p)
    rows, cols, vals = element_boundary_triplets(grid, coarse)
    Mb = element_blocks(rows // p * n_r + at[rows % p] - n_i, at[cols % p] - n_i, vals, N, n_r)
    U = P.sphi[elements][:, order]
    Z = np.zeros((len(coeffs), n_i + nbf, n_i + nbf))
    Z[:, :n_i, :n_i] = blocks[:, :n_i, :n_i]
    Z[:, :n_i, n_i:] = U[:, :n_i]
    Z[:, n_i:, :n_i] = U[:, :n_i].transpose(0, 2, 1)
    Z[:, n_i:, n_i:] = -np.eye(nbf)
    C = np.concatenate([blocks[:, :n_i, n_i:], U[:, n_i:].transpose(0, 2, 1)], axis=1)
    return Z, C, blocks[:, n_i:, n_i:] - 1j * forms.k * Mb[elements]


def _solve_elements(forms, Z, rhs):
    """Z_e^-1 rhs_e for the stack of element blocks Z_e.

    Raises SingularLocalSystem naming the first element whose block is
    singular or ill-conditioned: |rhs_e| < _MIN_RCOND |Z_e| |Z_e^-1 rhs_e|, in
    max norms.
    """
    try:
        X = np.linalg.solve(Z, rhs)
        rcond = np.abs(rhs).max(axis=(1, 2)) / (
            np.abs(Z).max(axis=(1, 2)) * np.abs(X).max(axis=(1, 2)))
        bad = np.flatnonzero(~(rcond >= _MIN_RCOND))
    except np.linalg.LinAlgError:  # an exactly singular block
        bad = np.flatnonzero(np.linalg.slogdet(Z)[0] == 0)
    if bad.size:
        khe = forms.k * forms.coarse.H / forms.medium.epsilon
        raise SingularLocalSystem(
            f"element {bad[0]}: interior system is singular or ill-conditioned "
            f"(k*H/eps = {khe:.3g}; check resolution)"
        )
    return X


@dataclass(frozen=True)
class Condensation:
    """The bordered system of every element with its interior eliminated.

    Element e's nodes split into interior nodes (`interior_nodes[e]`) and the
    4r rim nodes it shares with its neighbours (`rim_nodes[e]`); `on_rim`
    marks the fine nodes on some element's rim.  Z_e couples the interior
    nodes and the border unknowns y_e, C_e = [B_IR; U_R^T] couples them to
    the rim, and both are real.  Stacked by element:

    - S (N, 4r, 4r), complex: the Schur complement B_RR - C^T Z^-1 C;
    - diag (N, 4r), complex: the diagonal of B_RR;
    - W (N, n_I, 4r), real: the interior rows of Z^-1 C;
    - trial_rim (N, 4r, nbf), real: U_R - C^T Z^-1 [U_I; 0], the condensed
      right-hand sides of the element's trial columns;
    - trial_interior (N, n_I, nbf), real: the interior rows of Z^-1 [U_I; 0].
    """

    interior_nodes: np.ndarray
    rim_nodes: np.ndarray
    on_rim: np.ndarray
    S: np.ndarray
    diag: np.ndarray
    W: np.ndarray
    trial_rim: np.ndarray
    trial_interior: np.ndarray

    def conj(self):
        """The condensation of conj(B): Z_e and C_e are real."""
        return replace(self, S=self.S.conj(), diag=self.diag.conj())


def _condense(forms, P):
    """Eliminate every element's interior and border unknowns at once."""
    nodes = forms.coarse.element_nodes
    interior, rim = _element_split(forms.coarse)
    n_i, n_r = interior.size, rim.size
    Z, C, B_RR = _element_systems(forms, P, np.arange(len(nodes)))
    trial = np.zeros(Z.shape[:2] + (P.nbf,))
    trial[:, :n_i] = P.sphi[:, interior]
    X = _solve_elements(forms, Z, np.concatenate([C, trial], axis=2))
    Ct = C.transpose(0, 2, 1)
    on_rim = np.zeros(forms.grid.n_nodes, dtype=bool)
    on_rim[nodes[:, rim]] = True
    cond = Condensation(
        interior_nodes=nodes[:, interior],
        rim_nodes=nodes[:, rim],
        on_rim=on_rim,
        S=B_RR - Ct @ X[:, :, :n_r],
        diag=np.diagonal(B_RR, axis1=1, axis2=2).copy(),
        W=X[:, :n_i, :n_r].copy(),
        trial_rim=P.sphi[:, rim] - Ct @ X[:, :, n_r:],
        trial_interior=X[:, :n_i, n_r:].copy(),
    )
    for arr in vars(cond).values():
        arr.flags.writeable = False
    return cond


def _trial_sources(cond, elements):
    """Sources (see `_skeleton_solve`) of the trial columns of `elements`, in order."""
    elements = np.asarray(elements)
    n_cols = elements.size * cond.trial_rim.shape[2]
    return (
        np.repeat(elements, cond.trial_rim.shape[2]),
        np.arange(n_cols),
        cond.trial_rim[elements].transpose(0, 2, 1).reshape(n_cols, -1),
        cond.trial_interior[elements].transpose(0, 2, 1).reshape(n_cols, cond.W.shape[1]),
    )


def _load_sources(forms, P, elements, blocks, column):
    """Sources of the per-element loads `blocks` (one row of element-node
    values per element), all in `column`: with z_e = Z_e^-1 [f_I; 0], the
    condensed rim load f_R - C_e^T z_e and the interior rows of z_e."""
    interior, rim = _element_split(forms.coarse)
    Z, C, _ = _element_systems(forms, P, elements)
    rhs = np.zeros(Z.shape[:2] + (1,), dtype=complex)
    rhs[:, :interior.size, 0] = blocks[:, interior]
    z = np.linalg.solve(Z, rhs)
    return (
        np.asarray(elements),
        np.full(len(blocks), column),
        blocks[:, rim] - (C.transpose(0, 2, 1) @ z)[:, :, 0],
        z[:, :interior.size, 0],
    )


def _join(*sources):
    """One set of sources holding all of `sources`."""
    return tuple(np.concatenate(parts) for parts in zip(*sources))


@dataclass(frozen=True)
class _Layout:
    """Index maps of a patch's skeleton system, relative to the patch's first
    node and first element, so every patch of one shape (see `_layout_key`)
    shares them.

    `rows` are the free nodes, `on_rim` marks those on the skeleton and
    `interior` (elements, n_I) holds the positions in `rows` of each
    element's interior nodes; `local` (elements, 4r) is the skeleton
    position of each element's rim nodes (-1 where constrained) and
    `outside` the elements around the patch.  The skeleton matrix in CSC
    form has the pattern (`indices`, `indptr`); its stored entry q sums the
    values at take[starts[q]:starts[q+1]] of the patch's S_e entries
    followed by the outside elements' B_RR diagonals, all flattened.
    """

    rows: np.ndarray
    on_rim: np.ndarray
    interior: np.ndarray
    local: np.ndarray
    outside: np.ndarray
    take: np.ndarray
    starts: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _layout_key(coarse, j, m):
    """The m-layer patches of elements with equal keys differ only by a
    translation (see `_Layout`): the key holds element j's distances to the
    four domain edges, in elements, clipped at m + 1."""
    I, J = coarse.element_ij(j)
    return tuple(min(d, m + 1) for d in (I, coarse.NH - 1 - I, J, coarse.NH - 1 - J))


def _skeleton_layout(cond, patch, strict_zero_trace):
    """The skeleton layout of `patch` (see `_Layout`).

    A free rim node on the domain boundary at the edge of the patch also
    carries the B_RR diagonal of the elements outside the patch that share
    it, as the uncondensed patch system is a principal submatrix of the
    global B.
    """
    rows = patch.free_nodes(strict_zero_trace)
    on_rim = cond.on_rim[rows]
    n = np.count_nonzero(on_rim)
    at = np.full(cond.on_rim.size, -1)
    at[rows[on_rim]] = np.arange(n)
    elements = patch.elements
    local = at[cond.rim_nodes[elements]]
    outside = np.setdiff1d(oversample(patch.coarse, patch.center, patch.m + 1).elements, elements)
    shared = at[cond.rim_nodes[outside]]
    i, k = np.broadcast_arrays(local[:, :, None], local[:, None, :])
    row = np.concatenate([i.ravel(), shared.ravel()])
    col = np.concatenate([k.ravel(), shared.ravel()])
    kept = np.flatnonzero((row >= 0) & (col >= 0))
    entry = col[kept] * n + row[kept]
    by_entry = np.argsort(entry)  # CSC order
    entry = entry[by_entry]
    new = np.flatnonzero(np.diff(entry, prepend=-1))
    return _Layout(
        rows=rows - patch.nodes[0],
        on_rim=on_rim,
        interior=np.searchsorted(rows, cond.interior_nodes[elements]),
        local=local,
        outside=outside - elements[0],
        take=kept[by_entry],
        starts=new,
        indices=entry[new] % n,
        indptr=np.searchsorted(entry[new] // n, np.arange(n + 1)),
    )


def _skeleton_solve(cond, patch, layout, sources, n_cols, error=SingularLocalSystem):
    """Solve the bordered system of `patch` on its free rim nodes, then
    recover the element interiors.

    The skeleton system sums the Schur complements S_e of the patch's
    elements on its free rim nodes (see `_skeleton_layout`).  Source s of
    `sources` = (elements, columns, rim, interior) adds its condensed
    right-hand side rim[s] on the rim nodes of elements[s] and the interior
    particular solution interior[s] to column columns[s].  Returns (free
    rows, solutions on them, (skeleton unknowns, L+U fill)).
    """
    if layout.rows.size == 0:
        raise error(f"element {patch.center}, m={patch.m}: patch has no unconstrained nodes")
    elements = patch.elements
    n = layout.indptr.size - 1
    values = np.concatenate([
        cond.S[elements].ravel(), cond.diag[layout.outside + elements[0]].ravel()
    ])
    S = sp.csc_matrix(
        (np.add.reduceat(values[layout.take], layout.starts), layout.indices, layout.indptr),
        shape=(n, n),
    )
    src_elements, src_cols, src_rim, src_interior = sources
    e = np.searchsorted(elements, src_elements)
    rhs = np.zeros((n + 1, n_cols), dtype=complex)  # constrained nodes land in row -1
    np.add.at(rhs, (layout.local[e], src_cols[:, None]), src_rim)
    try:
        F = kernels.factorize(S)
        sol = F.solve(rhs[:n])
    except SingularMatrix as exc:
        raise error(
            f"element {patch.center}, m={patch.m}: constrained system is singular: {exc}"
        ) from exc
    interior = -(cond.W[elements] @ np.concatenate([sol, np.zeros((1, n_cols))])[layout.local])
    np.add.at(interior, (e[:, None], np.arange(interior.shape[1]), src_cols[:, None]), src_interior)
    vals = np.empty((layout.rows.size, n_cols), dtype=complex)
    vals[layout.on_rim] = sol
    vals[layout.interior] = interior
    return layout.rows + patch.nodes[0], vals, (n, F.fill)


def local_cem_solve(j, m, forms, P, strict_zero_trace=False, adjoint=False):
    """All nbf trial vectors of element j on its m-layer patch, zero-extended.

    With `adjoint` the patch system of conj(B) is solved instead (an
    independent check of the conjugate test vectors)."""
    cond = _condense(forms, P)
    patch = oversample(forms.coarse, j, m)
    rows, vals, _ = _skeleton_solve(
        cond.conj() if adjoint else cond, patch, _skeleton_layout(cond, patch, strict_zero_trace),
        _trial_sources(cond, [j]), P.nbf,
    )
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

    `G` is the coarse matrix Psi^T B Psi of `forms.B` and `condensation` the
    element condensation the patch solves read; all three are read-only, and
    the spaces `build_space` returns for one (forms, P, m, strict_zero_trace)
    share them.  `corrector` is the space's own summed localized data solve
    (None when it was built without load blocks).
    """

    forms: object
    m: int
    strict_zero_trace: bool
    trial: sp.csc_matrix
    G: sp.csc_matrix
    condensation: "Condensation"
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


def _new_space(forms, m, strict_zero_trace, trial, corrector, condensation):
    """The space of a newly built trial matrix: freezes it and forms G.

    G = (B Psi)^T Psi, equal to Psi^T B Psi as B is complex symmetric, comes
    out as CSC, the format the sparse coarse LU reads without a copy.
    """
    trial = _read_only(trial)
    G = _read_only((forms.B @ trial).T @ trial)
    return MultiscaleSpace(forms, m, strict_zero_trace, trial, G, condensation, corrector)


def _solve_patches(cond, forms, P, m, strict_zero_trace, load_blocks, with_trial):
    """Skeleton solves on the patches of every element (`with_trial`) or of
    the loaded ones, one factorization each.

    With `with_trial`, each patch solves its nbf trial columns, returned as
    the columns of the trial matrix; the patch of an element with a nonzero
    load block also solves its data column, summed into the corrector.
    Returns (trial matrix or None, corrector or None).
    """
    n, N = forms.grid.n_nodes, forms.coarse.n_elements
    nbf = P.nbf if with_trial else 0
    loads, corrector = {}, None
    if load_blocks is not None:
        corrector = np.zeros(n, dtype=complex)
        loaded = np.flatnonzero(np.any(load_blocks != 0, axis=1))
        sources = _load_sources(forms, P, loaded, load_blocks[loaded], nbf)
        loads = {int(j): tuple(a[[s]] for a in sources) for s, j in enumerate(loaded)}
    data, indices, indptr = [], [], [0]
    unknowns = fill = 0
    key = layout = None
    for j in range(N) if with_trial else loads:
        patch = oversample(forms.coarse, j, m)
        if _layout_key(forms.coarse, j, m) != key:  # neighbours in a row mostly share it
            key = _layout_key(forms.coarse, j, m)
            layout = _skeleton_layout(cond, patch, strict_zero_trace)
        sources = [_trial_sources(cond, [j])] if with_trial else []
        if j in loads:
            sources.append(loads[j])
        rows, vals, (size, lu) = _skeleton_solve(
            cond, patch, layout, _join(*sources), nbf + (j in loads)
        )
        unknowns, fill = unknowns + size, fill + lu
        for i in range(nbf):
            data.append(vals[:, i])
            indices.append(rows)
            indptr.append(indptr[-1] + rows.size)
        if j in loads:
            corrector[rows] += vals[:, nbf]
    log.debug(
        "build_space: %d patches factorized, %d skeleton unknowns, L+U fill %d",
        N if with_trial else len(loads), unknowns, fill,
    )
    if not with_trial:
        return None, corrector
    trial = sp.csc_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(n, N * P.nbf),
    )
    return trial, corrector


def build_space(forms, P, m, strict_zero_trace=False, load_blocks=None):
    """Trial space of all N*nbf localized basis vectors (deterministic order).

    With `load_blocks` (per-element data loads, shape (N, p), see
    assembly.element_loads) the space also carries the summed localized
    data solve as its corrector.  The trial matrix and G do not depend on
    the data: P keeps the space it last built, and a call for the same
    forms object, m and strict_zero_trace reuses its trial, G and element
    condensation and solves only the loaded patches (see the module
    docstring).
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
        _, corrector = _solve_patches(
            space.condensation, forms, P, m, strict_zero_trace, load_blocks, with_trial=False
        )
        return replace(space, corrector=corrector)
    P.space = None  # free the previous trial, G and condensation before building the next
    cond = _condense(forms, P)
    trial, corrector = _solve_patches(
        cond, forms, P, m, strict_zero_trace, load_blocks, with_trial=True
    )
    P.space = _new_space(forms, m, strict_zero_trace, trial, corrector, cond)
    return P.space


def build_global_space(forms, P, loads=None, strict_zero_trace=False):
    """Unlocalized bases: the constrained problem on the domain patch
    `oversample(coarse, 0, NH - 1)`, one factorization for all N*nbf
    right-hand sides, as `build_space` with m = NH - 1.  With `loads` (full
    fine load vector) the global data corrector is solved alongside; a
    vector without one entry per fine node raises DimensionMismatch."""
    coarse = forms.coarse
    N, n = coarse.n_elements, forms.grid.n_nodes
    cond = _condense(forms, P)
    sources = [_trial_sources(cond, np.arange(N))]
    if loads is not None:
        loads = np.asarray(loads)
        if loads.shape != (n,):
            raise DimensionMismatch(f"load vector of shape {loads.shape} against {n} nodes")
        # each node's load shared equally among the elements that hold it
        shares = np.bincount(coarse.element_nodes.ravel(), minlength=n)
        blocks = (loads / shares)[coarse.element_nodes]
        sources.append(_load_sources(forms, P, np.arange(N), blocks, N * P.nbf))
    patch = oversample(coarse, 0, coarse.NH - 1)
    rows, vals, _ = _skeleton_solve(
        cond, patch, _skeleton_layout(cond, patch, strict_zero_trace), _join(*sources),
        N * P.nbf + (loads is not None), error=SingularGlobalSystem,
    )
    full = np.zeros((n, vals.shape[1]), dtype=complex)
    full[rows] = vals
    corrector = None if loads is None else full[:, N * P.nbf].copy()
    trial = sp.csc_matrix(full[:, :N * P.nbf])
    return _new_space(forms, -1, strict_zero_trace, trial, corrector, cond)


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
