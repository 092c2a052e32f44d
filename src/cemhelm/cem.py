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
the patch's elements.  Patches of one shape (`_layout_key`: the element's
distances to the domain edges, clipped at m + 1) differ by a translation,
so a shape class shares the skeleton's index maps, its CSC pattern and the
offsets that place them on a patch (`_Layout`), and also its fill-reducing
ordering: the first patch of a class is factorized by the minimum-degree
LU of `kernels.factorize`, and its ordering renumbers the skeleton of the
rest of the class, which is gathered straight into the ordered pattern and
factorized as it is.  Every later patch costs a gather, a numeric LU and
the batched interior product.  A singular or ill-conditioned Z_e (k H / eps
far beyond the resolution condition) raises SingularLocalSystem naming the
element.  Test vectors are the conjugates of the trial vectors; the
independent adjoint solve (the condensation of conj(B), which conjugates
only S_e and the B_RR diagonals) is kept for cross-validation.

The offline build is streamed over element rows.  The main thread solves
the patches row by row, writing each trial column into arrays allotted in
advance.  G = (B Psi)^T Psi needs, for the rows of element row b, only the
trial columns of rows b - (2m + 1) ... b + (2m + 1): two patches whose
elements lie 2m + 1 elements apart still meet through B where a patch edge
on the domain boundary keeps its free nodes.  So once row b + 2m + 1 is
solved, a worker thread forms G's rows of element row b (`_CoarseStrips`);
the main thread forms the last strips itself once the patches are done,
and G, stored CSR, is the stack of its row strips.  Each entry is summed in
the order of the one product (B Psi)^T Psi, so G is bitwise that product.
The split follows the GIL: the patch loop is Python and small numpy calls
that hold it, and SuperLU on these small skeletons gains nothing from a
second thread, while scipy's sparse products release it.  The worker count
is the number of CPUs the process may use, less one, and at least one;
nothing else sets it.  `build_global_space` forms its G through the same
strips, each reaching over the whole domain.

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
it factorized, how many of them in a reused class ordering and how many
fresh, their skeleton unknowns, the summed L+U fill, and the G strips with
the seconds spent forming them and the final wait for them.

The basis vectors decay exponentially away from their element, and so do
the entries of G.  A coarse system larger than DENSE_LIMIT is therefore
solved by GMRES on G, preconditioned by the sparse LU of its near field,
the entries between elements within Chebyshev distance NEAR_FIELD, which
holds a sixth of G's entries and a quarter of its LU fill at H = 1/40, m = 3.
GMRES stops at a relative residual of 1e-12; when it does not get there in
two cycles of 100 iterations, the near-field LU is dropped and G's own LU
solves the system.  Either branch, dense or sparse, ends with a backward
error guard: a solution with |G c - b| > 1e-10 (|G| |c| + |b|), in max
norms, raises SingularCoarseSystem instead of returning a field; |G| is
formed once per space.
"""

import csv
import logging
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
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
    4r rim nodes it shares with its neighbours (`rim_nodes[e]`, the first
    one its bottom-left corner); `on_rim` marks the fine nodes on some
    element's rim.  Z_e couples the interior nodes and the border unknowns
    y_e, C_e = [B_IR; U_R^T] couples them to the rim, and both are real.
    Stacked by element:

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
    shares them.  The patch of element j starts at node
    rim_nodes[j, 0] - node_shift and element j - element_shift.

    `rows` are the free nodes and `skeleton` the positions in `rows` of the
    skeleton unknowns, in skeleton order; `interior` (elements, n_I) holds
    the positions in `rows` of each element's interior nodes, `elements`
    the patch's elements and `local` (elements, 4r) the skeleton position of
    each element's rim nodes (-1 where constrained).  The skeleton matrix in
    CSC form has the pattern (`indices`, `indptr`); its stored entry q sums
    the flattened S at (first element) * 16 r^2 + take[starts[q]:starts[q+1]],
    the patch's S_e entries, and entry outer[t] also gets the flattened diag
    at (first element) * 4r + outer_take[t], the B_RR diagonals of the
    elements around the patch.  In an `ordered` layout the
    skeleton is numbered in the fill-reducing order of its class, so its
    matrix is factorized as it is.
    """

    node_shift: int
    element_shift: int
    rows: np.ndarray
    skeleton: np.ndarray
    interior: np.ndarray
    elements: np.ndarray
    local: np.ndarray
    take: np.ndarray
    starts: np.ndarray
    outer: np.ndarray
    outer_take: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    ordered: bool


def _layout_key(coarse, j, m):
    """The m-layer patches of elements with equal keys differ only by a
    translation (see `_Layout`): the key holds element j's distances to the
    four domain edges, in elements, clipped at m + 1."""
    I, J = coarse.element_ij(j)
    return tuple(min(d, m + 1) for d in (I, coarse.NH - 1 - I, J, coarse.NH - 1 - J))


def _skeleton_layout(cond, coarse, j, m, strict_zero_trace, order=None):
    """The skeleton layout of element j's m-layer patch (see `_Layout`),
    numbered in `order` (a `kernels.Factorization.perm_c` of the layout
    without one) if given.

    A free rim node on the domain boundary at the edge of the patch also
    carries the B_RR diagonal of the elements outside the patch that share
    it, as the uncondensed patch system is a principal submatrix of the
    global B.
    """
    patch = oversample(coarse, j, m)
    rows = patch.free_nodes(strict_zero_trace)
    skeleton = np.flatnonzero(cond.on_rim[rows])
    n = skeleton.size
    if order is not None:
        skeleton = skeleton[np.argsort(order)]
    at = np.full(cond.on_rim.size, -1)
    at[rows[skeleton]] = np.arange(n)
    elements = patch.elements
    outside = np.setdiff1d(oversample(coarse, j, m + 1).elements, elements)
    local = at[cond.rim_nodes[elements]]
    shared = at[cond.rim_nodes[outside]]
    i, k = np.broadcast_arrays(local[:, :, None], local[:, None, :])
    r4 = local.shape[1]
    first = elements[0]
    kept = np.flatnonzero((i >= 0) & (k >= 0))
    entry = k.ravel()[kept] * n + i.ravel()[kept]
    by_entry = np.argsort(entry)  # CSC order
    entry = entry[by_entry]
    new = np.flatnonzero(np.diff(entry, prepend=-1))
    outer = np.flatnonzero(shared >= 0)
    at_outer = shared.ravel()[outer]
    return _Layout(
        node_shift=cond.rim_nodes[j, 0] - patch.nodes[0],
        element_shift=j - first,
        rows=rows - patch.nodes[0],
        skeleton=skeleton,
        interior=np.searchsorted(rows, cond.interior_nodes[elements]),
        elements=elements - first,
        local=local,
        take=((elements - first)[:, None] * r4 * r4 + np.arange(r4 * r4)).ravel()[kept[by_entry]],
        starts=new,
        outer=np.searchsorted(entry[new], at_outer * (n + 1)),
        outer_take=((outside - first)[:, None] * r4 + np.arange(r4)).ravel()[outer],
        indices=(entry[new] % n).astype(np.intc),
        indptr=np.searchsorted(entry[new] // n, np.arange(n + 1)).astype(np.intc),
        ordered=order is not None,
    )


def _skeleton_solve(cond, layout, j, m, sources, n_cols, error=SingularLocalSystem):
    """Solve the bordered system of element j's m-layer patch on its free
    rim nodes, then recover the element interiors.

    The skeleton system sums the Schur complements S_e of the patch's
    elements on its free rim nodes (see `_skeleton_layout`).  Source s of
    `sources` = (elements, columns, rim, interior) adds its condensed
    right-hand side rim[s] on the rim nodes of elements[s] and the interior
    particular solution interior[s] to column columns[s].  Returns (free
    rows, solutions on them, the skeleton's factorization).
    """
    if layout.rows.size == 0:
        raise error(f"element {j}, m={m}: patch has no unconstrained nodes")
    first = j - layout.element_shift
    elements = layout.elements + first
    n = layout.indptr.size - 1
    r4 = layout.local.shape[1]
    values = np.add.reduceat(cond.S.ravel()[layout.take + first * r4 * r4], layout.starts)
    np.add.at(values, layout.outer, cond.diag.ravel()[layout.outer_take + first * r4])
    S = sp.csc_matrix((values, layout.indices, layout.indptr), shape=(n, n))
    src_elements, src_cols, src_rim, src_interior = sources
    e = np.searchsorted(elements, src_elements)
    rhs = np.zeros((n + 1, n_cols), dtype=complex)  # constrained nodes land in row -1
    np.add.at(rhs, (layout.local[e], src_cols[:, None]), src_rim)
    try:
        F = kernels.factorize(S, ordered=layout.ordered)
        rhs[:n] = F.solve(rhs[:n])
    except SingularMatrix as exc:
        raise error(f"element {j}, m={m}: constrained system is singular: {exc}") from exc
    rhs[n] = 0.0
    interior = -(cond.W[elements] @ rhs[layout.local])
    np.add.at(interior, (e[:, None], np.arange(interior.shape[1]), src_cols[:, None]), src_interior)
    vals = np.empty((layout.rows.size, n_cols), dtype=complex)
    vals[layout.skeleton] = rhs[:n]
    vals[layout.interior] = interior
    return layout.rows + (cond.rim_nodes[j, 0] - layout.node_shift), vals, F


def local_cem_solve(j, m, forms, P, strict_zero_trace=False, adjoint=False):
    """All nbf trial vectors of element j on its m-layer patch, zero-extended.

    With `adjoint` the patch system of conj(B) is solved instead (an
    independent check of the conjugate test vectors)."""
    cond = _condense(forms, P)
    rows, vals, _ = _skeleton_solve(
        cond.conj() if adjoint else cond,
        _skeleton_layout(cond, forms.coarse, j, m, strict_zero_trace), j, m,
        _trial_sources(cond, [j]), P.nbf,
    )
    psi = np.zeros((forms.grid.n_nodes, P.nbf), dtype=complex)
    psi[rows] = vals
    return psi, oversample(forms.coarse, j, m)


def test_basis(trial):
    """Test vectors: conjugates of the trial vectors (the local systems are
    complex symmetric with real right-hand sides)."""
    return np.conj(trial) if isinstance(trial, np.ndarray) else trial.conj()


@dataclass
class MultiscaleSpace:
    """Trial vectors as columns of a sparse matrix, column p = j*nbf + i.

    `G` is the coarse matrix Psi^T B Psi of `forms.B`, `G_norm` its max-norm
    |G|_inf (see `_inf_norm`) and `condensation` the element condensation
    the patch solves read; all are read-only, and the spaces `build_space`
    returns for one (forms, P, m, strict_zero_trace) share them.
    `corrector` is the space's own summed localized data solve (None when
    it was built without load blocks).
    """

    forms: object
    m: int
    strict_zero_trace: bool
    trial: sp.csc_matrix
    G: sp.csr_matrix
    G_norm: float
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


def _inf_norm(G):
    """|G|_inf, the largest absolute row sum of G, sparse in any format or dense."""
    return (abs(G) @ np.ones(G.shape[1])).max()


def _new_space(forms, m, strict_zero_trace, trial, G, corrector, condensation):
    """The space of a newly built trial matrix and its G: freezes both."""
    trial, G = _read_only(trial), _read_only(G)
    return MultiscaleSpace(
        forms, m, strict_zero_trace, trial, G, _inf_norm(G), condensation, corrector
    )


def _columns(A, start, stop):
    """Columns start:stop of the CSC matrix A, sharing its data and indices."""
    lo, hi = A.indptr[start], A.indptr[stop]
    return sp.csc_matrix(
        (A.data[lo:hi], A.indices[lo:hi], A.indptr[start:stop + 1] - lo),
        shape=(A.shape[0], stop - start),
    )


def _g_workers():
    """Worker threads forming G: the CPUs this process may run on, less the
    one that solves the patches, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) - 1)


def _coarse_rows(B, trial_b, trial_near, first, n):
    """Rows (B Psi_b)^T Psi_near of G in canonical CSR form over all n of
    G's columns, Psi_near being the trial columns first, first + 1, ..."""
    strip = ((B @ trial_b).T @ trial_near).tocsr()
    return sp.csr_matrix((strip.data, strip.indices + first, strip.indptr),
                         shape=(strip.shape[0], n))


class _CoarseStrips:
    """G = (B Psi)^T Psi formed on worker threads, strip by strip, while the
    patch solves of later element rows go on.

    G's entries couple elements at most `reach` element rows and columns
    apart.  So once the trial columns of rows up to b + reach are solved, a
    worker forms the rows of G belonging to element row b, (B Psi_b)^T
    Psi_near, with Psi_near the columns of rows b - reach ... b + reach.
    Each entry is summed in the order of the one product (B Psi)^T Psi, so
    G is bitwise that product, whatever the number of workers or the order
    the strips finish in.  G, stored CSR, is the stack of the row strips.
    """

    def __init__(self, B, trial, NH, reach):
        self._B, self._trial, self._NH, self._reach = B, trial, NH, reach
        self._width = trial.shape[1] // NH
        self._pool = ThreadPoolExecutor(_g_workers(), thread_name_prefix="cemhelm-G")
        self._solved = 0  # element rows whose trial columns are final
        self.strips = []  # futures of the row strips formed or under way
        self.busy = []  # seconds of each strip formed, on any thread
        self.wait = 0.0  # seconds `matrix` took after the last patch

    def _timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy.append(time.perf_counter() - start)

    def row_solved(self):
        """The trial columns of the next element row are final."""
        self._solved += 1
        if self._solved > self._reach:
            self._add_strip(self._solved - 1 - self._reach)

    def _strip(self, b):
        """The function and arguments forming row strip b."""
        lo, hi = max(b - self._reach, 0), min(b + self._reach, self._NH - 1)
        w = self._width
        return (_coarse_rows, self._B, _columns(self._trial, b * w, (b + 1) * w),
                _columns(self._trial, lo * w, (hi + 1) * w), lo * w, self._NH * w)

    def _add_strip(self, b):
        self.strips.append(self._pool.submit(self._timed, *self._strip(b)))

    def matrix(self):
        """G in CSR form, once every element row is solved; a strip that
        failed raises here.  The calling thread forms the last strips that no
        worker has started, while the workers go on with the first."""
        for b in range(len(self.strips), self._NH):
            self._add_strip(b)
        start = time.perf_counter()
        for b in reversed(range(self._NH)):
            if self.strips[b].cancel():
                self.strips[b] = Future()
                self.strips[b].set_result(self._timed(*self._strip(b)))
        G = sp.vstack([f.result() for f in self.strips], format="csr")
        self.wait = time.perf_counter() - start
        return G

    def close(self):
        """Stop the workers: queued strips are dropped, running ones finish."""
        self._pool.shutdown(wait=True, cancel_futures=True)


def _empty_trial(coarse, m, strict_zero_trace, nbf):
    """The CSC trial matrix with its column pointers set, each column
    holding its patch's free nodes (counted once per shape class), and its
    row indices and values still to be written."""
    counts, per_key = [], {}
    for j in range(coarse.n_elements):
        key = _layout_key(coarse, j, m)
        if key not in per_key:
            per_key[key] = oversample(coarse, j, m).free_nodes(strict_zero_trace).size
        counts += [per_key[key]] * nbf
    n, nnz = coarse.fine.n_nodes, sum(counts)
    index = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    return sp.csc_matrix(
        (np.empty(nnz, dtype=complex), np.zeros(nnz, dtype=index),
         np.concatenate([[0], np.cumsum(counts)]).astype(index)),
        shape=(n, len(counts)),
    )


def _solve_patches(cond, forms, P, m, strict_zero_trace, load_blocks, with_trial):
    """Skeleton solves on the patches of every element (`with_trial`) or of
    the loaded ones, one factorization each, in element order.

    With `with_trial`, each patch solves its nbf trial columns, written into
    the preallocated arrays of the trial matrix; each finished element row
    goes to the G workers (`_CoarseStrips`).  The patch of an element with a
    nonzero load block also solves its data column, summed into the
    corrector.  Offline, the first patch of each shape class is factorized
    in a minimum-degree order of its own, and the class's second patch
    renumbers the layout in that order for the rest of the class.  Online,
    the few loaded patches rarely repay the renumbering, so each is
    factorized in its own order, sharing only the layout.  The classes of an element row recur only in the
    rows of the same distances to the bottom and top edges, which follow it,
    so the layouts are dropped whenever those change.  Returns (trial
    matrix or None, G or None, corrector or None).
    """
    coarse = forms.coarse
    n, N, NH = forms.grid.n_nodes, coarse.n_elements, coarse.NH
    nbf = P.nbf if with_trial else 0
    loads, corrector = {}, None
    if load_blocks is not None:
        corrector = np.zeros(n, dtype=complex)
        loaded = np.flatnonzero(np.any(load_blocks != 0, axis=1))
        sources = _load_sources(forms, P, loaded, load_blocks[loaded], nbf)
        loads = {int(j): tuple(a[[s]] for a in sources) for s, j in enumerate(loaded)}
    trial = strips = G = None
    if with_trial:
        trial = _empty_trial(coarse, m, strict_zero_trace, nbf)
        strips = _CoarseStrips(forms.B, trial, NH, 2 * m + 1)
    layouts, orders, edges = {}, {}, None
    reused = unknowns = fill = 0
    try:
        for j in range(N) if with_trial else loads:
            key = _layout_key(coarse, j, m)
            if key[2:] != edges:
                layouts, orders, edges = {}, {}, key[2:]
            if key in orders:
                layouts[key] = _skeleton_layout(
                    cond, coarse, j, m, strict_zero_trace, orders.pop(key))
            layout = layouts.get(key)
            if layout is None:
                layout = layouts[key] = _skeleton_layout(cond, coarse, j, m, strict_zero_trace)
            reused += layout.ordered
            sources = [_trial_sources(cond, [j])] if with_trial else []
            if j in loads:
                sources.append(loads[j])
            rows, vals, F = _skeleton_solve(
                cond, layout, j, m, _join(*sources), nbf + (j in loads)
            )
            if with_trial and not layout.ordered:
                orders[key] = F.perm_c
            unknowns, fill = unknowns + F.shape[0], fill + F.fill
            if with_trial:
                lo, hi = trial.indptr[j * nbf], trial.indptr[(j + 1) * nbf]
                trial.data[lo:hi].reshape(nbf, -1)[:] = vals[:, :nbf].T
                trial.indices[lo:hi].reshape(nbf, -1)[:] = rows
                if j % NH == NH - 1:
                    strips.row_solved()
            if j in loads:
                corrector[rows] += vals[:, nbf]
        if strips is not None:
            G = strips.matrix()
    finally:
        if strips is not None:
            strips.close()
    patches = N if with_trial else len(loads)
    log.debug(
        "build_space: %d patches factorized (%d in a reused class ordering, %d fresh), "
        "%d skeleton unknowns, L+U fill %d; %d G strips, %.2f s forming them, "
        "final wait %.2f s",
        patches, reused, patches - reused, unknowns, fill,
        *((len(strips.strips), sum(strips.busy), strips.wait) if strips else (0, 0.0, 0.0)),
    )
    return trial, G, corrector


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
        _, _, corrector = _solve_patches(
            space.condensation, forms, P, m, strict_zero_trace, load_blocks, with_trial=False
        )
        return replace(space, corrector=corrector)
    P.space = None  # free the previous trial, G and condensation before building the next
    cond = _condense(forms, P)
    trial, G, corrector = _solve_patches(
        cond, forms, P, m, strict_zero_trace, load_blocks, with_trial=True
    )
    P.space = _new_space(forms, m, strict_zero_trace, trial, G, corrector, cond)
    return P.space


def build_global_space(forms, P, loads=None, strict_zero_trace=False):
    """Unlocalized bases: the constrained problem on the domain patch
    `oversample(coarse, 0, NH - 1)`, one factorization for all N*nbf
    right-hand sides, as `build_space` with m = NH - 1.  With `loads` (full
    fine load vector) the global data corrector is solved alongside; a
    vector without one entry per fine node raises DimensionMismatch.  G
    comes from the same strips as in `build_space`, each reaching over all
    element rows."""
    coarse = forms.coarse
    N, n, NH = coarse.n_elements, forms.grid.n_nodes, coarse.NH
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
    rows, vals, _ = _skeleton_solve(
        cond, _skeleton_layout(cond, coarse, 0, NH - 1, strict_zero_trace), 0, NH - 1,
        _join(*sources), N * P.nbf + (loads is not None), error=SingularGlobalSystem,
    )
    full = np.zeros((n, vals.shape[1]), dtype=complex)
    full[rows] = vals
    corrector = None if loads is None else full[:, N * P.nbf].copy()
    trial = sp.csc_matrix(full[:, :N * P.nbf])
    strips = _CoarseStrips(forms.B, trial, NH, NH)
    try:
        G = strips.matrix()
    finally:
        strips.close()
    return _new_space(forms, -1, strict_zero_trace, trial, G, corrector, cond)


@dataclass
class CoarseSystem:
    """G c = b; `G_norm` is |G|_inf, the space's when `assemble_coarse`
    made the system, else computed here.  A hand-made system's G may be
    sparse in any format or dense."""

    G: sp.csr_matrix
    b: np.ndarray
    nbf: int
    G_norm: float = None

    def __post_init__(self):
        if self.G_norm is None:
            self.G_norm = _inf_norm(self.G)

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
    if loads.shape != (space.trial.shape[0],):
        raise DimensionMismatch(
            f"load vector of shape {loads.shape} against {space.trial.shape[0]} nodes"
        )
    rhs_fine = loads.astype(complex)
    if space.corrector is not None:
        rhs_fine = rhs_fine - forms.B @ space.corrector
    b = space.trial.T @ rhs_fine
    return CoarseSystem(space.G, np.asarray(b).ravel(), space.nbf, space.G_norm)


def _near_field(G, NH, nbf):
    """The entries of the CSR or CSC matrix G whose two coarse elements lie
    within Chebyshev distance NEAR_FIELD, in G's format.  Element e of
    coarse dof p is p // nbf, at position (e % NH, e // NH)."""
    e = np.arange(G.shape[0], dtype=G.indices.dtype) // nbf
    x, y = e % NH, e // NH
    counts = np.diff(G.indptr)
    keep = np.abs(x[G.indices] - np.repeat(x, counts)) <= NEAR_FIELD
    keep &= np.abs(y[G.indices] - np.repeat(y, counts)) <= NEAR_FIELD
    indptr = np.concatenate([[0], np.cumsum(keep)])[G.indptr]
    return type(G)((G.data[keep], G.indices[keep], indptr), shape=G.shape)


def _near_field_solve(G, b, NH, nbf):
    """Solve G c = b, G in CSR or CSC form, by GMRES preconditioned with the
    LU of its near field, or, when GMRES does not converge, by the LU of G."""
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


def _check_backward_error(G, b, c, scale, diag):
    """Raise SingularCoarseSystem unless the normwise backward error
    |G c - b| / (|G| |c| + |b|), in max norms, is at most 1e-10; `scale` is
    |G|_inf."""
    residual = np.abs(G @ c - b).max()
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
    G, b = sp.csr_matrix(system.G), system.b
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
    _check_backward_error(G, b, c, system.G_norm, diag)
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
    if np.shape(w) != (forms.grid.n_nodes,):
        raise DimensionMismatch(f"w of shape {np.shape(w)} against {forms.grid.n_nodes} nodes")
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
