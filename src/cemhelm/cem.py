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
one batched dense solve per chunk of elements (`assembly._element_chunks`,
whose (chunk, p, p) stacks stay within a few MB), leaving a dense Schur
complement S_e on its 4r rim nodes (see `Condensation`).  Z_e and its
coupling C_e to the rim are real, as the boundary mass lives on rim nodes;
only B_RR carries -ik Mb.  So Z_e and C_e are equal across a kind of
element (`P.kinds`, see `spectral`) and solved once per kind, as the DEBUG
log counts, and the real interior map W = Z_e^-1 C_e is kept once per
kind.  A patch system is then the sum of S_e over the patch's elements on
its free rim nodes, the skeleton, with a fraction of the patch's unknowns
and LU fill; its right-hand sides enter through one element's rim, and the
interiors come back from one product per kind with that kind's W, over
all the batch's elements of the kind.  Patches of one shape (`_layout_keys`:
the element's distances to the domain edges, clipped at m + 1) differ by a
translation, so a shape class shares the skeleton's index maps, its CSC
pattern and the offsets that place them on a patch (`_Layout`), and also
its fill-reducing order.  The skeleton is a grid of element rims, which
nested dissection along the element lines orders from the geometry alone
(`_dissection`), so the layout numbers the skeleton in that order and
every patch is gathered straight into the ordered pattern and factorized
as it is.  The patches of one class in one element row are solved as one
batch (`_solve_batch`, then `_finish_batch`) with one block of right-hand
sides; each patch's skeleton values are gathered just before its numeric
LU, into the batch's one pattern, so a build holds one patch's gather at a
time.  Every batch makes its layout from the space's plan
(`_LayoutPlan.layout`), which packs a class the first time a batch of it
asks, so a build holds one full layout at a time.  A singular or
ill-conditioned Z_e (k H / eps far beyond the resolution condition) raises
SingularLocalSystem naming the element (for a kind, its lowest-index
element).  Test vectors are the conjugates of the trial vectors, as the
local systems are complex symmetric with real right-hand sides.

So on each element e of its patch a trial vector is fixed by its values
x_e on e's rim: its interior is -W_k x_e, plus the interior particular
solution of its mode on its own element.  The space keeps the trial
vectors condensed on the rims (`CondensedTrial`): each column's values on
its free rim nodes, and the few values on the rims of elements outside
its patch, where the free-node rule keeps the patch's nodes on the domain
boundary and the interior is zero, not -W_k x_e.  That halves the entries
stored at H = 1/40, m = 3 (1.24e6 of 2.39e6) and keeps a seventh of them
at H = 1/10, m = 2 on 120 x 120 cells.  Psi x and Psi^T y take one product
per kind with W, and the fine trial matrix is never formed.

G is summed from the same rim values (`_ElementProducts`): B is the sum
of the element matrices B_e, and on an element e of kind k a column's
values are E_k (x, a, z), from its rim values x and mode a on an element
of its patch, or its exceptions z on one outside it.  So G = sum_e V_e^T
S_e V_e, with V_e the coordinates of the columns touching e (4r + nbf
rows, 8r + nbf where e carries exceptions, against 169 fine nodes at
H = 1/10 on 120 x 120 cells), gathered from the skeleton through each
shape class's `_LayoutPlan.rim_offsets`, and S_e = E_k^T B_e E_k, real
and formed once per kind, plus -ik Mb_e on the rim blocks of a boundary
element.  G is (B Psi)^T Psi to rounding (5e-15 of its largest entry at
H = 1/10, m = 2 on 120 x 120 cells), with the product's pattern there
and at H = 1/40, m = 3.

The offline build runs on one thread in three steps (`build_space`).
First the patch solves, element row by element row (`_solve_patches`):
each batch is finished as soon as it is solved (`_solve_batch`), its
trial columns' rim values going into the skeleton allotted in advance and
into the exceptions, and its data columns' interiors (`_finish_batch`)
summed into the corrector in element order as the row ends.  Online
solves and `local_cem_solve` finish their batches the same way.  Then G
is formed from the finished `CondensedTrial` (`_ElementProducts`): the
products of element rows 0, 1, ... are added in turn, in chunks whose V_e
stay within a few MB, in double and in a fixed order, to the lower blocks
of G's element rows.  A column touches the elements within m + 1 rows of
its own, so once element row b is added G's row b - m - 1 is final.  G
is complex symmetric and couples elements at most 2m + 1 rows apart
(patches 2m + 1 elements apart still meet through B where a patch edge on
the domain boundary keeps its free nodes), so only its lower blocks within
2m + 1 rows are summed.  Each final row's lower strip is cut from them in
canonical CSR order, keeping the nonzero entries, and the magnitudes of
its entries go, in double, into the row sums of |G| in G's own order.
After the last row G, stored CSR, is completed once as the stacked strips
L plus the transpose of L's strict part, so G is exactly symmetric and
|G|_inf is bitwise that of the stored double G.  Above DENSE_LIMIT coarse
dofs (the sparse regime, see below) the blocks reach only NEAR_FIELD rows,
and each strip is cast to complex64 once cut: the space's G is the near
field alone in single precision, with the indices and |G|_inf of the
double near field.  Last, in the dense regime, `_new_space` factorizes G.

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
its own data corrector, the read-only condensed trial space, G = Psi^T B
Psi (or its near field, see below), G's dense LU up to DENSE_LIMIT dofs,
the element condensation and the layout of every shape class, kept
compactly (`_LayoutPlan`), all formed once, when the trial space is built;
`build_space` keeps the space it last built on the projection
(`P.space`).
A later call for the same forms object, m and strict_zero_trace returns
that space with a new corrector, solved only on the patches whose element
load block has a nonzero entry, one factorization and one right-hand side
each, in the layouts of their classes made from the space's plan, so
the online solves pack and order no layout; a load enters only through its
element's Z_e and rim, so only the loaded elements' data are condensed.
Skipping the other patches is exact, as the data column of a zero block is
exactly zero.  `assemble_coarse`
forms only Psi^T (b - B q), and the dense coarse solve of every source
only back-substitutes with the space's LU.  Each `build_space` logs at
DEBUG the patches it factorized, in how many batches, their skeleton
unknowns and summed L+U fill; the classes it packed into the space's plan,
the plan's bytes and the seconds spent making the batches' layouts,
packing and ordering included; offline, the elements whose products
formed G, the element rows G reaches, its stored entries and the seconds
of the products, the condensed trial's stored entries and bytes and the
bytes the space keeps in its condensation, in G and in G's dense LU.  The
dense LU of G logs its own line with its rcond.

The basis vectors decay exponentially away from their element, and so do
the entries of G.  `build_space` fixes, once, the regime the coarse system
is solved in (`MultiscaleSpace.near_field`), and `solve_multiscale` has one
path per regime.  A space of at most DENSE_LIMIT dofs keeps G's dense LU
with its reciprocal condition estimate, and each solve back-substitutes
with it, refusing a G singular to working precision, as linearly
dependent trial vectors make it.  A larger space is solved by flexible
GMRES on G (`kernels.fgmres`), preconditioned by the sparse LU of its near
field, the entries between elements within Chebyshev distance NEAR_FIELD,
which holds a sixth of G's entries and a quarter of its LU fill at
H = 1/40, m = 3.  That LU only preconditions, so it is formed in single
precision: the same fill in about half the memory, while GMRES iterates in
double precision.  Such a space stores only the near field, in complex64,
and SuperLU reads its CSR arrays as CSC, uncopied; GMRES applies the whole
G matrix-free, as Psi^T (B (Psi x)) (`_MatrixFreeG`) with the condensed
trial products, and with the preconditioned vectors upcast to complex128.
GMRES stops when its Arnoldi estimate of the relative residual reaches
1e-13 (at 1e-12 small generated systems missed a 1e-10 agreement with the
dense solve; 1e-14 lies below the true residual's rounding floor on
contrast-1e-3 channels at H = 1/40, m = 3).  When it does not get there
in two cycles of 100 iterations, or the near field is beyond single
precision's range (cast, an entry turned infinite), its LU singular or a
preconditioned vector not finite, the near-field LU is dropped, and the
whole G, formed in double by the element products at reach 2m + 1
(`_whole_g`), is solved by its own double LU.  GMRES does not check for a
singular G.  The GMRES logs at DEBUG its iterations, its flag, the
preconditioner's precision and L+U fill and its last residual estimate.
Either regime ends with a backward error guard: a solution with
|G c - b| > 1e-10 (|G| |c| + |b|), in max norms, or with a relative
residual |b - G c|_2 / |b|_2 above 1e-9 raises SingularCoarseSystem
instead of returning a field.  Its residual applies the whole G; its scale
|G| is the space's |G|_inf of the stored G in double, formed once per
space, which for a near-field space is |G_near|_inf, a lower bound of
|G|_inf, so the guard can only be stricter.  The relative residual, the
measured counterpart of GMRES's estimate, refuses the GMRES coefficients
of a G singular to working precision, whose large |c| keeps the backward
error small; the dense regime refuses such a G by its LU's condition
estimate.  Both are logged at DEBUG.
"""

import csv
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from . import kernels
from .errors import (
    DimensionMismatch,
    InvalidElement,
    SingularCoarseSystem,
    SingularLocalSystem,
    SingularMatrix,
)
from .assembly import (
    _element_chunks,
    _triplets_of,
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
    "CondensedTrial",
    "CoarseSystem",
    "local_cem_solve",
    "build_space",
    "assemble_coarse",
    "solve_multiscale",
    "measure_decay",
    "dump_basis",
]

log = logging.getLogger(__name__)

DENSE_LIMIT = 2000  # larger coarse systems go to the near-field GMRES

# Chebyshev distance, in coarse elements, within which the entries of G form
# the near field whose LU preconditions the coarse GMRES.  A space of more
# than DENSE_LIMIT dofs stores only this near field, and GMRES applies the
# whole G matrix-free.  Measured on one BLAS thread at H = 1/40, m = 3,
# nbf = 4 (6400 dofs): for the homogeneous plane wave the near field holds
# 16 % of G's 3.7e6 entries (0.60e6) and its LU 3.0e6 entries against 12.0e6
# for G's; GMRES needs 14 iterations and the solve takes 1.0 s against 4.6 s
# by the LU of G.  On contrast-1e-3 channels it needs 26 iterations (1.4 s
# against 4.4 s).  Distance 1 needs 37 and 70 iterations (1.1 and 1.7 s).
# (With the double LU and GMRES to 1e-12; the single-precision LU and the
# 1e-13 target of `_near_field_solve` take 15 and 23 iterations.)
NEAR_FIELD = 2

# An element block Z_e whose solve amplifies its right-hand sides beyond
# 1 / (_MIN_RCOND |Z_e|) is refused (see `_solve_elements`).
_MIN_RCOND = 1e-12


def _element_split(coarse):
    """Columns of `coarse.element_nodes` inside an element and on its rim."""
    edge = np.isin(np.arange(coarse.ratio + 1), (0, coarse.ratio))
    on_rim = (edge[:, None] | edge[None, :]).ravel()
    return np.flatnonzero(~on_rim), np.flatnonzero(on_rim)


def _element_forms(forms, elements):
    """Re B_e = K_e - k^2 M_e of `elements`, stacked, scattered from the
    element stencil with the interior nodes numbered first."""
    grid, coarse = forms.grid, forms.coarse
    interior, rim = _element_split(coarse)
    Ke, Me = element_matrices(grid.h, 1.0)
    coeffs = forms.medium.values[coarse.element_cells[elements]]
    stencil = np.argsort(np.concatenate([interior, rim]))[element_stencil(grid, coarse)]
    rows, cols, vals = element_triplets(stencil, Ke, coeffs)
    vals = vals - (forms.k * forms.k) * np.tile(Me.ravel(), coeffs.size)
    return element_blocks(rows, cols, vals, len(coeffs), coarse.element_nodes.shape[1])


def _element_systems(forms, P, elements):
    """Z_e, C_e and Re B_RR of `elements`, stacked (see `Condensation`).

    In Z_e the border unknowns y_e follow the interior nodes of
    `_element_forms`.  The boundary mass of B lives on rim nodes only
    (`_rim_boundary_mass`), so -ik Mb enters B_RR alone.
    """
    interior, rim = _element_split(forms.coarse)
    n_i, nbf = interior.size, P.nbf
    blocks = _element_forms(forms, elements)
    U = P.sphi[elements][:, np.concatenate([interior, rim])]
    Z = np.zeros((len(blocks), n_i + nbf, n_i + nbf))
    Z[:, :n_i, :n_i] = blocks[:, :n_i, :n_i]
    Z[:, :n_i, n_i:] = U[:, :n_i]
    Z[:, n_i:, :n_i] = U[:, :n_i].transpose(0, 2, 1)
    Z[:, n_i:, n_i:] = -np.eye(nbf)
    C = np.concatenate([blocks[:, :n_i, n_i:], U[:, n_i:].transpose(0, 2, 1)], axis=1)
    return Z, C, blocks[:, n_i:, n_i:]


def _rim_boundary_mass(forms, elements):
    """The boundary mass Mb of `elements` on their rim nodes, stacked."""
    coarse = forms.coarse
    p = coarse.element_nodes.shape[1]
    interior, rim = _element_split(coarse)
    at = np.argsort(np.concatenate([interior, rim])) - interior.size  # rim position of a node
    rows, cols, vals = _triplets_of(elements, p, *element_boundary_triplets(forms.grid, coarse))
    n = len(elements)
    return element_blocks(rows // p * rim.size + at[rows % p], at[cols % p], vals, n, rim.size)


def _solve_elements(forms, Z, rhs, elements):
    """Z_e^-1 rhs_e for the stack of element blocks Z_e of `elements`.

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
            f"element {elements[bad[0]]}: interior system is singular or ill-conditioned "
            f"(k*H/eps = {khe:.3g}; check resolution)"
        )
    return X


@dataclass(frozen=True)
class Condensation:
    """The bordered system of every element with its interior eliminated.

    Element e's nodes split into interior nodes (`interior_nodes[e]`) and the
    4r rim nodes it shares with its neighbours (`rim_nodes[e]`, the first
    one its bottom-left corner); `on_rim` marks the fine nodes on some
    element's rim, and `kind[e]` is e's kind (`P.kinds`).  Z_e couples the
    interior nodes and the border unknowns y_e, C_e = [B_IR; U_R^T] couples
    them to the rim, and both are real, so equal across a kind.  Stacked by
    kind:

    - W (kinds, n_I, 4r), real: the interior rows of Z^-1 C, element e's
      block W[kind[e]];

    and by element:

    - S (N, 4r, 4r), complex: the Schur complement B_RR - C^T Z^-1 C;
    - diag (N, 4r), complex: the diagonal of B_RR;
    - trial_rim (N, 4r, nbf), real: U_R - C^T Z^-1 [U_I; 0], the condensed
      right-hand sides of the element's trial columns;
    - trial_interior (N, n_I, nbf), real: the interior rows of Z^-1 [U_I; 0].
    """

    interior_nodes: np.ndarray
    rim_nodes: np.ndarray
    on_rim: np.ndarray
    kind: np.ndarray
    S: np.ndarray
    diag: np.ndarray
    W: np.ndarray
    trial_rim: np.ndarray
    trial_interior: np.ndarray

    @property
    def nbytes(self):
        return sum(a.nbytes for a in vars(self).values())


def _condense(forms, P):
    """Eliminate every element's interior and border unknowns: Z_e and C_e
    are solved once per kind (`P.kinds`), a chunk of kinds at a time; W is
    kept per kind, the rest written to the elements of each kind with their
    own B_RR, a chunk of those elements at a time."""
    nodes = forms.coarse.element_nodes
    (N, p), nbf = nodes.shape, P.nbf
    first, kind = P.kinds
    interior, rim = _element_split(forms.coarse)
    n_i, n_r = interior.size, rim.size
    on_rim = np.zeros(forms.grid.n_nodes, dtype=bool)
    on_rim[nodes[:, rim]] = True
    cond = Condensation(
        interior_nodes=nodes[:, interior],
        rim_nodes=nodes[:, rim],
        on_rim=on_rim,
        kind=kind.view(),  # frozen below, P's own array is not
        S=np.empty((N, n_r, n_r), dtype=complex),
        diag=np.empty((N, n_r), dtype=complex),
        W=np.empty((first.size, n_i, n_r)),
        trial_rim=np.empty((N, n_r, nbf)),
        trial_interior=np.empty((N, n_i, nbf)),
    )
    log.debug("condensation: %d elements in %d kinds, one interior solve each", N, first.size)
    for chunk in _element_chunks(first.size, p):
        Z, C, B_RR = _element_systems(forms, P, first[chunk])
        trial = np.zeros(Z.shape[:2] + (nbf,))
        trial[:, :n_i] = P.sphi[first[chunk]][:, interior]
        X = _solve_elements(forms, Z, np.concatenate([C, trial], axis=2), first[chunk])
        Ct = C.transpose(0, 2, 1)
        CtW, CtT = Ct @ X[:, :, :n_r], Ct @ X[:, :, n_r:]  # once per kind
        cond.W[chunk] = X[:, :n_i, :n_r]
        mine = np.flatnonzero((kind >= chunk.start) & (kind < chunk.stop))  # their elements
        for part in _element_chunks(mine.size, p):
            es = mine[part]
            of = kind[es] - chunk.start
            B = B_RR[of] - 1j * forms.k * _rim_boundary_mass(forms, es)
            cond.S[es] = B - CtW[of]
            cond.diag[es] = np.diagonal(B, axis1=1, axis2=2)
            cond.trial_rim[es] = P.sphi[es][:, rim] - CtT[of]
            cond.trial_interior[es] = X[of, :n_i, n_r:]
    for arr in vars(cond).values():
        arr.flags.writeable = False
    return cond


def _load_sources(forms, P, elements, blocks):
    """The condensed per-element loads `blocks` of `elements` (one row of
    element-node values per element): with z_e = Z_e^-1 [f_I; 0], the rim
    loads f_R - C_e^T z_e and the interior rows of z_e, chunk by chunk."""
    interior, rim = _element_split(forms.coarse)
    elements = np.asarray(elements)
    rim_loads = np.empty((elements.size, rim.size), dtype=complex)
    interior_loads = np.empty((elements.size, interior.size), dtype=complex)
    for chunk in _element_chunks(elements.size, forms.coarse.element_nodes.shape[1]):
        Z, C, _ = _element_systems(forms, P, elements[chunk])
        rhs = np.zeros(Z.shape[:2] + (1,), dtype=complex)
        rhs[:, :interior.size, 0] = blocks[chunk][:, interior]
        z = np.linalg.solve(Z, rhs)
        rim_loads[chunk] = blocks[chunk][:, rim] - (C.transpose(0, 2, 1) @ z)[:, :, 0]
        interior_loads[chunk] = z[:, :interior.size, 0]
    return rim_loads, interior_loads


def _trial_sources(cond, elements, patches):
    """Sources (see `_solve_batch`) of the trial columns of `elements`,
    element elements[s] on patch patches[s] (sorted); on each patch the
    nbf columns of its elements follow each other from column 0."""
    elements, patches = np.asarray(elements), np.asarray(patches)
    nbf = cond.trial_rim.shape[2]
    rank = np.arange(elements.size) - np.searchsorted(patches, patches)
    return (
        np.repeat(patches, nbf),
        np.repeat(elements, nbf),
        (rank[:, None] * nbf + np.arange(nbf)).ravel(),
        cond.trial_rim[elements].transpose(0, 2, 1).reshape(elements.size * nbf, -1),
        cond.trial_interior[elements].transpose(0, 2, 1).reshape(elements.size * nbf, -1),
    )


def _join(*sources):
    """One set of sources holding all of `sources`."""
    return tuple(np.concatenate(parts) for parts in zip(*sources))


@dataclass(frozen=True)
class _Layout:
    """Index maps of a patch's skeleton system, relative to the patch's first
    node and first element, so every patch of one shape (see `_layout_keys`)
    shares them.  The patch of element j starts at node
    rim_nodes[j, 0] - node_shift and element j - element_shift.

    `rows` are the free nodes and `skeleton` the positions in `rows` of the
    skeleton unknowns, in the nested-dissection order of the shape
    (`_dissection`), so the skeleton matrix is factorized as it is.
    `interior` (elements, n_I) holds the positions in `rows` of each
    element's interior nodes, `elements` the patch's elements and `local`
    (elements, 4r) the skeleton position of each element's rim nodes (-1
    where constrained).  The skeleton matrix in CSC form has the pattern
    (`indices`, `indptr`); its stored entry q sums the flattened S at (first
    element) * 16 r^2 + take[starts[q]:starts[q+1]], in increasing order,
    the patch's S_e entries, and entry outer[t] also gets the flattened diag
    at (first element) * 4r + outer_take[t], the B_RR diagonals of the
    elements around the patch.
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


def _smallest(a):
    """A read-only copy of the integer array `a` in the smallest integer
    type that holds its values."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    a = a.astype(np.min_scalar_type(hi if lo >= 0 else min(lo, -hi - 1)))
    a.flags.writeable = False
    return a


class _LayoutPlan(dict):
    """The layouts of the shape classes of m-layer patches on `coarse`,
    with or without `strict_zero_trace`, by their rows of `_layout_keys`
    as tuples, kept compactly.

    A class holds its packed layout (`_skeleton_layout`): its two shifts
    and, each in its `_smallest` type, the arrays that `_with_pattern` does
    not derive: `rows`, the skeleton's node ranks `order`, `elements`,
    `local`, the S_e positions `position`, `outer_take` and the skeleton
    positions of the outer diagonal terms.  `position` takes a sort to make
    and is most of the plan; it is uint16 up to 65536 S_e entries per patch
    (a patch of 25 elements with 4r = 48 has 57600), as is `order` up to
    65536 skeleton unknowns.  The plan of H = 1/10, m = 2 on 120 x 120
    cells (49 classes) holds ~3.3 MB, that of H = 1/40, m = 3 (81 classes)
    ~0.7 MB.  `layout` packs a class the first time it is asked for it and
    builds its `_Layout` from the packed arrays, without ordering or
    sorting.
    """

    def __init__(self, coarse, m, strict_zero_trace):
        super().__init__()
        self.coarse, self.m, self.strict_zero_trace = coarse, m, strict_zero_trace

    def layout(self, key, cond, j):
        """The `_Layout` of class `key`, its skeleton and interiors read from
        `cond` on the patch of j, an element of the class; a class not yet
        in the plan is packed from the patch of j."""
        if key not in self:
            self[key] = _skeleton_layout(cond, self.coarse, j, self.m, self.strict_zero_trace)
        node_shift, element_shift, *arrays = self[key]
        # widened, as the derivation multiplies them
        rows, order, elements, local, position, outer_take, shared = (
            a.astype(np.intp) for a in arrays)
        node, first = cond.rim_nodes[j, 0] - node_shift, j - element_shift
        skeleton = np.flatnonzero(cond.on_rim[rows + node])[order]
        return _with_pattern(
            node_shift, element_shift, rows, skeleton,
            np.searchsorted(rows, cond.interior_nodes[elements + first] - node), elements,
            local, position, _entry_keys(local, skeleton.size)[position], outer_take, shared)

    def rim_offsets(self, key, NH, radius):
        """`_rim_offsets` of class `key`, its slots within `radius` (at most
        m + 1) of an element of the class."""
        _, shift, _, order, elements, local, *_ = self[key]
        return _rim_offsets(*(a.astype(np.intp) for a in (elements, local, order)), shift, key,
                            NH, radius)

    @property
    def nbytes(self):
        return sum(a.nbytes for packed in self.values() for a in packed[2:])


def _layout_keys(coarse, m):
    """Every element's shape class of m-layer patches, (N, 4): element j's
    distances to the four domain edges, in elements, clipped at m + 1.  The
    patches of elements with equal keys differ only by a translation (see
    `_Layout`)."""
    I, J = np.arange(coarse.n_elements) % coarse.NH, np.arange(coarse.n_elements) // coarse.NH
    return np.minimum(np.stack([I, coarse.NH - 1 - I, J, coarse.NH - 1 - J], axis=1), m + 1)


def _shape_classes(keys, elements):
    """`elements` grouped by their `keys` (`_layout_keys`), as (key tuple,
    elements) pairs, each group in element order and the groups in the
    order of their first elements."""
    elements = np.asarray(elements, dtype=np.intp)
    code = keys[elements] @ (keys.max() + 1) ** np.arange(4)  # one integer per class
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return [(tuple(keys[elements[first[c]]].tolist()), elements[inverse == c])
            for c in np.argsort(first)]


def _dissection(x, y, r, size):
    """A nested-dissection order (George, SIAM J. Numer. Anal. 10, 1973) of
    the skeleton nodes at the fine-node coordinates (x, y), given in node
    order, of a patch of size = (across, up) elements of r x r cells: the
    rank of the node at each skeleton position.

    An element rectangle is split at the rim line nearest the middle of its
    longer side, down to single elements.  The line's nodes separate the
    two halves, as S_e couples only the rim nodes of one element, and are
    numbered after both; a single element numbers the free nodes on its
    rim's patch-edge sides, the only ones no line takes.  The order is read
    from a table over the rectangle's cells, (2 up + 1, 2 across + 1), whose
    even rows and columns are the rim lines: each cell holds the rank of
    its group, line or element, in the order of numbering.  A rectangle's
    table is pasted from its halves' tables, the second's ranks after the
    first's, and then its line, so a line's ends keep the rank of the
    shallowest line through them; rectangles of one size share a table.
    """
    tables = {}  # (width, height) in elements -> (table, groups)

    def table(w, h):
        if (w, h) not in tables:
            t, groups = np.zeros((2 * h + 1, 2 * w + 1), dtype=np.intp), 1
            if w >= max(h, 2):
                s = (w + 1) // 2
                (a, na), (b, nb) = table(s, h), table(w - s, h)
                t[:, :2 * s + 1], t[:, 2 * s:], t[:, 2 * s] = a, b + na, na + nb
                groups += na + nb
            elif h >= 2:
                s = (h + 1) // 2
                (a, na), (b, nb) = table(w, s), table(w, h - s)
                t[:2 * s + 1], t[2 * s:], t[2 * s] = a, b + na, na + nb
                groups += na + nb
            tables[w, h] = t, groups
        return tables[w, h]

    rank = table(*size)[0][2 * (y // r) + (y % r > 0), 2 * (x // r) + (x % r > 0)]
    return np.argsort(rank, kind="stable")


def _skeleton_layout(cond, coarse, j, m, strict_zero_trace):
    """The skeleton layout of element j's m-layer patch (see `_Layout`), its
    unknowns in nested-dissection order (`_dissection`), packed as a class
    of `_LayoutPlan` holds it.  Its S_e entries are put in CSC order by one
    sort of words packing each entry's key above its position, so the
    duplicates of one entry follow each other by position whatever sort
    numpy runs.

    A free rim node on the domain boundary at the edge of the patch also
    carries the B_RR diagonal of the elements outside the patch that share
    it, as the uncondensed patch system is a principal submatrix of the
    global B.
    """
    patch = oversample(coarse, j, m)
    rows = patch.free_nodes(strict_zero_trace)
    ranked = np.flatnonzero(cond.on_rim[rows])  # the skeleton in node order
    rel, width = rows[ranked] - patch.nodes[0], coarse.fine.nx + 1
    order = _dissection(rel % width, rel // width, coarse.ratio,
                        [hi - lo + 1 for lo, hi in (patch.I_range, patch.J_range)])
    n = ranked.size
    at = np.full(cond.on_rim.size, -1)
    at[rows[ranked[order]]] = np.arange(n)
    elements = patch.elements
    (I0, I1), (J0, J1) = patch.I_range, patch.J_range
    I, J = (np.arange(max(lo - 1, 0), min(hi + 2, coarse.NH)) for lo, hi in ((I0, I1), (J0, J1)))
    outside = (J[:, None] * coarse.NH + I)[(I < I0) | (I > I1) | (J[:, None] < J0)
                                           | (J[:, None] > J1)]  # the elements around the patch
    local = at[cond.rim_nodes[elements]]
    shared = at[cond.rim_nodes[outside]]
    r4 = local.shape[1]
    first = elements[0]
    kept = ((local[:, :, None] >= 0) & (local[:, None, :] >= 0)).ravel()
    bits = kept.size.bit_length()
    packed = np.sort(_entry_keys(local, n)[kept] << bits | np.flatnonzero(kept))
    outer = np.flatnonzero(shared >= 0)
    arrays = (rows - patch.nodes[0], order, elements - first, local, packed & ((1 << bits) - 1),
              ((outside - first)[:, None] * r4 + np.arange(r4)).ravel()[outer],
              shared.ravel()[outer])
    return (cond.rim_nodes[j, 0] - patch.nodes[0], j - first, *map(_smallest, arrays))


def _entry_keys(local, n):
    """The flattened (elements, 4r, 4r) stack of the keys column * n + row
    of the entries of a skeleton of n unknowns (see `_Layout`)."""
    return (local[:, None, :] * n + local[:, :, None]).ravel()


def _with_pattern(node_shift, element_shift, rows, skeleton, interior, elements, local,
                  position, entry, outer_take, shared):
    """The `_Layout` of a skeleton from its geometry, the positions
    `position` of its S_e entries (in the patch's own (elements, 4r, 4r)
    stack) in CSC order, their keys `entry` (`_entry_keys`), and the
    skeleton positions `shared` of its outer diagonal terms: `take`,
    `starts`, `outer` and the CSC pattern follow from them without
    sorting."""
    n, r4 = skeleton.size, local.shape[1]
    starts = np.flatnonzero(np.concatenate([[entry.size > 0], entry[1:] != entry[:-1]]))
    entry = entry[starts]
    indptr = np.searchsorted(entry, np.arange(n + 1) * n)
    return _Layout(
        node_shift, element_shift, rows, skeleton, interior, elements, local,
        take=(elements[:, None] * r4 * r4 + np.arange(r4 * r4)).ravel()[position],
        starts=starts,
        outer=np.searchsorted(entry, shared * (n + 1)),
        outer_take=outer_take,
        indices=(entry % n).astype(np.intc),
        indptr=indptr.astype(np.intc),
    )


def _skeleton_values(cond, layout, first, out):
    """Write to `out` the stored entries of the skeleton matrix (see
    `_Layout`) of the patch of a class whose first element is `first`."""
    r4 = layout.local.shape[1]
    np.add.reduceat(cond.S.ravel()[first * r4 * r4:][layout.take], layout.starts, out=out)
    np.add.at(out, layout.outer, cond.diag.ravel()[layout.outer_take + first * r4])


def _solve_batch(cond, layout, js, m, sources, n_cols):
    """Solve the bordered systems of the m-layer patches of elements `js`,
    all of the shape class of `layout`, on their free rim nodes; the
    interiors are recovered by `_finish_batch`.

    Patch p's skeleton system sums the Schur complements S_e of its elements
    on its free rim nodes (see `_skeleton_layout`), in the nested-dissection
    order of its class, which SuperLU keeps.  The batch sets up all
    right-hand sides at once; each patch's skeleton values are gathered
    (`_skeleton_values`) just before its factorization, into the values of
    the batch's one matrix, so the batch holds one patch's gather.  Source
    s of `sources` = (patches, elements, columns, rim, interior) adds its
    condensed right-hand side rim[s] on the rim nodes of elements[s] in
    patch patches[s], column columns[s].  Returns (the solutions on the
    skeletons, shape (patches, unknowns + 1, n_cols), whose last row holds
    the constrained nodes' sums; the summed L+U fill of the patches' LUs).
    Each LU is dropped once solved.  A patch without free nodes or with a
    singular system raises SingularLocalSystem naming its element.
    """
    js = np.asarray(js)
    if layout.rows.size == 0:
        raise SingularLocalSystem(f"element {js[0]}, m={m}: patch has no unconstrained nodes")
    firsts = js - layout.element_shift
    n = layout.indptr.size - 1
    patches, src_elements, src_cols, src_rim, _ = sources
    e = np.searchsorted(layout.elements, src_elements - firsts[patches])
    rhs = np.zeros((js.size, n + 1, n_cols), dtype=complex)  # constrained nodes land in row n
    np.add.at(rhs, (patches[:, None], layout.local[e], src_cols[:, None]), src_rim)
    fill = 0
    S = sp.csc_matrix((np.empty(layout.indices.size, dtype=complex), layout.indices,
                       layout.indptr), shape=(n, n))
    for p, j in enumerate(js):
        _skeleton_values(cond, layout, firsts[p], S.data)  # one pattern, each patch's values
        try:
            F = kernels.factorize(S, ordered=True)
            rhs[p, :n] = F.solve(rhs[p, :n])
        except SingularMatrix as exc:
            raise SingularLocalSystem(
                f"element {j}, m={m}: constrained system is singular: {exc}") from exc
        fill += F.fill
    return rhs, fill


def _finish_batch(cond, layout, js, sources, solved):
    """The patch solutions of a batch from its skeleton solutions `solved`
    (see `_solve_batch`, whose arguments these are, for the columns of
    `solved` alone; offline, only the data columns): the element interiors
    -W_e x, one product with the kind's W for all the batch's elements of
    each kind, plus the sources' interior particular solutions.  Returns
    (free rows, shape (patches, rows); the solutions on them, (patches,
    rows, n_cols)).
    """
    js = np.asarray(js)
    firsts = js - layout.element_shift
    n = layout.indptr.size - 1
    patches, src_elements, src_cols, _, src_interior = sources
    e = np.searchsorted(layout.elements, src_elements - firsts[patches])
    solved[:, n] = 0.0  # the constrained nodes' values
    n_cols = solved.shape[2]
    interior = np.empty((js.size,) + layout.interior.shape + (n_cols,), dtype=complex)
    kinds = cond.kind[layout.elements + firsts[:, None]]  # (patches, elements)
    for k in np.unique(kinds):
        p, q = np.nonzero(kinds == k)  # patch p's element q
        interior[p, q] = -(cond.W[k] @ solved[p[:, None], layout.local[q]])
    np.add.at(interior, (patches[:, None], e[:, None], np.arange(interior.shape[2]),
                         src_cols[:, None]), src_interior)
    vals = np.empty((js.size, layout.rows.size, n_cols), dtype=complex)
    vals[:, layout.skeleton] = solved[:, :n]
    vals[:, layout.interior] = interior
    rows = layout.rows + (cond.rim_nodes[js, 0] - layout.node_shift)[:, None]
    return rows, vals


def _solve_now(cond, layout, js, m, sources, n_cols):
    """`_solve_batch` and `_finish_batch` in turn: (free rows, solutions)."""
    solved, _ = _solve_batch(cond, layout, js, m, sources, n_cols)
    return _finish_batch(cond, layout, js, sources, solved)


def local_cem_solve(j, m, forms, P, strict_zero_trace=False):
    """All nbf trial vectors of element j on its m-layer patch (`grid.oversample`),
    zero-extended."""
    cond = _condense(forms, P)
    key = tuple(_layout_keys(forms.coarse, m)[j].tolist())
    layout = _LayoutPlan(forms.coarse, m, strict_zero_trace).layout(key, cond, j)
    rows, vals = _solve_now(cond, layout, [j], m, _trial_sources(cond, [j], [0]), P.nbf)
    psi = np.zeros((forms.grid.n_nodes, P.nbf), dtype=complex)
    psi[rows[0]] = vals[0]
    return psi


def _stacked(A, stack):
    """A @ x for each (p, q) slice x of `stack` (elements, p, q): one matrix
    product over all the slices."""
    return np.tensordot(A, stack, axes=(1, 1)).transpose(1, 0, 2)


class CondensedTrial:
    """The trial matrix Psi (fine nodes x N nbf, column p = j*nbf + i), kept
    condensed on the element rims.

    On an element e of column p's patch the column's interior is fixed by
    its values x_e on e's rim: -W_k x_e + T_e a, with W_k the interior map of
    e's kind, T_e = `trial_interior[e]` of the condensation and a the unit
    vector of the column's mode when e is the column's own element, else 0;
    on an element outside the patch it is zero.  So the space stores:

    - `skeleton`, CSC over the fine rows: each column's values on its free
      rim nodes, zeros included (bitwise the entries the patch solve gave);
    - `exceptions`, CSC over the N 4r element-rim slots (e * 4r + rim
      position): the values of a column on the rim of an element e outside
      its patch, where the free-node rule keeps the patch's nodes on the
      domain boundary, and whose interior on e is zero, not -W_k x_e.

    `Psi @ x` is then `skeleton @ x` on the rims and, on each element e,
    -W_k (rim_e(skeleton @ x) - (exceptions @ x)_e) + T_e x_e inside, one
    product per kind; `Psi.T @ y` is skeleton^T (y - R^T z) + exceptions^T z
    + T^T y_I with z_e = W_k^T y_I(e), y_I the interior values of y and R the
    gather of the element rims.  G is formed from the same rim values, by
    element products (`_ElementProducts`); the fine matrix is never formed.
    """

    def __init__(self, skeleton, exceptions, cond):
        self.skeleton, self.exceptions = _read_only(skeleton), _read_only(exceptions)
        self.shape, self._cond = skeleton.shape, cond
        N, r4 = cond.rim_nodes.shape
        self._scatter = sp.csc_matrix(  # R^T: element-rim slots to fine nodes
            (np.ones(N * r4), cond.rim_nodes.ravel(), np.arange(N * r4 + 1)),
            shape=(skeleton.shape[0], N * r4))
        kinds = np.argsort(cond.kind, kind="stable")
        self._kinds = np.split(kinds, np.flatnonzero(np.diff(cond.kind[kinds])) + 1)

    @property
    def nnz(self):
        """Stored entries: the skeleton's and the exceptions'."""
        return self.skeleton.nnz + self.exceptions.nnz

    @property
    def nbytes(self):
        return sum(a.nbytes for A in (self.skeleton, self.exceptions)
                   for a in (A.data, A.indices, A.indptr))

    @property
    def T(self):
        return _TransposedTrial(self)

    def __matmul__(self, x):
        cond, x = self._cond, np.asarray(x)
        N, r4 = cond.rim_nodes.shape
        X = x.reshape(self.shape[1], -1)
        out = self.skeleton @ X
        rims = out[cond.rim_nodes] - (self.exceptions @ X).reshape(N, r4, -1)
        interior = np.einsum("eib,ebk->eik", cond.trial_interior, X.reshape(N, -1, X.shape[1]),
                             dtype=complex)
        for k, es in enumerate(self._kinds):
            interior[es] -= _stacked(cond.W[k], rims[es])
        out[cond.interior_nodes] = interior
        return out.reshape((self.shape[0],) + x.shape[1:])

    def rmatmul(self, y):
        """Psi^T y."""
        cond, y = self._cond, np.asarray(y)
        N, r4 = cond.rim_nodes.shape
        Y = y.reshape(self.shape[0], -1)
        inner = Y[cond.interior_nodes]  # (N, n_I, columns)
        z = np.empty((N, r4, Y.shape[1]), dtype=np.result_type(Y, float))
        for k, es in enumerate(self._kinds):
            z[es] = _stacked(cond.W[k].T, inner[es])
        z = z.reshape(N * r4, -1)
        out = self.skeleton.T @ (Y - self._scatter @ z) + self.exceptions.T @ z
        out += np.einsum("eib,eik->ebk", cond.trial_interior, inner).reshape(out.shape)
        return out.reshape((self.shape[1],) + y.shape[1:])


class _TransposedTrial:
    """Psi^T of a `CondensedTrial` Psi, for `Psi.T @ y`."""

    def __init__(self, trial):
        self._trial, self.shape = trial, trial.shape[::-1]

    def __matmul__(self, y):
        return self._trial.rmatmul(y)


@dataclass
class MultiscaleSpace:
    """Trial vectors as the columns of `trial`, a `CondensedTrial`, column
    p = j*nbf + i: stored on the element rims and applied as `trial @ x`
    and `trial.T @ y`; the fine trial matrix is never formed.

    `near_field`, fixed by `build_space` (a space of more than DENSE_LIMIT
    dofs), is the regime its coarse system is solved in (`solve_multiscale`).
    `G` is the coarse matrix Psi^T B Psi of `forms.B`, summed from element
    products of the finished condensed trial (`_ElementProducts`), in
    complex128, or, with `near_field`, only its near field, the entries
    between elements within Chebyshev distance NEAR_FIELD, in complex64.
    `G_norm` is the max-norm |G|_inf of the stored G in double, so in the
    near-field case |G_near|_inf before the cast; `G_lu` is G's dense LU
    (lu, piv, rcond) of `_dense_lu`, formed once with G, for a space that
    is not `near_field`, and None for one that is; `condensation` is the
    element condensation the patch solves read, and `layouts` the compact
    layout of each shape class (`_LayoutPlan`, ~3.3 MB at H = 1/10, m = 2
    on 120 x 120 cells, ~0.7 MB at H = 1/40, m = 3), from which every
    batch, offline or online, makes its layout and G's element products,
    offline and in the whole-G fallback, take their rim offsets.  All are
    read-only, and the spaces `build_space` returns for one (forms, P, m,
    strict_zero_trace) share them.  `corrector` is the space's own summed
    localized data solve (None when it was built without load blocks).
    """

    forms: object
    m: int
    strict_zero_trace: bool
    trial: CondensedTrial
    G: sp.csr_matrix
    G_norm: float
    G_lu: tuple
    condensation: "Condensation"
    layouts: "_LayoutPlan"
    near_field: bool
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
        unit = np.zeros(self.n_basis)
        unit[self.index(j, i)] = 1.0
        return self.trial @ unit


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


def _new_space(forms, m, strict_zero_trace, trial, G, G_norm, corrector, condensation,
               layouts, near_field):
    """The space of a newly built `CondensedTrial` (frozen already) and its
    G with |G|_inf `G_norm` (see `_ElementProducts`): freezes G and, unless
    the space is `near_field`, factorizes it once (`_dense_lu`)."""
    G = _read_only(G)
    G_lu = None if near_field else _dense_lu(G)
    return MultiscaleSpace(forms, m, strict_zero_trace, trial, G, G_norm, G_lu,
                           condensation, layouts, near_field, corrector)


def _kept(A, keep):
    """The entries of the CSR or CSC matrix A where `keep` (one flag per
    stored entry) holds, in A's format."""
    indptr = np.concatenate([[0], np.cumsum(keep)])[A.indptr]
    return type(A)((A.data[keep], A.indices[keep], indptr), shape=A.shape)


def _symmetric(L):
    """The complex symmetric CSR matrix whose lower triangle is the CSR
    matrix L: L plus the transpose of its strict part.  The two parts share
    no entry, so each entry of the sum is one of L's plus zero, which keeps
    its value (a -0.0 part turns +0.0; L holds none)."""
    rows = np.arange(L.shape[0], dtype=L.indices.dtype)
    strict = L.indices < np.repeat(rows, np.diff(L.indptr))
    return L + _kept(L, strict).T.tocsr()  # the strict part's copy goes before the sum


def _single(A):
    """The CSR matrix A in complex64 on A's own indices and indptr; an
    entry beyond single precision's range turns infinite."""
    with np.errstate(over="ignore"):
        data = A.data.astype(np.complex64)
    return type(A)((data, A.indices, A.indptr), shape=A.shape)


def _add_row_sums(sums, strip, magnitude, first):
    """Add the lower strip `strip` (rows first, first + 1, ...), whose
    entries have the magnitudes `magnitude` in double, to the row sums
    `sums` of |G|, G = `_symmetric` of the stacked strips: its own rows
    are summed afresh, then each strict entry is added to the sum of its
    column, in strip order.  Added strip by strip from the first, row i sums
    its entries in L and then those of column i of L's strict part by
    increasing row, G's order of row i, so each sum is bitwise G's largest
    absolute row sum formed from G in double."""
    n = strip.shape[0]
    rows = np.repeat(np.arange(first, first + n), np.diff(strip.indptr))
    sums[first:first + n] = np.bincount(rows - first, weights=magnitude, minlength=n)
    strict = strip.indices < rows
    np.add.at(sums, strip.indices[strict], magnitude[strict])  # in order, as bincount


def _slot_offsets(radius):
    """The element offsets (dJ, dI), |dJ|, |dI| <= radius, row by row, so
    the offset of slot s is minus that of slot S - 1 - s."""
    d = np.arange(-radius, radius + 1)
    return np.repeat(d, d.size), np.tile(d, d.size)


def _rim_offsets(elements, local, order, shift, key, NH, radius):
    """For each slot (dJ, dI) of `_slot_offsets(radius)`, the offsets of the
    rim nodes of element j + (dJ, dI) in the CSC segment of a trial column
    of element j (-1 where a node is constrained or the element lies
    outside j's patch or the domain): j's patch holds the elements
    `elements` + j - shift with the skeleton positions `local` and node
    ranks `order` of a `_Layout`, as the segment holds the column's
    skeleton values in node order, and `key` holds j's distances to the
    four domain edges as `_layout_keys` does, clipped at `radius` or
    beyond."""
    dJ, dI = _slot_offsets(radius)
    rel = dJ * NH + dI + shift
    q = np.searchsorted(elements, rel).clip(max=elements.size - 1)
    inside = ((-key[0] <= dI) & (dI <= key[1]) & (-key[2] <= dJ) & (dJ <= key[3])
              & (elements[q] == rel))
    return np.where(inside[:, None], np.append(order, -1)[local[q]], -1)  # -1 stays -1


def _product_forms(forms, cond):
    """S_k = E_k^T Re B_e E_k of every kind k (see `_ElementProducts`),
    (kinds, 8r + nbf, 8r + nbf) real: E_k = [[-W_k, T_k, 0], [I, 0, I]]
    maps a column's coordinates (x, a, z) on an element of kind k to its
    values there, interior nodes first (`_element_forms`)."""
    first = np.unique(cond.kind, return_index=True)[1]  # the lowest element of each kind
    n_i, r4 = cond.W.shape[1:]
    nbf = cond.trial_interior.shape[2]
    out = np.empty((first.size, 2 * r4 + nbf, 2 * r4 + nbf))
    for chunk in _element_chunks(first.size, n_i + r4):
        E = np.zeros((len(chunk), n_i + r4, 2 * r4 + nbf))
        E[:, :n_i, :r4] = -cond.W[chunk]
        E[:, :n_i, r4:r4 + nbf] = cond.trial_interior[first[chunk]]
        E[:, n_i:, :r4] = E[:, n_i:, r4 + nbf:] = np.eye(r4)
        out[chunk] = E.transpose(0, 2, 1) @ (_element_forms(forms, first[chunk]) @ E)
    return out


class _ElementProducts:
    """G = Psi^T B Psi, or its near field, summed element row by element
    row as sum_e V_e^T S_e V_e (see the module docstring) from the
    `CondensedTrial` `trial` of m-layer patches.

    V_e holds the coordinates (x, a) of the columns in the slots within
    Chebyshev distance m of e, nbf columns per element, zero outside the
    domain; on an element with exceptions the slots reach m + 1 and the
    coordinates add z.  The offsets of a column's rim values in its CSC
    segment come from `offsets(key, NH, radius)` (see `_rim_offsets`), once
    per class of its element j, its row of `keys` (`_layout_keys` of m) as
    a tuple.  The trial's exceptions are split by the element row of their
    slots, so each element row joins only its own.  G's lower blocks within
    `reach` element rows (NEAR_FIELD with `near_field`) are summed in
    double, a chunk of elements and a band of slot rows at a time;
    `matrix` adds the element rows in order, cuts the strip of each G row
    once it is final and returns (G, |G|_inf).
    """

    def __init__(self, forms, cond, trial, m, reach, near_field, keys, offsets):
        coarse = forms.coarse
        NH, N = coarse.NH, coarse.n_elements
        skeleton = trial.skeleton
        self._NH, self._cond, self._skeleton, self._k = NH, cond, skeleton, forms.k
        self._r4, self._nbf = cond.rim_nodes.shape[1], skeleton.shape[1] // N
        self._near_field, self._reach = near_field, min(reach, NH - 1)
        self._forms = _product_forms(forms, cond)
        I, J = np.arange(N) % NH, np.arange(N) // NH
        edge = np.flatnonzero((I == 0) | (I == NH - 1) | (J == 0) | (J == NH - 1))
        self._edge = np.full(N, -1)
        self._edge[edge] = np.arange(edge.size)
        self._mass = _rim_boundary_mass(forms, edge)
        self._radius, self._ring = min(m, NH - 1), min(m + 1, NH - 1)
        classes = _shape_classes(keys, np.arange(N))
        self._class = np.empty(N, dtype=np.intp)
        for c, (_, js) in enumerate(classes):
            self._class[js] = c
        self._tables = np.array([offsets(key, NH, self._ring) for key, _ in classes],
                                dtype=np.intc)
        E = trial.exceptions
        slots, columns = E.indices, np.repeat(np.arange(E.shape[1]), np.diff(E.indptr))
        rows = slots // (self._r4 * NH)
        by_row = np.argsort(rows, kind="stable")
        self._exceptions = slots[by_row], columns[by_row], E.data[by_row]
        self._row_starts = np.searchsorted(rows[by_row], np.arange(NH + 1))
        self._blocks = {}  # element row of G -> its lower blocks, being summed
        self._strips = []
        self._sums = np.zeros(skeleton.shape[1])

    def _coordinates(self, elements, radius):
        """(x, a) of the columns in the slots within `radius` of `elements`,
        shape (elements, 4r + nbf, slots * nbf)."""
        NH, r4, nbf, ring = self._NH, self._r4, self._nbf, self._ring
        sJ, sI = _slot_offsets(radius)
        jI, jJ = elements[:, None] % NH + sI, elements[:, None] // NH + sJ
        valid = (jI >= 0) & (jI < NH) & (jJ >= 0) & (jJ < NH)
        j = np.where(valid, jJ * NH + jI, 0)
        seen = (ring - sJ) * (2 * ring + 1) + ring - sI  # e seen from j, among the ring's slots
        local = np.where(valid[:, :, None], self._tables[self._class[j], seen], -1)
        starts = self._skeleton.indptr[(j * nbf)[:, :, None] + np.arange(nbf)]
        at = starts[:, :, :, None] + local[:, :, None]
        free = local[:, :, None] >= 0
        x = np.where(free, self._skeleton.data.take(at, mode="clip"), 0) if self._skeleton.nnz \
            else np.zeros(at.shape, dtype=complex)  # (e, S, nbf, 4r)
        V = np.zeros((elements.size, r4 + nbf, sJ.size, nbf), dtype=complex)
        V[:, :r4] = x.transpose(0, 3, 1, 2)
        V[:, r4 + np.arange(nbf), sJ.size // 2, np.arange(nbf)] = 1.0
        return V.reshape(elements.size, r4 + nbf, -1)

    def _add(self, b, elements, radius, exceptions=None):
        """Add V_e^T S_e V_e of `elements` of element row b, with their
        `exceptions` (slots, columns, values) if given, to G's blocks."""
        NH, r4, nbf = self._NH, self._r4, self._nbf
        side = 2 * radius + 1
        V = self._coordinates(elements, radius)
        if exceptions is not None:
            slots, columns, values = exceptions
            e = np.searchsorted(elements, slots // r4)
            j, at = columns // nbf, elements[e]
            slot = (j // NH - at // NH + radius) * side + j % NH - at % NH + radius
            Z = np.zeros((elements.size, r4, side * side, nbf), dtype=complex)
            Z[e, slots % r4, slot, columns % nbf] = values
            V = np.concatenate([V, Z.reshape(elements.size, r4, -1)], axis=1)
        # away from the boundary mass, with real columns only, V_e^T S_e V_e is real
        real = ~V.imag.any(axis=(1, 2)) & (self._edge[elements] < 0)
        for part in (np.flatnonzero(real), np.flatnonzero(~real)):
            if part.size:
                self._add_bands(b, elements[part], V[part].real if real[part[0]] else V[part],
                                radius, exceptions is not None)

    def _add_bands(self, b, elements, V, radius, exceptions):
        """Add V_e^T S_e V_e of `elements` of element row b, their
        coordinates V, real or complex, to G's blocks, band by band."""
        NH, r4, nbf, R = self._NH, self._r4, self._nbf, self._reach
        side, n = 2 * radius + 1, V.shape[1]
        S = self._forms[self._cond.kind[elements]][:, :n, :n]
        Y = S @ V if V.dtype == float else (S @ V.view(float)).view(complex)
        on = np.flatnonzero(self._edge[elements] >= 0)
        if on.size:  # -ik Mb_e, on the rim values x + z
            mass = -1j * self._k * self._mass[self._edge[elements[on]]]
            rims = (slice(0, r4), slice(n - r4, n)) if exceptions else (slice(0, r4),)
            for rows in rims:
                Y[on, rows] += sum(mass @ V[on, cols] for cols in rims)
        V = V.reshape(elements.size, n, side, side * nbf)
        I = elements % NH + self._ring
        if I[-1] - I[0] == I.size - 1:  # consecutive elements add to a view
            I = np.s_[I[0]:I[-1] + 1]
        for sJ in range(max(-radius, -b), min(radius, NH - 1 - b) + 1):  # slot rows in the domain
            lo = max(-radius, sJ - R, -b)  # the lowest slot row of the band
            P = V[:, :, sJ + radius].transpose(0, 2, 1) @ Y[:, :, (lo + radius) * side * nbf:
                                                             (sJ + radius + 1) * side * nbf]
            P = P.reshape(elements.size, side, nbf, sJ - lo + 1, side, nbf)
            blocks = self._blocks.get(b + sJ)
            if blocks is None:
                blocks = self._blocks[b + sJ] = np.zeros(
                    (NH + 2 * self._ring, nbf, R + 1, 2 * R + 1, nbf), dtype=complex)
            for sI in range(-radius, radius + 1):
                tlo, thi = max(-radius, sI - R), min(radius, sI + R) + 1  # slot columns reached
                rows = np.s_[I.start + sI:I.stop + sI] if isinstance(I, slice) else I + sI
                blocks[rows, :, lo - sJ + R:, tlo - sI + R:thi - sI + R] += P[
                    :, sI + radius, :, :, tlo + radius:thi + radius]

    def _add_row(self, b):
        NH, r4, nbf = self._NH, self._r4, self._nbf
        mine = slice(*self._row_starts[b:b + 2])
        slots, columns, values = (a[mine] for a in self._exceptions)
        ring = np.unique(slots // r4)
        # each chunk's complex V stack within a quarter of an `_element_chunks`
        # stack, as the products hold a few such stacks; larger chunks lift
        # the peak resident set of a later coarse solve
        for elements, exceptions in ((np.setdiff1d(np.arange(b * NH, (b + 1) * NH), ring), False),
                                     (ring, True)):
            radius = self._ring if exceptions else self._radius
            size = 8 * ((1 + exceptions) * r4 + nbf) * nbf
            for chunk in _element_chunks(elements.size, math.isqrt(size * (2 * radius + 1) ** 2)):
                these = np.isin(slots // r4, elements[chunk])
                self._add(b, elements[chunk], radius,
                          (slots[these], columns[these], values[these]) if exceptions else None)

    def _finish(self, J):
        """Cut the lower strip of G's element row J from its blocks."""
        NH, nbf, R = self._NH, self._nbf, self._reach
        values = self._blocks.pop(J)[self._ring:self._ring + NH]  # (element, i, dJ, dI, i')
        dJ, dI = np.arange(-R, 1)[:, None], np.arange(-R, R + 1)
        I = np.arange(NH)[:, None, None] + dI  # the columns' elements, (element, dJ, dI)
        column = ((J + dJ) * NH + I)[:, None, :, :, None] * nbf + np.arange(nbf)
        lower = (dJ < 0) | (dI < 0)
        keep = (((I >= 0) & (I < NH) & (J + dJ >= 0) & (lower | (dI == 0)))[:, None, :, :, None]
                & (lower[:, :, None] | (np.arange(nbf)[:, None, None, None] >= np.arange(nbf))))
        keep = (keep & (values != 0)).reshape(NH * nbf, -1)
        L = sp.csr_matrix(
            (values.reshape(keep.shape)[keep],
             np.broadcast_to(column, values.shape).reshape(keep.shape)[keep].astype(np.intc),
             np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.intc)),
            shape=(NH * nbf, self._sums.size))
        _add_row_sums(self._sums, L, np.abs(L.data), J * NH * nbf)
        self._strips.append(_single(L) if self._near_field else L)

    def matrix(self):
        """(G in CSR form, |G|_inf in double): the element rows added in
        order, each G row's strip cut once no later element row reaches it."""
        NH = self._NH
        for b in range(NH):
            self._add_row(b)
            final = NH if b == NH - 1 else b + 1 - self._ring  # G rows now final
            while len(self._strips) < final:
                self._finish(len(self._strips))
        L = sp.vstack(self._strips, format="csr")
        self._strips = None  # the strips go before G is completed
        return _symmetric(L), self._sums.max()


def _skeleton_counts(coarse, m, strict_zero_trace, nbf, on_rim, keys):
    """Per trial column, the free nodes of its patch on element rims (its
    skeleton), counted once per shape class of `keys` (`_layout_keys`)."""
    counts = np.empty(coarse.n_elements, dtype=np.int64)
    for _, js in _shape_classes(keys, np.arange(coarse.n_elements)):
        counts[js] = np.count_nonzero(on_rim[oversample(coarse, js[0], m).free_nodes(
            strict_zero_trace)])
    return np.repeat(counts, nbf)


def _empty_csc(n, counts):
    """An n-row CSC matrix with its column pointers set for columns of
    `counts` entries, and its row indices and values still to be written."""
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    return sp.csc_matrix(
        (np.empty(nnz, dtype=complex), np.zeros(nnz, dtype=index),
         np.concatenate([[0], np.cumsum(counts)]).astype(index)),
        shape=(n, counts.size),
    )


def _write_skeleton(A, cond, layout, js, solved, nbf):
    """Write the first nbf skeleton solutions `solved` (see `_solve_batch`)
    of each patch q of a batch into its columns js[q] * nbf ... of the
    preallocated skeleton A, in node order, through views of A."""
    order = np.argsort(layout.skeleton)  # the free rim nodes in node order
    shift = cond.rim_nodes[js, 0] - layout.node_shift
    rows = layout.rows[layout.skeleton[order]] + shift[:, None]
    for q, start in enumerate(js * nbf):
        lo, hi = A.indptr[start], A.indptr[start + nbf]
        A.data[lo:hi].reshape(nbf, -1)[...] = solved[q, order, :nbf].T
        A.indices[lo:hi].reshape(nbf, -1)[...] = rows[q]


def _exception_entries(layout, js, solved, nbf):
    """(element-rim slots, columns, values) of the exceptions (see
    `CondensedTrial`) of a batch's trial columns: their skeleton solutions
    `solved` (see `_solve_batch`) at the free nodes each patch shares with
    the rims of the elements around it, its layout's outer terms."""
    slots = (js - layout.element_shift)[:, None] * layout.local.shape[1] + layout.outer_take
    shape = slots.shape + (nbf,)
    return (np.broadcast_to(slots[:, :, None], shape).ravel(),
            np.broadcast_to(((js * nbf)[:, None] + np.arange(nbf))[:, None], shape).ravel(),
            solved[:, layout.indices[layout.outer], :nbf].ravel())


def _solve_patches(cond, forms, P, m, strict_zero_trace, load_blocks, plan=None):
    """Skeleton solves on the patches of every element (offline, without a
    `plan`) or of the loaded ones (online, with the `_LayoutPlan` of the
    offline build), element row by element row, in one batch per shape
    class of a row (`_solve_batch`), each finished before the next.

    Offline, each patch solves its nbf trial columns, whose rim values go
    into the `CondensedTrial`'s preallocated skeleton and its exceptions
    (`_exception_entries`).  The patch of an element with a nonzero load
    block also solves its data column, whose interiors `_finish_batch`
    recovers, summed into the corrector in element order as each element
    row ends.  Every patch is factorized in the nested-dissection order of
    its class's layout (`_LayoutPlan.layout`): the class's first batch
    packs it into the plan, from its first element, and every later batch
    of the class, offline or online, builds it from the plan, so the loop
    holds one layout at a time and online solves order none.  Returns (the
    `CondensedTrial` or None, corrector or None, the plan, the work that
    `_log_build` logs).
    """
    coarse = forms.coarse
    n, N, NH = forms.grid.n_nodes, coarse.n_elements, coarse.NH
    with_trial = plan is None
    plan = _LayoutPlan(coarse, m, strict_zero_trace) if with_trial else plan
    nbf = P.nbf if with_trial else 0
    corrector, data, loaded_at = None, [], np.full(N, -1)
    if load_blocks is not None:
        loaded = np.flatnonzero(np.any(load_blocks != 0, axis=1))
        load_rim, load_interior = _load_sources(forms, P, loaded, load_blocks[loaded])
        loaded_at[loaded] = np.arange(loaded.size)
        corrector = np.zeros(n, dtype=complex)
    elements = np.arange(N) if with_trial else np.flatnonzero(loaded_at >= 0)
    keys = _layout_keys(coarse, m)
    trial, exceptions = None, []
    if with_trial:
        skeleton = _empty_csc(
            n, _skeleton_counts(coarse, m, strict_zero_trace, nbf, cond.on_rim, keys))
    batches = unknowns = fill = 0
    packed, layout_seconds = len(plan), 0.0
    for b in range(NH):
        row = elements[(elements >= b * NH) & (elements < (b + 1) * NH)]
        for key, js in _shape_classes(keys, row):
            start = time.perf_counter()
            layout = plan.layout(key, cond, js[0])
            layout_seconds += time.perf_counter() - start
            at = loaded_at[js]
            p = np.flatnonzero(at >= 0)  # the loaded patches of the batch
            sources = [_trial_sources(cond, js, np.arange(js.size))] if with_trial else []
            if p.size:
                rim, interior = load_rim[at[p]], load_interior[at[p]]
                sources.append((p, js[p], np.full(p.size, nbf), rim, interior))
            solved, batch_fill = _solve_batch(cond, layout, js, m, _join(*sources),
                                              nbf + (p.size > 0))
            batches += 1
            unknowns += (layout.indptr.size - 1) * js.size
            fill += batch_fill
            if with_trial:
                _write_skeleton(skeleton, cond, layout, js, solved, nbf)
                exceptions.append(_exception_entries(layout, js, solved, nbf))
            if p.size:
                rows, vals = _finish_batch(
                    cond, layout, js[p],
                    (np.arange(p.size), js[p], np.zeros(p.size, dtype=int), rim, interior),
                    solved[p][:, :, nbf:])
                data.extend(zip(js[p], rows, vals[:, :, 0]))
            del layout, solved  # gone before the next class's layout is made
        for _, rows, column in sorted(data, key=lambda d: d[0]):
            corrector[rows] += column
        data.clear()
    if with_trial:
        slots, columns, values = _join(*exceptions)
        trial = CondensedTrial(
            skeleton, sp.csc_matrix((values, (slots, columns)),
                                    shape=(cond.rim_nodes.size, N * nbf)), cond)
    work = (elements.size, batches, unknowns, fill, len(plan) - packed, plan.nbytes,
            layout_seconds)
    return trial, corrector, plan, work


def _log_build(work, space=None, reach=0, seconds=0.0):
    """Log a `build_space` call at DEBUG: the `work` of its `_solve_patches`
    and, for the `space` of an offline build, the element products that
    formed its G within `reach` element rows in `seconds`, its condensed
    trial's stored entries and bytes and the bytes it keeps in its
    condensation, in G and in G's dense LU (0 without one)."""
    products, kept = (0, 0, 0, 0.0), (0, 0, 0, 0, 0)
    if space is not None:
        G, trial = space.G, space.trial
        products = (space.forms.coarse.n_elements, reach, G.nnz, seconds)
        kept = (trial.nnz, trial.nbytes, space.condensation.nbytes,
                G.data.nbytes + G.indices.nbytes + G.indptr.nbytes,
                sum(a.nbytes for a in space.G_lu[:2]) if space.G_lu else 0)
    log.debug(
        "build_space: %d patches factorized in %d batches, %d skeleton unknowns, L+U fill %d; "
        "%d classes packed into the space's plan of %d bytes, %.3f s making the batches' "
        "layouts, packing and ordering included; G from the products of %d elements within "
        "%d element rows, %d G entries stored, %.2f s forming them; trial stored condensed in "
        "%d entries of %d bytes, condensation in %d bytes, G in %d bytes and its dense LU in "
        "%d bytes",
        *work, *products, *kept)


def build_space(forms, P, m, strict_zero_trace=False, load_blocks=None):
    """Trial space of all N*nbf localized basis vectors (deterministic order).

    With `load_blocks` (per-element data loads, shape (N, p), see
    assembly.element_loads) the space also carries the summed localized
    data solve as its corrector.  The trial space and G do not depend on
    the data: P keeps the space it last built, and a call for the same
    forms object, m and strict_zero_trace reuses its trial, G, element
    condensation and class layouts and solves only the loaded patches (see
    the module docstring).  A new space is built in three steps: the
    element condensation and the patch solves write the condensed trial
    (`_solve_patches`), the element products form G from it
    (`_ElementProducts`), and `_new_space` factorizes G in the dense
    regime.
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
        _, corrector, _, work = _solve_patches(
            space.condensation, forms, P, m, strict_zero_trace, load_blocks, space.layouts
        )
        _log_build(work)
        return replace(space, corrector=corrector)
    P.space = space = None  # the previous trial, G, LU, condensation and plan go first
    cond = _condense(forms, P)
    trial, corrector, plan, work = _solve_patches(cond, forms, P, m, strict_zero_trace,
                                                  load_blocks)
    near_field = coarse.n_elements * P.nbf > DENSE_LIMIT  # the regime of `solve_multiscale`
    reach = NEAR_FIELD if near_field else 2 * m + 1
    start = time.perf_counter()
    G, G_norm = _ElementProducts(forms, cond, trial, m, reach, near_field,
                                 _layout_keys(coarse, m), plan.rim_offsets).matrix()
    seconds = time.perf_counter() - start
    P.space = _new_space(forms, m, strict_zero_trace, trial, G, G_norm, corrector, cond, plan,
                         near_field)
    _log_build(work, P.space, reach, seconds)
    return P.space


def _whole_g(space):
    """All of G of a space built by `build_space`, in CSR form, from the
    element products of its condensed trial (`_ElementProducts`) at reach
    2m + 1, in double."""
    return _ElementProducts(space.forms, space.condensation, space.trial, space.m,
                            2 * space.m + 1, False, _layout_keys(space.forms.coarse, space.m),
                            space.layouts.rim_offsets).matrix()[0]


class _MatrixFreeG:
    """The whole coarse matrix G = Psi^T B Psi of a near-field space,
    applied as Psi^T (B (Psi x)) without forming it (B is complex
    symmetric), with the products of the `CondensedTrial` Psi."""

    def __init__(self, space):
        self.B, self.trial = space.forms.B, space.trial
        self.shape = (space.trial.shape[1], space.trial.shape[1])

    def __matmul__(self, x):
        return self.trial.T @ (self.B @ (self.trial @ x))


@dataclass
class CoarseSystem:
    """G c = b of a space, made by `assemble_coarse`: `G` is the space's
    stored G (for a near-field space its complex64 near field, see
    `MultiscaleSpace`) and `b` the coarse right-hand side.  How the
    system is solved is the space's to decide (`solve_multiscale`)."""

    G: sp.csr_matrix
    b: np.ndarray


def assemble_coarse(space, forms, loads):
    """Petrov-Galerkin system G c = b with G[p,q] = B(psi_q, psi*_p).

    With psi*_p = conj(psi_p) the pairing collapses to psi_p^T B psi_q, so
    G = Psi^T B Psi is complex symmetric; the system stores the space's own
    G (see `build_space`).  The rhs is Psi^T (fine loads), minus Psi^T B q
    when the space carries a data corrector q.  `forms` must be the object
    the space was built from.
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
    return CoarseSystem(space.G, np.asarray(b).ravel())


def _near_field_solve(space, A, b):
    """Solve A c = b, A the `_MatrixFreeG` of the near-field space `space`,
    by flexible GMRES preconditioned with the LU of the space's complex64
    near field, or, when it does not converge, the near field is beyond
    single precision's range or its LU is singular or gives a non-finite
    output, by the double LU of the whole G (`_whole_g`).  The stored near
    field is exactly symmetric, so its transpose (its CSR arrays as CSC) is
    itself, factorized on its stored data, indices and indptr, uncopied."""
    n = A.shape[0]
    try:
        near = space.G.T
        if not np.isfinite(near.data).all():
            raise SingularMatrix("near field beyond single precision's range")
        F = kernels.factorize(near)
        c, info, iterations, estimate = kernels.fgmres(A, b, F.solve, 1e-13, restart=100,
                                                       maxiter=2)
    except SingularMatrix as exc:  # of the factorization or a preconditioner solve
        info = None
        log.debug("coarse near-field preconditioner on %d dofs failed: %s", n, exc)
    else:
        log.debug("coarse GMRES on %d dofs: %d iterations, info %d, applying the matrix-free "
                  "Psi^T B Psi, preconditioner %s LU with %d L+U entries, residual estimate "
                  "%.2e", n, iterations, info, F.dtype, F.fill, estimate)
    if info != 0:
        F = None  # free the near field's LU before factorizing all of G
        c = kernels.factorize(_whole_g(space)).solve(b)
    return c


def _dense_lu(A):
    """The dense LU of the sparse matrix A as (lu, piv, rcond): LAPACK
    `getrf`'s factors, frozen read-only, and `gecon`'s estimate of A's
    reciprocal condition number in the 1-norm (0 for an exactly zero
    pivot)."""
    norm = abs(A).sum(axis=0).max()
    A = A.toarray(order="F")
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (A,))
    lu, piv, info = getrf(A, overwrite_a=True)
    rcond = gecon(lu, norm, norm="1")[0] if info == 0 else 0.0
    lu.flags.writeable = piv.flags.writeable = False
    log.debug("dense LU of G on %d dofs: rcond %.2e", A.shape[0], rcond)
    return lu, piv, rcond


def _dense_solve(G_lu, b):
    """Solve G c = b by the dense LU `G_lu` of G (`_dense_lu`); raise
    SingularMatrix when G is singular to working precision, its LU's
    reciprocal condition estimate below the machine epsilon."""
    lu, piv, rcond = G_lu
    log.debug("coarse dense solve on %d dofs by the space's LU, rcond %.2e", lu.shape[0], rcond)
    if not rcond >= np.finfo(float).eps:
        raise SingularMatrix(f"reciprocal condition estimate {rcond:.2e}")
    getrs = get_lapack_funcs("getrs", (lu, b))
    return getrs(lu, piv, b)[0]


def _check_backward_error(A, b, c, scale, diag):
    """Raise SingularCoarseSystem unless the normwise backward error
    |A c - b| / (|G| |c| + |b|), in max norms, is at most 1e-10 and the
    relative residual |b - A c|_2 / |b|_2 at most 1e-9; `scale` is |G|_inf
    of the stored G, a lower bound of |A|_inf when G holds only A's near
    field.  Logs both."""
    r = A @ c - b
    residual = np.abs(r).max()
    eta = residual / (scale * np.abs(c).max() + np.abs(b).max()) if residual else 0.0
    relative = np.linalg.norm(r) / np.linalg.norm(b) if residual else 0.0
    log.debug("coarse solve on %d dofs: backward error %.2e, relative residual %.2e",
              A.shape[0], eta, relative)
    if not eta <= 1e-10:
        raise SingularCoarseSystem(
            f"coarse solve of {A.shape[0]} dofs has backward error {eta:.2e} "
            f"> 1e-10{diag}"
        )
    if not relative <= 1e-9:
        raise SingularCoarseSystem(
            f"coarse solve of {A.shape[0]} dofs has relative residual {relative:.2e} "
            f"> 1e-9{diag}"
        )


def solve_multiscale(system, space, forms):
    """Coefficients and fine-grid expansion of the multiscale solution.

    `system` is the space's (`assemble_coarse`) and `forms` the object the
    space was built from; DimensionMismatch is raised otherwise.  The space
    fixed at its build how G is solved (`MultiscaleSpace.near_field`):

    - a space of at most DENSE_LIMIT coarse dofs back-substitutes with the
      dense LU of G it keeps, and refuses a G singular to working precision
      (`_dense_solve`);
    - a near-field space solves the whole G, applied matrix-free, by
      flexible GMRES (restart 100, at most two cycles) until its estimate of
      |G c - b|_2 / |b|_2 reaches 1e-13, preconditioned by the
      single-precision sparse LU of its stored near field.  If GMRES does
      not converge, or that LU cannot be formed or applied, the whole G is
      formed by element products (`_whole_g`) and solved by its double
      sparse LU, which refuses an exactly singular G.  GMRES does not check
      for a G singular to working precision; the guard below refuses its
      coefficients by their relative residual.

    Either regime ends with the backward error guard: SingularCoarseSystem
    is raised for a solution whose |G c - b| / (|G| |c| + |b|), in max
    norms, exceeds 1e-10, with |G| the space's `G_norm` (|G_near|_inf for a
    near-field space, which only makes the guard stricter), or whose
    relative residual |b - G c|_2 / |b|_2 exceeds 1e-9.  These refusals
    and a singular G's name k*H/eps.  The dense LU's reciprocal condition
    estimate, the GMRES iteration count, its preconditioner's precision and
    fill, its residual estimate, the backward error and the relative
    residual |b - G c|_2 / |b|_2 are logged at DEBUG.
    """
    if forms is not space.forms:
        raise DimensionMismatch("forms differ from the forms the space was built from")
    if system.G is not space.G:
        raise DimensionMismatch("coarse system was not assembled from this space")
    b = system.b
    khe = forms.k * forms.coarse.H / forms.medium.epsilon
    diag = f" (k*H/eps = {khe:.3g}; check resolution/oversampling)"
    A = _MatrixFreeG(space) if space.near_field else space.G
    try:
        c = _near_field_solve(space, A, b) if space.near_field else _dense_solve(space.G_lu, b)
    except SingularMatrix as exc:
        raise SingularCoarseSystem(f"coarse system is singular{diag}: {exc}") from exc
    if not np.all(np.isfinite(c)):
        raise SingularCoarseSystem("coarse solve produced non-finite coefficients")
    _check_backward_error(A, b, c, space.G_norm, diag)
    u = np.asarray(space.trial @ c).ravel()
    if space.corrector is not None:
        u = u + space.corrector
    return u, c


def measure_decay(j, i, forms, P, m_list):
    """Tail energies of the unlocalized basis (j, i) outside each m-patch.

    w is the solve on element j's domain patch (m = NH - 1).  t(m) =
    |w|^2_{a, outside} + |pi w|^2_{s, outside}, the sum of the element
    energies |w|^2_{a, e} + |pi w|^2_{s, e} over the elements outside the
    patch, each formed once from the element's cells; returns the list of
    t(m) and the geometric mean of consecutive ratios (decay factor).
    """
    _check_basis(j, i, forms.coarse.n_elements, P.nbf)
    grid, coarse = forms.grid, forms.coarse
    w = local_cem_solve(j, coarse.NH - 1, forms, P)[:, i]
    K_loc, _ = element_matrices(grid.h, 1.0)
    w_cells = w[grid.cell_nodes]  # (cells, 4)
    a_cells = forms.medium.values * np.real(np.sum(w_cells.conj() * (w_cells @ K_loc), axis=1))
    energies = (a_cells[coarse.element_cells].sum(axis=1)
                + np.sum(np.abs(pi_coeffs(P, w)) ** 2, axis=1))
    tails = []
    for m in m_list:
        outside = np.ones(coarse.n_elements, dtype=bool)
        outside[oversample(coarse, j, m).elements] = False
        tails.append(float(energies[outside].sum()))
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
