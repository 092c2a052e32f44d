"""Per-coarse-element auxiliary eigenbases and the element-wise projection.

Each coarse element K_j carries the lowest eigenpairs of the generalized
problem  a_j(phi, v) = lambda s_j(phi, v)  posed with natural boundary on
the element (a_j = coefficient stiffness over the element's cells, s_j the
weighted mass).  Eigenvectors are s_j-orthonormal, so the projection onto
their span needs no denominators.

All N elements are the same r x r block of fine cells, so their forms share
one stencil (`assembly.element_stencil`) and are assembled as COO triplets
in broken numbering (node a of element j is row j*p + a).  These give the
sparse block-diagonal S the projection keeps and, one chunk of elements at a
time (`assembly._element_chunks`), the dense (chunk, p, p) stacks the
eigensolves read.  Everything else it holds is stacked by element, so
applying it is one batched product.

Elements whose cells carry bitwise-equal coefficients and spectral weights
(and, with the trace term, touch the same sides of the domain) are one
kind (`_element_kinds`), solved once on its lowest-index element; a medium
without repeated elements has N kinds.  The DEBUG log counts both.

On request (trace_weight != 0) the s-form gains a trace term on elements
touching the outer boundary, gamma * int_{dK_j ^ dOmega} A u v.  It is
assembled from element j's own boundary edges only, with the edge ownership
rule of `assembly.element_loads` (each outer edge belongs to the fine cell
it borders), so the per-element trace blocks add up to the global boundary
mass and no neighbour's edge leaks in at a shared boundary node.  A
volume-weighted s-form cannot see traces at all, so the projection kernel
contains functions with O(1) boundary values, and with impedance data the
data functional on that kernel caps the accuracy of a coarse solve that
has no data corrector; the trace term makes the lowest eigenmodes control
boundary values as well.  The automatic weight (negative trace_weight) is
gamma = 96 H^-2 times the local coefficient.

Zero-extension sums of per-element functions are discontinuous across
element interfaces; they live in the broken space  prod_j V(K_j), one
nodal block per element.  The projection maps into that space, which is
what makes idempotence and the Pythagoras split exact identities at the
discrete level.
"""

import csv
import logging

import numpy as np
import scipy.sparse as sp

from . import kernels
from .assembly import _element_chunks, _triplets_of, element_blocks, element_boundary_triplets
from .assembly import element_matrices, element_stencil, element_triplets

log = logging.getLogger(__name__)

TRACE_WEIGHT_SCALE = 96.0  # default gamma = 96 / H^2, times the local coefficient

__all__ = ["ProjectionOperator", "build_projection", "pi_coeffs", "dump_eigenvalues"]


class ProjectionOperator:
    """Auxiliary eigenpairs of all N coarse elements, stacked by element.

    eigenvalues (N, nbf) ascend per element; bases (N, p, nbf) holds the
    s_j-orthonormal eigenvectors Phi_j on element j's nodes; sphi (N, p, nbf)
    holds S_j Phi_j; S is the block-diagonal (N*p, N*p) CSR matrix of the
    element forms S_j in broken numbering.  `kinds` = (first, kind) of
    `_element_kinds`, the elements each eigenproblem was solved for.  `space` is the
    `cem.MultiscaleSpace` that `cem.build_space` last built on this
    projection (None before the first build); holding it is what lets later
    calls for the same forms, m and strict_zero_trace reuse its trial space
    and coarse matrix.
    """

    def __init__(self, coarse, eigenvalues, bases, sphi, S, kinds):
        self.coarse = coarse
        self.eigenvalues = eigenvalues
        self.bases = bases
        self.sphi = sphi
        self.S = S
        self.kinds = kinds
        self.nbf = bases.shape[2]
        self.space = None


def _element_kinds(forms, trace):
    """(first, kind): kind[j] is element j's kind, numbered in the order of
    the kinds' lowest-index elements first[kind].  Element j's key is the
    bytes of its cells' coefficients and spectral weights and, with `trace`,
    the domain sides it touches, as its cells own the outer edges there."""
    coarse = forms.coarse
    cells = coarse.element_cells
    key = [forms.medium.values[cells].view(np.uint64), forms.weights.values[cells].view(np.uint64)]
    if trace:
        J, I = np.divmod(np.arange(coarse.n_elements), coarse.NH)
        key.append(np.stack([I == 0, I == coarse.NH - 1, J == 0, J == coarse.NH - 1], axis=1))
    _, first, kind = np.unique(np.hstack(key), axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[kind.ravel()]


def build_projection(forms, nbf, trace_weight=0.0):
    """Solve every element eigenproblem and bundle the projection data.

    trace_weight: gamma of the boundary trace term; 0 (default) gives the
    plain volume-weighted form, a negative value or None picks 96 H^-2.
    On a boundary element the term is gamma times the coefficient-weighted
    mass of the outer edges owned by the element's own cells.  Each kind of
    element (`_element_kinds`) is solved once.
    """
    grid, coarse = forms.grid, forms.coarse
    if trace_weight is None or trace_weight < 0.0:
        trace_weight = TRACE_WEIGHT_SCALE / coarse.H**2
    N, p = coarse.element_nodes.shape
    cells = coarse.element_cells
    stencil = element_stencil(grid, coarse)
    Ke, Me = element_matrices(grid.h, 1.0)
    parts = [element_triplets(stencil, Me, forms.weights.values[cells])]
    if trace_weight:
        rows, cols, vals = element_boundary_triplets(grid, coarse, forms.medium)
        parts.append((rows, cols, trace_weight * vals))
    first, kind = _element_kinds(forms, trace_weight)
    log.debug("build_projection: %d elements in %d kinds, one eigenproblem each", N, first.size)
    eigenvalues = np.empty((first.size, nbf))
    bases = np.empty((first.size, p, nbf))
    for chunk in _element_chunks(first.size, p):
        js, n = first[chunk], len(chunk)
        K = element_blocks(*element_triplets(stencil, Ke, forms.medium.values[cells[js]]), n, p)
        mine = [element_triplets(stencil, Me, forms.weights.values[cells[js]])]
        mine += [_triplets_of(js, p, *t) for t in parts[1:]]  # the trace triplets of js
        S_blocks = element_blocks(*(np.concatenate(t) for t in zip(*mine)), n, p)
        for i, K_j, S_j in zip(chunk, K, S_blocks):
            eigenvalues[i], bases[i] = kernels.generalized_sym_eig(K_j, S_j, nbf)
    eigenvalues, bases = eigenvalues[kind], bases[kind]
    rows, cols, vals = (np.concatenate(t) for t in zip(*parts))
    del parts  # the unconcatenated copy
    S = sp.csr_matrix((vals, (rows, cols)), shape=(N * p, N * p))
    sphi = (S @ bases.reshape(N * p, nbf)).reshape(N, p, nbf)
    return ProjectionOperator(coarse, eigenvalues, bases, sphi, S, (first, kind))


def pi_coeffs(P, v):
    """Per-element expansion coefficients of the projection of the nodal
    vector v, shape (N, nbf)."""
    blocks = np.asarray(v)[P.coarse.element_nodes]
    return (blocks[:, None, :] @ P.sphi)[:, 0, :]


def dump_eigenvalues(P, path):
    """CSV dump 'element,index,lambda' of every retained eigenvalue."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "index", "lambda"])
        for j, values in enumerate(P.eigenvalues):
            for i, lam in enumerate(values):
                writer.writerow([j, i, repr(float(lam))])
