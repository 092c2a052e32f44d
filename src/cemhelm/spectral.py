"""Per-coarse-element auxiliary eigenbases and the element-wise projection.

Each coarse element K_j carries the lowest eigenpairs of the generalized
problem  a_j(phi, v) = lambda s_j(phi, v)  posed with natural boundary on
the element (a_j = coefficient stiffness over the element's cells, s_j the
weighted mass).  Eigenvectors are s_j-orthonormal, so the projection onto
their span needs no denominators.

All N elements are the same r x r block of fine cells, so their forms share
one stencil (`assembly.element_stencil`) and are assembled at once, as COO
triplets in broken numbering (node a of element j is row j*p + a).  These
give the dense (N, p, p) stacks the eigensolves read, freed on return, and
the sparse block-diagonal S the projection keeps.  Everything else it holds
is stacked by element, so applying it is one batched product.

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
element interfaces; they live in the broken space  prod_j V(K_j), modeled
here by `BrokenField` (one nodal block per element).  The projection maps
into that space, which is what makes idempotence and the Pythagoras split
exact identities at the discrete level.
"""

import csv

import numpy as np
import scipy.sparse as sp

from . import kernels
from .assembly import assemble_boundary_mass, element_matrices
from .assembly import element_blocks, element_stencil, element_triplets

TRACE_WEIGHT_SCALE = 96.0  # default gamma = 96 / H^2, times the local coefficient

__all__ = [
    "ProjectionOperator",
    "BrokenField",
    "build_projection",
    "pi_coeffs",
    "pi_apply",
    "pi_gram_correction",
    "pi_rhs",
    "broken_s_norm_sq",
    "dump_eigenvalues",
]


class ProjectionOperator:
    """Auxiliary eigenpairs of all N coarse elements, stacked by element.

    eigenvalues (N, nbf) ascend per element; bases (N, p, nbf) holds the
    s_j-orthonormal eigenvectors Phi_j on element j's nodes; sphi (N, p, nbf)
    holds S_j Phi_j; S is the block-diagonal (N*p, N*p) CSR matrix of the
    element forms S_j in broken numbering.
    """

    def __init__(self, coarse, eigenvalues, bases, sphi, S):
        self.coarse = coarse
        self.eigenvalues = eigenvalues
        self.bases = bases
        self.sphi = sphi
        self.S = S
        self.nbf = bases.shape[2]


def build_projection(forms, nbf, trace_weight=0.0):
    """Solve every element eigenproblem and bundle the projection data.

    trace_weight: gamma of the boundary trace term; 0 (default) gives the
    plain volume-weighted form, a negative value or None picks 96 H^-2.
    On a boundary element the term is gamma times the coefficient-weighted
    mass of the outer edges owned by the element's own cells.
    """
    grid, coarse = forms.grid, forms.coarse
    if trace_weight is None or trace_weight < 0.0:
        trace_weight = TRACE_WEIGHT_SCALE / coarse.H**2
    N, p = coarse.element_nodes.shape
    cells = coarse.element_cells
    stencil = element_stencil(grid, coarse)
    Ke, Me = element_matrices(grid.h, 1.0)
    K = element_blocks(*element_triplets(stencil, Ke, forms.medium.values[cells]), N, p)
    parts = [element_triplets(stencil, Me, forms.weights.values[cells])]
    if trace_weight:
        for j in np.flatnonzero(coarse.touches_boundary):
            Mbj = assemble_boundary_mass(
                grid, forms.medium, cells=cells[j], nodes=coarse.element_nodes[j]
            ).tocoo()
            parts.append((j * p + Mbj.row, j * p + Mbj.col, trace_weight * Mbj.data))
    rows, cols, vals = (np.concatenate(t) for t in zip(*parts))
    S_blocks = element_blocks(rows, cols, vals, N, p)
    eigenvalues = np.empty((N, nbf))
    bases = np.empty((N, p, nbf))
    for j in range(N):
        eigenvalues[j], bases[j] = kernels.generalized_sym_eig(K[j], S_blocks[j], nbf)
    S = sp.csr_matrix((vals, (rows, cols)), shape=(N * p, N * p))
    sphi = (S @ bases.reshape(N * p, nbf)).reshape(N, p, nbf)
    return ProjectionOperator(coarse, eigenvalues, bases, sphi, S)


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

    def scatter_sum(self):
        """Global nodal vector summing all blocks (interface nodes add up)."""
        out = np.zeros(self.coarse.fine.n_nodes, dtype=self.blocks.dtype)
        np.add.at(out, self.coarse.element_nodes.ravel(), self.blocks.ravel())
        return out


def _blocks_of(P, v):
    if isinstance(v, BrokenField):
        return v.blocks
    return np.asarray(v)[P.coarse.element_nodes]


def pi_coeffs(P, v):
    """Per-element expansion coefficients of the projection, shape (N, nbf)."""
    blocks = _blocks_of(P, v)
    return (blocks[:, None, :] @ P.sphi)[:, 0, :]


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


def dump_eigenvalues(P, path):
    """CSV dump 'element,index,lambda' of every retained eigenvalue."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "index", "lambda"])
        for j, values in enumerate(P.eigenvalues):
            for i, lam in enumerate(values):
                writer.writerow([j, i, repr(float(lam))])
