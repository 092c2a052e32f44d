"""Per-coarse-element auxiliary eigenbases and the element-wise projection.

Each coarse element K_j carries the lowest eigenpairs of the generalized
problem  a_j(phi, v) = lambda s_j(phi, v)  posed with natural boundary on
the element (a_j = coefficient stiffness over the element's cells, s_j the
weighted mass).  Eigenvectors are s_j-orthonormal, so the projection onto
their span needs no denominators.

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
from .assembly import assemble_boundary_mass, assemble_stiffness, assemble_weighted_mass

TRACE_WEIGHT_SCALE = 96.0  # default gamma = 96 / H^2, times the local coefficient

__all__ = [
    "AuxiliaryBasis",
    "ProjectionOperator",
    "BrokenField",
    "local_eigenbasis",
    "build_projection",
    "pi_coeffs",
    "pi_apply",
    "pi_gram_correction",
    "pi_rhs",
    "broken_s_norm_sq",
    "dump_eigenvalues",
]


class AuxiliaryBasis:
    """Eigenpairs of one coarse element: ascending values, s-orthonormal vectors."""

    def __init__(self, element, eigenvalues, vectors, nodes):
        self.element = element
        self.eigenvalues = eigenvalues  # (l,)
        self.vectors = vectors          # (p, l), columns s_j-orthonormal
        self.nodes = nodes              # (p,) global fine-node ids


def local_forms(grid, medium, weights, coarse, j):
    """Element stiffness/weighted-mass pair with local node numbering."""
    cells = coarse.element_cells[j]
    nodes = coarse.element_nodes[j]
    Kj = assemble_stiffness(grid, medium, cells=cells, nodes=nodes)
    Sj = assemble_weighted_mass(grid, weights, cells=cells, nodes=nodes)
    return Kj, Sj, nodes


def local_eigenbasis(j, K_loc, S_loc, count, nodes=None):
    values, vectors = kernels.generalized_sym_eig(K_loc, S_loc, count)
    return AuxiliaryBasis(j, values, vectors, nodes)


class ProjectionOperator:
    """All auxiliary bases plus the scattered S_j*Phi_j factor columns.

    `factor` is the (n_fine_nodes, N*nbf) sparse matrix whose column
    p = j*nbf + i is the zero-extended vector S_j phi_j^i; the Gram
    correction is factor @ factor.T and column p is also the right-hand
    side of the constrained basis problem for (j, i).
    """

    def __init__(self, coarse, bases, s_locals, nbf):
        self.coarse = coarse
        self.bases = bases
        self.s_locals = s_locals
        self.nbf = nbf
        self.n_nodes = coarse.fine.n_nodes
        # (N, p, nbf): sphi[j] = S_j Phi_j on element j's p nodes
        self.sphi = np.stack([s_locals[j] @ bases[j].vectors for j in range(len(bases))])

        n = self.n_nodes
        N = coarse.n_elements
        p = coarse.element_nodes.shape[1]
        rows = np.repeat(coarse.element_nodes, nbf, axis=0).reshape(N * nbf, p)
        data = self.sphi.transpose(0, 2, 1).ravel()
        indptr = np.arange(N * nbf + 1) * p
        self.factor = sp.csc_matrix((data, rows.ravel(), indptr), shape=(n, N * nbf))

    @property
    def n_elements(self):
        return self.coarse.n_elements

    def eigenvalues(self):
        return np.array([b.eigenvalues for b in self.bases])


def build_projection(forms, nbf, trace_weight=0.0):
    """Solve every element eigenproblem and bundle the projection data.

    trace_weight: gamma of the boundary trace term; 0 (default) gives the
    plain volume-weighted form, a negative value or None picks 96 H^-2.
    On a boundary element the term is gamma times the coefficient-weighted
    mass of the outer edges owned by the element's own cells.
    """
    coarse = forms.coarse
    if trace_weight is None or trace_weight < 0.0:
        trace_weight = TRACE_WEIGHT_SCALE / coarse.H**2
    bases = []
    s_locals = []
    for j in range(coarse.n_elements):
        Kj, Sj, nodes = local_forms(forms.grid, forms.medium, forms.weights, coarse, j)
        if trace_weight and coarse.touches_boundary[j]:
            Mbj = assemble_boundary_mass(
                forms.grid, forms.medium, cells=coarse.element_cells[j], nodes=nodes
            )
            Sj = (Sj + trace_weight * Mbj).tocsr()
        bases.append(local_eigenbasis(j, Kj.toarray(), Sj.toarray(), nbf, nodes))
        s_locals.append(Sj)
    return ProjectionOperator(coarse, bases, s_locals, nbf)


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
    out = np.empty((P.n_elements, P.nbf), dtype=blocks.dtype)
    for j in range(P.n_elements):
        out[j] = P.sphi[j].T @ blocks[j]
    return out


def pi_apply(P, v):
    """Projection onto the auxiliary space, returned as a broken field."""
    coeffs = pi_coeffs(P, v)
    blocks = np.empty(P.coarse.element_nodes.shape, dtype=coeffs.dtype)
    for j in range(P.n_elements):
        blocks[j] = P.bases[j].vectors @ coeffs[j]
    field = BrokenField(P.coarse, blocks)
    field.coeffs = coeffs
    return field


def pi_gram_correction(P):
    """Sparse C with v^T C w = s(pi v, pi w); rank = N*nbf."""
    C = (P.factor @ P.factor.T).tocsr()
    C.sum_duplicates()
    return C


def pi_rhs(P, j, i):
    """Right-hand side functional of basis problem (j, i): S_j phi_j^i, zero-extended."""
    return P.factor[:, [j * P.nbf + i]].toarray().ravel()


def broken_s_norm_sq(P, v, elements=None):
    """Sum of s_j-norms squared over (selected) elements.

    For a global nodal vector this equals the global s-norm squared; for a
    broken field the blocks are integrated element by element.
    """
    blocks = _blocks_of(P, v)
    idx = range(P.n_elements) if elements is None else elements
    total = 0.0
    for j in idx:
        b = blocks[j]
        total += float(np.real(np.vdot(b, P.s_locals[j] @ b)))
    return total


def dump_eigenvalues(P, path):
    """CSV dump 'element,index,lambda' of every retained eigenvalue."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "index", "lambda"])
        for b in P.bases:
            for i, lam in enumerate(b.eigenvalues):
                writer.writerow([b.element, i, repr(float(lam))])
