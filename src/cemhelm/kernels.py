"""Low-level numerical primitives.

Sparse complex matrices are plain scipy CSR/CSC matrices; this module adds
the two operations the rest of the package relies on: a reusable direct
factorization for (complex symmetric, indefinite) sparse systems, and a
dense generalized symmetric eigensolver for the small local problems.

`factorize` is the package's only sparse LU.  Every matrix it receives (the
fine system, the condensed skeleton systems of the patches, and the
near-field block of the coarse Petrov-Galerkin system that preconditions
its GMRES, or the whole coarse system when that GMRES does not converge)
is complex symmetric, up to rounding in the skeleton systems, so
it runs SuperLU in symmetric mode: a minimum-degree ordering of A^T + A
applied to rows and columns alike, and a small diagonal pivot threshold
(0.01) that keeps the diagonal pivots the ordering was chosen for unless
one is below 1 % of its column's largest entry (zero and tiny diagonals
still pivot off).  Against SuperLU's default column ordering (COLAMD on
A^T A) this cuts fill and factorization time on all three systems.
`Factorization.fill` reports the factors' stored L+U entries.

Matrices of one sparsity pattern share their ordering, which depends on the
pattern alone, so it can be computed once (Liu, SIAM J. Matrix Anal. Appl.
11, 1990, on reusing the symbolic phase).  `Factorization.perm_c` is
SuperLU's column permutation: column i of A is column perm_c[i] of the
ordered matrix.  A matrix of the same pattern whose rows and columns are
renumbered so that old index i becomes perm_c[i], i.e. A[p][:, p] with p =
argsort(perm_c), is then factorized with `ordered=True` (SuperLU's NATURAL
ordering), giving the same L+U fill as the minimum-degree run.  The inverse
is a trap: A[perm_c][:, perm_c] applies the ordering backwards and on the
patch skeletons triples the fill.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

__all__ = ["SUBSET_EIG_RATIO", "Factorization", "factorize", "generalized_sym_eig"]


class Factorization:
    """Opaque LU handle tied to one sparse matrix; reusable for many rhs."""

    def __init__(self, lu, shape, dtype):
        self._lu = lu
        self.shape = shape
        self.dtype = dtype

    @property
    def fill(self):
        """Nonzeros stored in the factors L and U (SuperLU's count, no copy)."""
        return self._lu.nnz

    @property
    def perm_c(self):
        """The column ordering SuperLU applied (see the module docstring), as
        a copy: SuperLU's own array would keep the factors alive."""
        return self._lu.perm_c.copy()

    def solve(self, b):
        b = np.asarray(b)
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"rhs has {b.shape[0]} rows, matrix is {self.shape[0]}x{self.shape[1]}"
            )
        x = self._lu.solve(b.astype(self.dtype, copy=False))
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("solve produced non-finite entries")
        return x


def factorize(A, ordered=False):
    """LU-factorize a square sparse matrix for repeated direct solves.

    Tuned for structurally symmetric matrices (see the module docstring);
    other square matrices are factorized too, with threshold pivoting.
    With `ordered`, A is already in a fill-reducing order (the perm_c of an
    earlier factorization of its pattern) and is factorized as it is.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {A.shape}")
    try:
        lu = spla.splu(
            A.tocsc(),
            permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.01,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularMatrix(str(exc)) from exc
    return Factorization(lu, A.shape, A.dtype)


# Blocks larger than SUBSET_EIG_RATIO * count compute only the `count` lowest
# pairs (LAPACK ?sygvx); smaller ones do the full solve.  Measured on one BLAS
# thread over 100 high-contrast element blocks, subset / full time: p = 16 with
# 4 pairs 1.21, p = 25 with 4 pairs 0.86, p = 25 with 8 pairs 1.03, p = 36 with
# 8 pairs 0.78, p = 169 with 4 pairs 0.61.
SUBSET_EIG_RATIO = 4


def generalized_sym_eig(K, S, count):
    """First `count` eigenpairs of K v = lambda S v, S-orthonormal, ascending.

    K symmetric, S symmetric positive definite; both dense (or convertible).
    Solved by a dense decomposition: a full one for small problems, one
    that computes only the requested pairs when the problem has more than
    SUBSET_EIG_RATIO * count of them.
    """
    K = np.asarray(K.toarray() if sp.issparse(K) else K, dtype=float)
    S = np.asarray(S.toarray() if sp.issparse(S) else S, dtype=float)
    if K.shape != S.shape or K.shape[0] != K.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {K.shape} vs {S.shape}")
    if count > K.shape[0]:
        raise DimensionMismatch(
            f"requested {count} pairs from a {K.shape[0]}-dimensional problem"
        )
    subset = {}
    if K.shape[0] > SUBSET_EIG_RATIO * count:
        subset = dict(subset_by_index=[0, count - 1], driver="gvx")
    try:
        values, vectors = sla.eigh(K, S, **subset)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return values[:count], vectors[:, :count]
