"""Low-level numerical primitives.

Sparse complex matrices are plain scipy CSR/CSC matrices; this module adds
the two operations the rest of the package relies on: a reusable direct
factorization for (complex symmetric, indefinite) sparse systems, and a
dense generalized symmetric eigensolver for the small local problems.

`factorize` is the package's only sparse LU.  Every matrix it receives (the
fine system, the bordered patch systems, the coarse Petrov-Galerkin system)
is complex symmetric, so it runs SuperLU in symmetric mode: a minimum-degree
ordering of A^T + A applied to rows and columns alike, and a small diagonal
pivot threshold (0.01) that keeps the diagonal pivots the ordering was
chosen for unless one is below 1 % of its column's largest entry (zero and
tiny diagonals still pivot off).  Against SuperLU's default column
ordering (COLAMD on A^T A) this cuts fill and factorization time on all
three systems.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

__all__ = ["Factorization", "factorize", "generalized_sym_eig"]


class Factorization:
    """Opaque LU handle tied to one sparse matrix; reusable for many rhs."""

    def __init__(self, lu, shape, dtype):
        self._lu = lu
        self.shape = shape
        self.dtype = dtype

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


def factorize(A):
    """LU-factorize a square sparse matrix for repeated direct solves.

    Tuned for structurally symmetric matrices (see the module docstring);
    other square matrices are factorized too, with threshold pivoting.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {A.shape}")
    try:
        lu = spla.splu(
            sp.csc_matrix(A),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.01,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularMatrix(str(exc)) from exc
    return Factorization(lu, A.shape, A.dtype)


def generalized_sym_eig(K, S, count):
    """First `count` eigenpairs of K v = lambda S v, S-orthonormal, ascending.

    K symmetric, S symmetric positive definite; both dense (or convertible).
    Solved by full dense decomposition: the local problems are small and a
    full solve is deterministic and robust.
    """
    K = np.asarray(K.toarray() if sp.issparse(K) else K, dtype=float)
    S = np.asarray(S.toarray() if sp.issparse(S) else S, dtype=float)
    if K.shape != S.shape or K.shape[0] != K.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {K.shape} vs {S.shape}")
    if count > K.shape[0]:
        raise DimensionMismatch(
            f"requested {count} pairs from a {K.shape[0]}-dimensional problem"
        )
    try:
        values, vectors = sla.eigh(K, S)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return values[:count], vectors[:, :count]
