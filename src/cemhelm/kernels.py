"""Low-level numerical primitives.

Sparse complex matrices are plain scipy CSR/CSC matrices; this module adds
the operations the rest of the package relies on: a reusable direct
factorization for (complex symmetric, indefinite) sparse systems, a
flexible GMRES for the large coarse systems, and a dense generalized
symmetric eigensolver for the small local problems.

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
A^T A) this cuts fill and factorization time on all three systems.  A
matrix already numbered in a fill-reducing order is factorized with
`ordered=True`, in SuperLU's NATURAL ordering: the patch skeletons come
numbered by nested dissection of their geometry (see `cem`).
`Factorization.fill` reports the factors' stored L+U entries.

SuperLU's `splu` waits for the interpreter lock while another thread runs
Python: the first 800 patch skeletons at H = 1/40, m = 3 on 120 x 120
cells factorize in 0.24-0.27 s alone, in 0.82-0.94 s (once 18.8 s) beside
a thread running a pure-Python loop, and in 0.27-0.29 s beside one running
numpy matrix products, which release the lock (one BLAS thread, 2 cores).
So the package factorizes, and builds its spaces, on one thread.

`factorize` factorizes in the matrix's own precision.  The coarse near
field alone is given to it in complex64: its LU only preconditions, and
`fgmres` keeps a double-precision backward error with a single-precision
preconditioner (Arioli & Duff, ETNA 33, 2009), while SuperLU's
single-precision LU stores half the bytes of values in the same fill.
Every other system is factorized in complex128.

`fgmres` is flexible GMRES (Saad, SIAM J. Sci. Comput. 14, 1993): right
preconditioned, it keeps the preconditioned vectors z_j = M(v_j) and
updates x from them, so M need not be one fixed linear map, as a solve in
another precision is not.  A, the Arnoldi vectors and the z_j stay in
complex128, each z_j upcast from M's precision: under numpy 1.x's
value-based casting a complex64 z_j would round each update y_j z_j of x
to single precision.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

__all__ = ["SUBSET_EIG_RATIO", "Factorization", "factorize", "fgmres", "generalized_sym_eig"]


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
    With `ordered`, A is already in a fill-reducing order and is factorized
    as it is.
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


def _givens(a, b):
    """(c, s) with [[c, s], [-conj(s), c]] @ [a, b] = [r, 0], c real."""
    if a == 0.0:
        return 0.0, 1.0
    t = np.hypot(abs(a), abs(b))
    return abs(a) / t, a / abs(a) * np.conj(b) / t


def fgmres(A, b, M, rtol, restart, maxiter):
    """Solve A x = b from x = 0 by flexible GMRES, right preconditioned by M.

    A is anything with `@` and M a callable approximating A^-1; both take
    and return vectors.  Each cycle builds up to `restart` Arnoldi vectors
    and their preconditioned images in complex128, one by one, orthogonal
    by modified Gram-Schmidt; a cycle ends when the Arnoldi estimate of
    |b - A x|_2 / |b|_2 is at most `rtol`, and at most `maxiter` cycles
    run, each after the first from the true residual.  Returns (x, info,
    iterations, estimate): info is 0 when the estimate reached `rtol`,
    else the iteration count, as in scipy's `gmres`, and estimate is the
    last Arnoldi estimate.
    """
    b = np.asarray(b, dtype=complex)
    x, b_norm = np.zeros_like(b), np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0, 0, 0.0
    iterations = 0
    for cycle in range(maxiter):
        r = b - A @ x if cycle else b
        beta = np.linalg.norm(r)
        V, Z = [r / beta], []
        H = np.zeros((restart + 1, restart), dtype=complex)
        rotations, g = [], np.zeros(restart + 1, dtype=complex)
        g[0] = beta
        for j in range(restart):
            Z.append(np.asarray(M(V[j]), dtype=complex))
            w = A @ Z[j]
            for i, v in enumerate(V):
                H[i, j] = np.vdot(v, w)
                w -= H[i, j] * v
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] != 0.0:
                V.append(w / H[j + 1, j])
            for i, (c, s) in enumerate(rotations):
                H[i, j], H[i + 1, j] = (c * H[i, j] + s * H[i + 1, j],
                                        c * H[i + 1, j] - np.conj(s) * H[i, j])
            c, s = _givens(H[j, j], H[j + 1, j])
            rotations.append((c, s))
            H[j, j], H[j + 1, j] = c * H[j, j] + s * H[j + 1, j], 0.0
            g[j], g[j + 1] = c * g[j], -np.conj(s) * g[j]
            iterations += 1
            estimate = abs(g[j + 1]) / b_norm
            if estimate <= rtol or len(V) == j + 1:
                break
        y = sla.solve_triangular(H[:j + 1, :j + 1], g[:j + 1])
        for y_i, z in zip(y, Z):
            x += y_i * z
        if estimate <= rtol:
            return x, 0, iterations, estimate
    return x, iterations, iterations, estimate


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
