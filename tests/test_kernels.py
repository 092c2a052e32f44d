import numpy as np
import pytest
import scipy.sparse as sp

from cemhelm import kernels
from cemhelm.errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix


def test_identity_solve():
    A = sp.identity(2, dtype=complex, format="csc")
    x = kernels.factorize(A).solve(np.array([1.0, 2.0j]))
    assert np.allclose(x, [1.0, 2.0j], atol=1e-14)


def test_diagonal_solve():
    A = sp.diags([2.0, 4.0j]).astype(complex)
    x = kernels.factorize(A).solve(np.array([2.0, 4.0j]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_random_solve_residual():
    rng = np.random.default_rng(42)
    n = 50
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 10.0 * np.eye(n)
    A = sp.csc_matrix(A)
    x_star = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = kernels.factorize(A).solve(A @ x_star)
    assert np.linalg.norm(x - x_star) <= 1e-10 * np.linalg.norm(x_star)


def test_residual_invariant_randomized():
    rng = np.random.default_rng(7)
    fact = None
    for trial in range(100):
        n = int(rng.integers(3, 30))
        A = sp.csc_matrix(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 5.0 * np.eye(n)
        )
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        fact = kernels.factorize(A)
        x = fact.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factorization_reusable_for_many_rhs():
    rng = np.random.default_rng(3)
    A = sp.csc_matrix(rng.normal(size=(20, 20)) + 8.0 * np.eye(20))
    fact = kernels.factorize(A)
    B = rng.normal(size=(20, 5))
    X = fact.solve(B)
    assert np.linalg.norm(A @ X - B) <= 1e-10 * np.linalg.norm(B)


def _relative_residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


def test_zero_diagonal_symmetric_solve():
    # every diagonal pivot of the symmetric ordering is zero
    A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    b = np.array([1.0 + 2.0j, -3.0j])
    x = kernels.factorize(A).solve(b)
    assert _relative_residual(A, x, b) <= 1e-12


def test_bordered_saddle_point_solve():
    # [[B, U], [U^T, -I]] with B complex symmetric and indefinite, the form
    # of the constrained patch systems
    rng = np.random.default_rng(12)
    n, nb = 60, 8
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) * n * n
    B = lap.astype(complex) + sp.diags(-(30.0**2) + 5.0j * rng.random(n))
    U = sp.random(n, nb, density=0.2, random_state=3)
    A = sp.bmat([[B, U], [U.T, -sp.identity(nb)]], format="csc")
    assert abs(A - A.T).max() == 0.0
    rhs = rng.normal(size=(n + nb, 3)) + 1j * rng.normal(size=(n + nb, 3))
    X = kernels.factorize(A).solve(rhs)
    assert _relative_residual(A, X, rhs) <= 1e-12


def test_singular_matrix_raises():
    A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrix):
        kernels.factorize(A)


@pytest.mark.parametrize(
    "dense",
    [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
    ids=["rank-one", "zero-diagonal-with-null-row"],
)
def test_singular_symmetric_matrix_raises(dense):
    A = sp.csc_matrix(np.array(dense, dtype=complex))
    with pytest.raises(SingularMatrix):
        kernels.factorize(A)


def test_dimension_mismatch():
    A = sp.identity(3, format="csc")
    fact = kernels.factorize(A)
    with pytest.raises(DimensionMismatch):
        fact.solve(np.ones(4))
    with pytest.raises(DimensionMismatch):
        kernels.factorize(sp.csr_matrix(np.ones((2, 3))))


def test_eig_identity_pair():
    values, vectors = kernels.generalized_sym_eig(np.eye(2), np.eye(2), 2)
    assert np.allclose(values, [1.0, 1.0])
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)


def test_eig_diagonal():
    K = np.diag([0.0, 3.0])
    values, vectors = kernels.generalized_sym_eig(K, np.eye(2), 2)
    assert np.allclose(values, [0.0, 3.0], atol=1e-14)
    assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-12)


def _cholesky_reduction_oracle(K, S):
    # independent path: reduce to a standard symmetric problem via Cholesky
    L = np.linalg.cholesky(S)
    Linv = np.linalg.inv(L)
    C = Linv @ K @ Linv.T
    w, Q = np.linalg.eigh((C + C.T) / 2.0)
    V = Linv.T @ Q
    return w, V


def test_eig_matches_dense_oracle():
    rng = np.random.default_rng(11)
    n = 6
    K = rng.normal(size=(n, n))
    K = K + K.T
    L = rng.normal(size=(n, n))
    S = L @ L.T + n * np.eye(n)
    values, vectors = kernels.generalized_sym_eig(K, S, n)
    w_ref, _ = _cholesky_reduction_oracle(K, S)
    assert np.allclose(values, w_ref, atol=1e-10 * max(1.0, np.abs(w_ref).max()))
    # S-orthonormality and eigen-residual
    assert np.abs(vectors.T @ S @ vectors - np.eye(n)).max() <= 1e-10
    scale = np.linalg.norm(K) + np.abs(values).max() * np.linalg.norm(S)
    for i in range(n):
        res = K @ vectors[:, i] - values[i] * (S @ vectors[:, i])
        assert np.linalg.norm(res) <= 1e-9 * scale


def test_eig_ordering_nondecreasing():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        K = rng.normal(size=(n, n))
        K = K + K.T
        S = np.eye(n)
        values, _ = kernels.generalized_sym_eig(K, S, n)
        assert np.all(np.diff(values) >= -1e-12)


def test_eig_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        kernels.generalized_sym_eig(np.eye(3), np.diag([1.0, -1.0, 1.0]), 2)


def test_eig_count_exceeds_dimension():
    with pytest.raises(DimensionMismatch):
        kernels.generalized_sym_eig(np.eye(2), np.eye(2), 3)
