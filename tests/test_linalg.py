"""Sparse container, PCG, dense generalized eigensolver, reference solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from augeig.errors import LinalgError
from augeig.linalg import (
    SparseMatrix,
    a_normalize,
    dense_sym_gen_eig,
    pcg_solve,
    reference_eigensolve,
)


def laplacian_1d(n, h=None):
    """Tridiagonal (-1, 2, -1) matrix; exact eigenvalues 2 - 2 cos(k pi / (n+1))."""
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return SparseMatrix(sp.diags([off, main, off], [-1, 0, 1]).tocsr())


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


# -- SparseMatrix ----------------------------------------------------------

def test_sparse_matrix_rejects_nonsquare():
    with pytest.raises(LinalgError):
        SparseMatrix(sp.csr_matrix(np.ones((2, 3))))


def test_sparse_matrix_rejects_asymmetric():
    with pytest.raises(LinalgError):
        SparseMatrix(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))


def test_sparse_matrix_basics():
    A = laplacian_1d(5)
    assert A.n == 5
    assert A.nnz == 13
    assert np.allclose(A.csr.diagonal(), 2.0)


def test_eig_bounds_bracket_spectrum():
    # Well-separated spectrum so 20 power steps are enough to be sharp.
    A = SparseMatrix(sp.diags(np.arange(1.0, 11.0)).tocsr())
    lmin, lmax = A.eig_bounds()
    assert 0 < lmin <= 2.0
    assert 9.0 <= lmax <= 10.001


# -- PCG -------------------------------------------------------------------

def test_pcg_matches_dense_solve():
    rng = np.random.default_rng(11)
    for n in (5, 20, 50):
        A = SparseMatrix(sp.csr_matrix(random_spd(n, rng)))
        b = rng.standard_normal(n)
        x, report = pcg_solve(A, b, theta=1e-12)
        assert not report.breakdown
        assert np.linalg.norm(x - np.linalg.solve(A.toarray(), b)) < 1e-9


def test_pcg_contraction_guarantee():
    A = laplacian_1d(120)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(120)
    for theta in (0.5, 0.1, 0.01):
        x_true = np.linalg.solve(A.toarray(), b)
        x, report = pcg_solve(A, b, theta=theta)
        assert not report.breakdown
        assert report.achieved_contraction <= theta
        # True A-norm contraction is bounded by the reported conservative one.
        e = x - x_true
        e0 = -x_true
        true_con = np.sqrt((e @ (A.csr @ e)) / (e0 @ (A.csr @ e0)))
        assert true_con <= theta


def test_pcg_warm_start_exact():
    A = laplacian_1d(30)
    x_true = np.linspace(0, 1, 30)
    b = A.csr @ x_true
    x, report = pcg_solve(A, b, x0=x_true.copy(), theta=0.1)
    assert report.iterations == 0
    assert np.array_equal(x, x_true)


def test_pcg_rejects_bad_theta():
    A = laplacian_1d(5)
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones(5), theta=0.0)
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones(5), theta=1.5)


def test_pcg_rejects_dimension_mismatch():
    with pytest.raises(LinalgError):
        pcg_solve(laplacian_1d(5), np.ones(4), theta=0.5)


def test_pcg_detects_indefinite():
    # A nonpositive diagonal stops the SSOR set-up before CG runs.
    A = SparseMatrix(sp.diags([1.0, -1.0]).tocsr())
    with pytest.raises(LinalgError, match="not SPD"):
        pcg_solve(A, np.array([1.0, 1.0]), theta=0.5)
    # A positive diagonal with eigenvalues 3 and -1 reaches CG's curvature guard.
    A = SparseMatrix(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(LinalgError, match=r"p\^T A p <= 0"):
        pcg_solve(A, np.array([1.0, 1.0]), theta=0.5)


def _plain_cg_iterations(A, b, target):
    """Unpreconditioned CG from zero; iterations until ||r|| <= target."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    for k in range(1, 10 * len(b) + 1):
        Ap = A.csr @ p
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        if np.sqrt(rr_new) <= target:
            return k
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise AssertionError("plain CG did not reach the target")


def test_ssor_accelerates():
    # pcg_solve always applies SSOR; plain CG must take more iterations to
    # reach the residual that SSOR-preconditioned CG reached.
    A = laplacian_1d(200)
    b = np.ones(200)
    x, ssor = pcg_solve(A, b, theta=1e-8)
    assert not ssor.breakdown
    plain = _plain_cg_iterations(A, b, np.linalg.norm(b - A.csr @ x))
    assert ssor.iterations < plain


# -- dense generalized eigensolver -----------------------------------------

def test_dense_eig_identity_pair():
    w, V = dense_sym_gen_eig(np.eye(3), np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)


def test_dense_eig_diagonal_pairs():
    w, _ = dense_sym_gen_eig(np.diag([1.0, 2.0]), np.eye(2))
    assert np.allclose(w, [1.0, 2.0])
    w, _ = dense_sym_gen_eig(np.eye(2), np.diag([2.0, 1.0]))
    assert np.allclose(sorted(w), [0.5, 1.0])


def test_dense_eig_b_orthonormal():
    rng = np.random.default_rng(5)
    A = random_spd(6, rng)
    B = random_spd(6, rng)
    w, V = dense_sym_gen_eig(A, B)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.allclose(V.T @ B @ V, np.eye(6), atol=1e-10)
    assert np.allclose(V.T @ A @ V, np.diag(w), atol=1e-8)


def test_dense_eig_rejects_indefinite_mass():
    with pytest.raises(LinalgError, match="SPD"):
        dense_sym_gen_eig(np.eye(2), np.diag([1.0, -1.0]))


def charpoly_roots(A, B):
    """Roots of det(A - t B) via determinant sampling, independent of eigh."""
    n = A.shape[0]
    ts = np.linspace(-1.0, 1.0, n + 1)
    vals = [np.linalg.det(A - t * B) for t in ts]
    coeffs = np.linalg.solve(np.vander(ts, n + 1), vals)
    return np.sort(np.roots(coeffs).real)


def test_dense_eig_charpoly_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        A = random_spd(n, rng)
        B = random_spd(n, rng)
        w, _ = dense_sym_gen_eig(A, B)
        roots = charpoly_roots(A, B)
        assert np.abs(w - roots).max() < 1e-8 * max(1.0, np.abs(w).max())


# -- normalization ---------------------------------------------------------

def test_a_normalize():
    A = laplacian_1d(10)
    v = -np.linspace(1, 2, 10)
    u = a_normalize(A, v)
    assert abs(u @ (A.csr @ u) - 1.0) < 1e-12
    assert u[np.argmax(np.abs(u))] > 0
    with pytest.raises(LinalgError):
        a_normalize(A, np.zeros(10))


# -- reference eigensolver -------------------------------------------------

def test_reference_known_eigenvalues():
    n = 80
    A = laplacian_1d(n)
    B = SparseMatrix(sp.identity(n, format="csr"))
    lams, vecs = reference_eigensolve(A, B, 3, 1e-11)
    exact = 2 - 2 * np.cos(np.arange(1, 4) * np.pi / (n + 1))
    assert np.abs(lams - exact).max() < 1e-9
    for i in range(3):
        u = vecs[:, i]
        res = A.csr @ u - lams[i] * (B.csr @ u)
        assert np.linalg.norm(res) < 1e-8
        assert abs(u @ (A.csr @ u) - 1.0) < 1e-10


def test_reference_seed_invariance():
    n = 60
    A = laplacian_1d(n)
    B = SparseMatrix(sp.identity(n, format="csr"))
    l0, v0 = reference_eigensolve(A, B, 2, 1e-11, seed=0)
    l1, v1 = reference_eigensolve(A, B, 2, 1e-11, seed=123)
    assert np.abs(l0 - l1).max() < 1e-9
    assert np.abs(v0 - v1).max() < 1e-5  # sign fixed by the normalization


def test_reference_scaling():
    n = 50
    A = laplacian_1d(n)
    B = SparseMatrix(sp.identity(n, format="csr"))
    c = 3.7
    l1, _ = reference_eigensolve(A, B, 2, 1e-12)
    l2, _ = reference_eigensolve(SparseMatrix(A.csr * c), B, 2, 1e-12)
    assert np.abs(l2 - c * l1).max() < 1e-9 * c


def test_reference_nev_guard():
    A = laplacian_1d(10)
    B = SparseMatrix(sp.identity(10, format="csr"))
    with pytest.raises(LinalgError):
        reference_eigensolve(A, B, 5, 1e-8)

