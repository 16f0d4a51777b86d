"""Sparse container, PCG, dense generalized eigensolver, reference solver."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import augeig.linalg as linalg
from augeig.errors import ConfigError, ConvergenceError, LinalgError
from augeig.linalg import (
    SolveReport,
    SparseMatrix,
    VCyclePreconditioner,
    a_normalize,
    dense_sym_gen_eig,
    pcg_solve,
    reference_eigensolve,
)

from augeig.harness import unit_square
from augeig.multilevel import LevelPlan, build_hierarchy

from conftest import sgs


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


def _held_bytes(arr):
    """Bytes of the buffer an array keeps alive (its outermost base)."""
    while arr.base is not None:
        arr = arr.base
    return arr.nbytes


def test_sparse_matrix_holds_exactly_nnz():
    # Two stored zeros out of 15 entries: eliminate_zeros leaves views of
    # the 15-entry arrays, which the container must not keep.
    dense = np.diag(2.0 * np.ones(5)) - np.eye(5, k=1) - np.eye(5, k=-1)
    coo = sp.coo_matrix(dense)
    rows = np.concatenate([coo.row, [0, 2]])
    cols = np.concatenate([coo.col, [2, 0]])
    vals = np.concatenate([coo.data, [0.0, 0.0]])
    A = SparseMatrix(sp.csr_matrix((vals, (rows, cols)), shape=(5, 5)))
    assert A.nnz == 13
    assert np.array_equal(A.csr.toarray(), dense)
    for arr in (A.csr.data, A.csr.indices):
        assert _held_bytes(arr) == A.nnz * arr.itemsize


def test_eig_bounds_bracket_spectrum():
    # Well-separated spectrum so 20 power steps are enough to be sharp.
    A = SparseMatrix(sp.diags(np.arange(1.0, 11.0)).tocsr())
    M = VCyclePreconditioner(A.csr)
    lmin, lmax = M.lmin, M.lmax
    assert 0 < lmin <= 2.0
    assert 9.0 <= lmax <= 10.001


# -- PCG -------------------------------------------------------------------

def _single_rhs_pcg(A, rhs, x0, theta):
    """Oracle: the single-vector PCG loop that the block solver replaced,
    step for step, with the same stopping rule and report, preconditioned
    by the test-local symmetric Gauss-Seidel."""
    x = np.array(x0, dtype=float)
    M = sgs(A)
    lmin, lmax = M.lmin, M.lmax
    lmax_up = lmax * linalg._LMAX_INFLATE
    lmin_dn = lmin * linalg._LMIN_DEFLATE
    r = rhs - A.csr @ x
    r0_norm = np.linalg.norm(r)
    init_err = r0_norm / np.sqrt(lmax_up)
    if r0_norm == 0.0:
        return x, SolveReport(0, 0.0)
    target = theta * r0_norm * np.sqrt(lmin_dn / lmax_up)

    z = M.apply(r)
    p = z.copy()
    rz = r @ z
    k = 0
    while k < max(1000, 10 * A.n):
        Ap = A.csr @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        k += 1
        if np.linalg.norm(r) <= target:
            break
        z = M.apply(r)
        rz_new = r @ z
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    rk_norm = np.linalg.norm(r)
    assert rk_norm <= target, "the oracle reached the iteration cap"
    return x, SolveReport(k, rk_norm / np.sqrt(lmin_dn) / init_err)


def _assert_matches_oracle(A, RHS, X0, theta):
    X, reports = pcg_solve(A, RHS, X0, theta, sgs(A))
    assert X.shape == RHS.shape and len(reports) == RHS.shape[1]
    for j in range(RHS.shape[1]):
        x, report = _single_rhs_pcg(A, RHS[:, j], X0[:, j], theta)
        assert np.array_equal(X[:, j], x)
        assert reports[j] == report
    return reports


def test_pcg_block_matches_single_vector_oracle():
    n = 120
    A = laplacian_1d(n)
    rng = np.random.default_rng(8)
    x_true = rng.standard_normal(n)
    smooth = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    RHS = np.column_stack([
        np.zeros(n),                      # zero right-hand side from zero
        A.csr @ x_true,                   # starts at its solution
        rng.standard_normal(n),
        smooth,
        1e3 * rng.standard_normal(n),
        A.csr @ x_true,                   # warm start near its solution
    ])
    X0 = np.zeros((n, 6))
    X0[:, 1] = x_true
    X0[:, 5] = x_true + 1e-3 * rng.standard_normal(n)
    for theta in (0.5, 0.1, 1e-6):
        reports = _assert_matches_oracle(A, RHS, X0, theta)
        assert reports[0].iterations == 0 and reports[1].iterations == 0
        its = {r.iterations for r in reports[2:]}
        assert len(its) >= 2, its  # columns stop at different iterations


def test_pcg_matches_dense_solve():
    rng = np.random.default_rng(11)
    for n in (5, 20, 50):
        A = SparseMatrix(sp.csr_matrix(random_spd(n, rng)))
        b = rng.standard_normal(n)
        X, (report,) = pcg_solve(A, b[:, None], None, 1e-12, sgs(A))
        assert np.linalg.norm(X[:, 0] - np.linalg.solve(A.csr.toarray(), b)) < 1e-9


def test_pcg_contraction_guarantee():
    A = laplacian_1d(120)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(120)
    for theta in (0.5, 0.1, 0.01):
        x_true = np.linalg.solve(A.csr.toarray(), b)
        X, (report,) = pcg_solve(A, b[:, None], None, theta, sgs(A))
        assert report.achieved_contraction <= theta
        # True A-norm contraction is bounded by the reported conservative one.
        e = X[:, 0] - x_true
        e0 = -x_true
        true_con = np.sqrt((e @ (A.csr @ e)) / (e0 @ (A.csr @ e0)))
        assert true_con <= theta


def test_pcg_warm_start_exact():
    A = laplacian_1d(30)
    x_true = np.linspace(0, 1, 30)
    b = A.csr @ x_true
    X, (report,) = pcg_solve(A, b[:, None], x_true[:, None], 0.1, sgs(A))
    assert report.iterations == 0
    assert np.array_equal(X[:, 0], x_true)


def test_pcg_rejects_bad_theta():
    A = laplacian_1d(5)
    M = sgs(A)
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones((5, 1)), None, 0.0, M)
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones((5, 1)), None, 1.5, M)


def test_pcg_rejects_dimension_mismatch():
    A = laplacian_1d(5)
    M = sgs(A)
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones((4, 1)), None, 0.5, M)
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones(5), None, 0.5, M)  # a vector, not a block
    with pytest.raises(LinalgError):
        pcg_solve(A, np.ones((5, 2)), np.ones((5, 1)), 0.5, M)


def test_pcg_detects_indefinite():
    # A nonpositive diagonal stops the V-cycle set-up before CG runs, on
    # level 1 and on a finer level alike.
    csr = SparseMatrix(sp.diags([1.0, -1.0]).tocsr()).csr
    with pytest.raises(LinalgError, match="positive diagonal: matrix is not SPD"):
        VCyclePreconditioner(csr)
    coarse = VCyclePreconditioner(laplacian_1d(2).csr)
    with pytest.raises(LinalgError, match="positive diagonal: matrix is not SPD"):
        VCyclePreconditioner(csr, coarse, sp.identity(2, format="csr"))
    # A positive diagonal with eigenvalues 3 and -1 reaches CG's curvature guard.
    A = SparseMatrix(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(LinalgError, match=r"p\^T A p <= 0"):
        pcg_solve(A, np.ones((2, 1)), None, 0.5, sgs(A))


def test_pcg_detects_indefinite_preconditioner():
    # An SPD matrix with a negative definite preconditioner (-M for a
    # symmetric Gauss-Seidel M, with A's bounds): r^T z < 0 on the first iteration of every
    # active column, caught before any step is taken.
    A = laplacian_1d(30)
    M = sgs(A)
    negated = SimpleNamespace(lmin=M.lmin, lmax=M.lmax, apply=lambda R: -M.apply(R))
    RHS = np.column_stack([np.zeros(30), np.ones(30)])
    with pytest.raises(LinalgError, match=r"preconditioner .*r\^T z <= 0"):
        pcg_solve(A, RHS, None, 0.1, negated)
    # The same solve with the preconditioner itself converges.
    _, reports = pcg_solve(A, RHS, None, 0.1, M)
    assert all(r.achieved_contraction <= 0.1 for r in reports)


def test_pcg_raises_at_iteration_cap(monkeypatch):
    # With the cap at 3 iterations, the two columns that need more raise
    # once the block stops; the message names the first of them, the
    # iteration count and theta. The zero column and the one that starts
    # at its solution are done at once.
    monkeypatch.setattr(linalg, "_iteration_cap", lambda n: 3)
    n = 200
    A = laplacian_1d(n)
    x_true = np.linspace(0.0, 1.0, n)
    RHS = np.column_stack([np.zeros(n), A.csr @ x_true, np.ones(n), np.arange(n, dtype=float)])
    X0 = np.zeros((n, 4))
    X0[:, 1] = x_true
    with pytest.raises(ConvergenceError, match=r"column 2 .*cap of 3 iterations.*theta=1e-06"):
        pcg_solve(A, RHS, X0, 1e-6, sgs(A))
    # The same block within the cap converges.
    monkeypatch.undo()
    _, reports = pcg_solve(A, RHS, X0, 1e-6, sgs(A))
    assert [r.iterations for r in reports[:2]] == [0, 0]
    assert min(r.iterations for r in reports[2:]) > 3


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


def test_vcycle_accelerates():
    # On the finest level of a three-level hierarchy, plain CG must take
    # more iterations to reach the residual that V-cycle PCG reached.
    ex = unit_square()
    plan = LevelPlan(coarse_h=0.25, h1=0.125, n_levels=3)
    finest = build_hierarchy(plan, ex.domain, ex.circles, ex.coefficient()).levels[-1]
    A = finest.A_h
    b = np.ones(A.n)
    X, (report,) = pcg_solve(A, b[:, None], None, 1e-8, finest.precond)
    plain = _plain_cg_iterations(A, b, np.linalg.norm(b - A.csr @ X[:, 0]))
    assert report.iterations <= 10 < plain


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
    # A block with one negative-leading column: each column is scaled on
    # its own and its largest-magnitude entry made positive.
    A = laplacian_1d(10)
    V = np.column_stack([-np.linspace(1, 2, 10), np.sin(np.arange(10.0))])
    U = a_normalize(A, V)
    assert np.abs(np.diag(U.T @ (A.csr @ U)) - 1.0).max() < 1e-12
    assert (U[np.argmax(np.abs(U), axis=0), [0, 1]] > 0).all()
    norms = np.sqrt(np.diag(V.T @ (A.csr @ V)))
    assert np.abs(U - V / norms * [-1.0, 1.0]).max() < 1e-14
    with pytest.raises(LinalgError, match="zero vector"):
        a_normalize(A, np.column_stack([V[:, 0], np.zeros(10)]))


def test_a_normalize_rejects_indefinite():
    # v^T A v = -1: the energy norm is undefined, so no NaN vector comes back.
    A = SparseMatrix(sp.csr_matrix(np.diag([1.0, -1.0])))
    with pytest.raises(LinalgError, match="negative radicand"):
        a_normalize(A, np.array([[0.0], [1.0]]))


# -- reference eigensolver -------------------------------------------------

def test_reference_known_eigenvalues():
    n = 80
    A = laplacian_1d(n)
    B = SparseMatrix(sp.identity(n, format="csr"))
    lams, vecs = reference_eigensolve(A, B, 3, 1e-11, sgs(A))
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
    l0, v0 = reference_eigensolve(A, B, 2, 1e-11, sgs(A), seed=0)
    l1, v1 = reference_eigensolve(A, B, 2, 1e-11, sgs(A), seed=123)
    assert np.abs(l0 - l1).max() < 1e-9
    assert np.abs(v0 - v1).max() < 1e-5  # sign fixed by the normalization


def test_reference_scaling():
    n = 50
    A = laplacian_1d(n)
    B = SparseMatrix(sp.identity(n, format="csr"))
    c = 3.7
    cA = SparseMatrix(A.csr * c)
    l1, _ = reference_eigensolve(A, B, 2, 1e-12, sgs(A))
    l2, _ = reference_eigensolve(cA, B, 2, 1e-12, sgs(cA))
    assert np.abs(l2 - c * l1).max() < 1e-9 * c


def test_reference_nev_guard():
    A = laplacian_1d(10)
    B = SparseMatrix(sp.identity(10, format="csr"))
    with pytest.raises(ConfigError):
        reference_eigensolve(A, B, 5, 1e-8, sgs(A))


def test_reference_inner_breakdown_raises(monkeypatch):
    # An inner solve that cannot reach its contraction within the PCG
    # iteration cap stops the reference solver with ConvergenceError;
    # the first sweep is one block solve over all nev + 5 columns.
    n = 40
    A = laplacian_1d(n)
    B = SparseMatrix(sp.identity(n, format="csr"))
    calls = []

    def pcg_recording(A, RHS, X0, theta, M):
        calls.append(RHS.shape[1])
        return pcg_solve(A, RHS, X0, theta, M)

    monkeypatch.setattr(linalg, "_iteration_cap", lambda n: 1)
    monkeypatch.setattr(linalg, "pcg_solve", pcg_recording)
    with pytest.raises(ConvergenceError, match=r"PCG column \d+ stopped at its cap of 1 "):
        reference_eigensolve(A, B, 2, 1e-11, sgs(A))
    assert calls == [7]
