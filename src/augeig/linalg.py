"""Sparse symmetric matrices and the solvers built on them.

Contains the CSR container used for stiffness/mass operators, the
nonnested multigrid preconditioner, a preconditioned conjugate-gradient
solver for a block of uncoupled right-hand sides with an explicit A-norm
contraction target per column, a dense generalized symmetric
eigensolver, and the block inverse-subspace iteration used as the
reference eigensolver.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceError, LinalgError

# Safety margins applied to the power-iteration spectrum estimates so the
# residual-based A-norm error bound stays conservative.
_LMAX_INFLATE = 1.10
_LMIN_DEFLATE = 0.50

# Reference eigensolver: sweep cap and the PCG contraction of its inner solves.
_REF_MAX_SWEEPS = 500
_REF_INNER_THETA = 0.05


def _iteration_cap(n):
    """PCG iterations after which a column short of its target raises."""
    return max(1000, 10 * n)


class SparseMatrix:
    """Square symmetric sparse matrix in compressed-row form; no solver state."""

    def __init__(self, csr):
        csr = sp.csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise LinalgError(f"matrix must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        # eliminate_zeros can leave views of the pre-drop arrays; own exactly nnz.
        csr.data, csr.indices = csr.data.copy(), csr.indices.copy()
        asym = abs(csr - csr.T)
        if asym.nnz and asym.max() != 0.0:
            raise LinalgError("matrix is not numerically symmetric")
        self.csr = csr

    @property
    def n(self):
        return self.csr.shape[0]

    @property
    def nnz(self):
        return self.csr.nnz


@dataclass
class SolveReport:
    iterations: int
    achieved_contraction: float


class VCyclePreconditioner:
    """Nonnested multigrid preconditioner of one level's stiffness matrix,
    with that matrix's spectrum bounds lmin, lmax for the PCG stopping rule.

    Level 1 (no coarse part) holds a sparse LU factor of its matrix, so
    apply is A^-1 there; coarsest_solve shift-inverts with it. A level
    k >= 2 applies one symmetric V(1,1) cycle from zero: forward
    Gauss-Seidel, the residual restricted by Q^T, level k-1's
    preconditioner, the correction prolonged by Q, and backward
    Gauss-Seidel on the new residual. Q is the interpolation from level
    k-1, whose space is not a subspace of this one. The cycle is SPD for
    any SPD coarse part (Bramble, Pasciak & Xu, Math. Comp. 56 (1991)
    1-34; Xu, Computing 56 (1996) 215-235).
    """

    def __init__(self, csr, coarse=None, Q=None):
        if (csr.diagonal() <= 0).any():
            raise LinalgError("Gauss-Seidel requires a positive diagonal: matrix is not SPD")
        self.lmin, self.lmax = _power_bounds(csr)
        if self.lmax <= 0:
            raise LinalgError("non-SPD matrix detected (nonpositive spectrum)")
        self._csr, self._coarse, self._Q = csr, coarse, Q
        if coarse is None:
            self._factor = spla.splu(csr.tocsc())
        else:
            # D + L in natural order; its transposed solve is D + U, as A is symmetric.
            self._factor = spla.splu(sp.tril(csr, format="csc"), permc_spec="NATURAL",
                                     diag_pivot_thresh=0.0)

    def apply(self, R):
        """M^-1 R for an (n, k) block (or an (n,) vector)."""
        X = self._factor.solve(R)  # level 1: A^-1 R; else forward Gauss-Seidel
        if self._coarse is None:
            return X
        X += self._Q @ self._coarse.apply(self._Q.T @ (R - self._csr @ X))
        X += self._factor.solve(R - self._csr @ X, trans="T")
        return X


def _power_bounds(csr):
    """(lambda_min, lambda_max) estimates: 20 power steps for the largest
    eigenvalue, then 20 on the shifted matrix for the smallest one."""
    rng = np.random.default_rng(0)

    def dominant(op):  # unit vector after 20 power steps of op from a random start
        v = rng.standard_normal(csr.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(20):
            w = op(v)
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        return v

    v = dominant(lambda x: csr @ x)
    lmax = float(v @ (csr @ v))
    shift = lmax * _LMAX_INFLATE
    v = dominant(lambda x: shift * x - csr @ x)
    lmin = shift - float(shift * (v @ v) - v @ (csr @ v))
    return max(lmin, 1e-300), lmax


def pcg_solve(A: SparseMatrix, RHS, X0, theta, M):
    """Preconditioned conjugate gradients on an (n, k) block of right-hand
    sides from X0 (None: zero), until each column's A-norm error contraction
    is <= theta. M is built for A: M.apply(R) is M^-1 R for a block, and
    M.lmin, M.lmax bound A's spectrum. Returns (X, reports): the (n, k)
    solutions, C-ordered, and one SolveReport per column. A column still
    short of its target at the iteration cap raises ConvergenceError,
    once the other columns are done.

    The columns are uncoupled: each keeps its own Krylov space, step
    lengths and stopping test, and a column that has converged is frozen.
    Per iteration the active columns share one SpMM and one block M apply.
    Every dot product and norm runs on a contiguous column, so each
    column's iterates are bit-identical to a single-vector CG (the block
    is Fortran-ordered inside). A nonpositive r^T z (M not SPD) or
    p^T A p (A not SPD) raises LinalgError.

    The contraction is enforced through the residual bound
    ||e_k||_A <= ||r_k|| / sqrt(lambda_min) against the lower bound
    ||e_0||_A >= ||r_0|| / sqrt(lambda_max), with M's spectrum estimates
    made conservative by fixed margins.
    """
    if not 0 < theta < 1:
        raise LinalgError(f"contraction target must lie in (0,1), got {theta}")
    RHS = np.asarray(RHS, dtype=float)
    if RHS.ndim != 2 or RHS.shape[0] != A.n:
        raise LinalgError("right-hand sides must be an (n, k) block matching the matrix")
    X = np.zeros(RHS.shape, order="F") if X0 is None else np.array(X0, dtype=float, order="F")
    if X.shape != RHS.shape:
        raise LinalgError("start block and right-hand sides differ in shape")
    iteration_cap = _iteration_cap(A.n)
    lmax_up = M.lmax * _LMAX_INFLATE
    lmin_dn = M.lmin * _LMIN_DEFLATE

    R = np.asfortranarray(RHS - A.csr @ X)
    r0_norm = _col_norms(R)
    init_err = r0_norm / np.sqrt(lmax_up)
    # ||r_k|| <= target ensures the A-norm contraction <= theta.
    target = theta * r0_norm * np.sqrt(lmin_dn / lmax_up)
    reports = [SolveReport(0, 0.0) for _ in range(RHS.shape[1])]
    act = np.flatnonzero(r0_norm != 0.0)  # a zero residual is solved at once
    Xa, Ra = X[:, act], R[:, act]
    k = 0
    while act.size and k < iteration_cap:
        Z = M.apply(Ra)
        rz_new = _col_dots(Ra, Z)
        if (rz_new <= 0).any():
            raise LinalgError("non-SPD preconditioner detected in PCG (r^T z <= 0)")
        P = Z if k == 0 else Z + (rz_new / rz) * P
        rz = rz_new
        AP = np.asfortranarray(A.csr @ P)
        pAp = _col_dots(P, AP)
        if (pAp <= 0).any():
            raise LinalgError("non-SPD matrix detected in PCG (p^T A p <= 0)")
        alpha = rz / pAp
        Xa += alpha * P
        Ra -= alpha * AP
        k += 1
        rk_norm = _col_norms(Ra)
        done = rk_norm <= target[act]
        if done.any():
            X[:, act[done]] = Xa[:, done]
            for j, rn in zip(act[done], rk_norm[done]):
                reports[j] = SolveReport(k, rn / np.sqrt(lmin_dn) / init_err[j])
            act, Xa, Ra, P, rz = act[~done], Xa[:, ~done], Ra[:, ~done], P[:, ~done], rz[~done]
    if act.size:
        raise ConvergenceError(f"PCG column {act[0]} stopped at its cap of {k} iterations "
                               f"short of theta={theta:g}")
    return np.ascontiguousarray(X), reports


def _col_dots(U, V):
    """Per-column dot products of two Fortran-ordered blocks."""
    return np.array([U[:, c] @ V[:, c] for c in range(U.shape[1])])


def _col_norms(U):
    return np.sqrt(_col_dots(U, U))  # rounds as np.linalg.norm of each column


def dense_sym_gen_eig(A, B):
    """All eigenpairs of A v = lambda B v, ascending, B-orthonormal.

    B is reduced by Cholesky factorization inside eigh; failure means the
    mass block is not positive definite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        return scipy.linalg.eigh(A, B)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"mass block not SPD: {exc}") from None


def a_norm(A: SparseMatrix, v):
    """Energy norm sqrt(v^T A v); rejects radicands below -1e-14."""
    q = float(v @ (A.csr @ v))
    if q < -1e-14:
        raise LinalgError(f"negative radicand {q:g}: matrix is not SPD")
    return np.sqrt(max(q, 0.0))


def a_normalize(A: SparseMatrix, V):
    """Scale each column v of the (n, k) block V to v^T A v = 1, with its
    largest-magnitude entry positive (on a tie, the positive one); one SpMM
    for the block. Rejects radicands below -1e-14 and zero columns."""
    V = np.asarray(V, dtype=float)
    q = np.einsum("ij,ij->j", V, A.csr @ V)
    if (q < -1e-14).any():
        raise LinalgError(f"negative radicand {q.min():g}: matrix is not SPD")
    if (q <= 0).any():
        raise LinalgError(f"cannot a-normalize the zero vector (column {np.argmax(q <= 0)})")
    T = np.ascontiguousarray(V.T)  # per-column min/max on contiguous rows
    return V * (np.where(-T.min(axis=1) > T.max(axis=1), -1.0, 1.0) / np.sqrt(q))


def check_pair_count(nev, n):
    """A nev above n/4 is a ConfigError: the pair count comes from the run
    configuration."""
    if nev > n // 4:
        raise ConfigError(f"nev={nev} exceeds n/4={n // 4} of a {n}-dof level")


def reference_eigensolve(A: SparseMatrix, B: SparseMatrix, nev, tol, M, seed=0):
    """Smallest nev eigenpairs of A u = lambda B u.

    Block inverse-subspace iteration (block size nev + 5) with inner PCG
    solves, preconditioned by M (built for A), and a Rayleigh-Ritz
    projection per sweep. Converged when every
    tracked eigenvalue changes by less than tol and the scaled residual
    ||A u - lambda B u|| / ||B u|| drops below tol (both relative to
    max(1, lambda)). Eigenvectors are a-normalized with the
    largest-magnitude component positive. A nev above n/4 is a
    ConfigError (check_pair_count).
    """
    n = A.n
    check_pair_count(nev, n)
    p = min(nev + 5, n)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    lam = np.ones(p)
    prev = np.full(nev, np.inf)

    for sweep in range(_REF_MAX_SWEEPS):
        # Rayleigh-Ritz on the current block.
        AX = A.csr @ X
        BX = B.csr @ X
        At = X.T @ AX
        Bt = X.T @ BX
        try:
            w, C = dense_sym_gen_eig(At, Bt)
        except LinalgError:
            # Rank-deficient block: reorthogonalize by QR and retry.
            X, _ = np.linalg.qr(X)
            continue
        lam = w
        X = X @ C
        BX = BX @ C
        AX = AX @ C

        res = np.linalg.norm(AX[:, :nev] - BX[:, :nev] * lam[:nev], axis=0)
        res_scale = np.linalg.norm(BX[:, :nev], axis=0) * np.maximum(1.0, np.abs(lam[:nev]))
        res_rel = res / res_scale
        dlam = np.abs(lam[:nev] - prev) / np.maximum(1.0, np.abs(lam[:nev]))
        prev = lam[:nev].copy()
        if sweep > 0 and (dlam < tol).all() and (res_rel < tol).all():
            return np.array(lam[:nev]), a_normalize(A, X[:, :nev])

        # Inverse iteration sweep: X <- A^{-1} B X, warm-started at X/lam,
        # one block solve over the columns not yet effectively converged.
        Y = X / np.where(lam > 0, lam, 1.0)
        solve = [i for i in range(p) if not (i < nev and res_rel[i] < tol / 10)]
        Y[:, solve], _ = pcg_solve(A, BX[:, solve], Y[:, solve], _REF_INNER_THETA, M)
        X = Y

    raise ConvergenceError(f"reference eigensolver did not converge in {_REF_MAX_SWEEPS} sweeps")

