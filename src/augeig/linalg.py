"""Sparse symmetric matrices and the solvers built on them.

Contains the CSR container used for stiffness/mass operators, a
preconditioned conjugate-gradient solver with an explicit A-norm
contraction target, a dense generalized symmetric eigensolver, and the
block inverse-subspace iteration used as the reference eigensolver.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, LinalgError

# Safety margins applied to the power-iteration spectrum estimates so the
# residual-based A-norm error bound stays conservative.
_LMAX_INFLATE = 1.10
_LMIN_DEFLATE = 0.50

# SSOR relaxation factor of the PCG preconditioner.
_SSOR_OMEGA = 1.6


class SparseMatrix:
    """Square symmetric sparse matrix in compressed-row form.

    Immutable after construction; spectrum estimates and the SSOR
    preconditioner are cached on the instance.
    """

    def __init__(self, csr):
        csr = sp.csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise LinalgError(f"matrix must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        asym = abs(csr - csr.T)
        if asym.nnz and asym.max() != 0.0:
            raise LinalgError("matrix is not numerically symmetric")
        self.csr = csr
        self._eig_bounds = None
        self._ssor = None

    @property
    def n(self):
        return self.csr.shape[0]

    @property
    def nnz(self):
        return self.csr.nnz

    def toarray(self):
        return self.csr.toarray()

    def eig_bounds(self):
        """Cached (lambda_min, lambda_max) estimates via power iteration.

        20 power steps for the largest eigenvalue, then 20 steps on the
        shifted matrix for the smallest one.
        """
        if self._eig_bounds is None:
            rng = np.random.default_rng(0)
            v = rng.standard_normal(self.n)
            v /= np.linalg.norm(v)
            for _ in range(20):
                w = self.csr @ v
                nw = np.linalg.norm(w)
                if nw == 0:
                    break
                v = w / nw
            lmax = float(v @ (self.csr @ v))

            shift = lmax * _LMAX_INFLATE
            v = rng.standard_normal(self.n)
            v /= np.linalg.norm(v)
            for _ in range(20):
                w = shift * v - self.csr @ v
                nw = np.linalg.norm(w)
                if nw == 0:
                    break
                v = w / nw
            lmin = shift - float(shift * (v @ v) - v @ (self.csr @ v))
            lmin = max(lmin, 1e-300)
            self._eig_bounds = (lmin, lmax)
        return self._eig_bounds

    def ssor(self):
        if self._ssor is None:
            self._ssor = _SsorPreconditioner(self.csr)
        return self._ssor


@dataclass
class SolveReport:
    iterations: int
    achieved_contraction: float
    breakdown: bool = False


class _SsorPreconditioner:
    """Symmetric SOR preconditioner applied through triangular solves."""

    def __init__(self, csr):
        omega = _SSOR_OMEGA
        d = csr.diagonal()
        if (d <= 0).any():
            raise LinalgError("SSOR requires a positive diagonal: matrix is not SPD")
        dw = sp.diags(d / omega)
        lower = sp.tril(csr, k=-1, format="csc") + dw
        upper = sp.triu(csr, k=1, format="csc") + dw
        opts = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self._lower = spla.splu(lower, **opts)
        self._upper = spla.splu(upper, **opts)
        self._dscale = (d / omega) * (2.0 - omega) / omega

    def apply(self, r):
        z = self._lower.solve(r)
        z *= self._dscale
        return self._upper.solve(z)


def pcg_solve(A: SparseMatrix, rhs, x0=None, theta=1e-8):
    """SSOR-preconditioned conjugate gradients until the A-norm error
    contraction is <= theta.

    The contraction is enforced through the residual bound
    ||e_k||_A <= ||r_k|| / sqrt(lambda_min) against the lower bound
    ||e_0||_A >= ||r_0|| / sqrt(lambda_max), with conservative spectrum
    estimates cached on A.
    """
    if not 0 < theta < 1:
        raise LinalgError(f"contraction target must lie in (0,1), got {theta}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != A.n:
        raise LinalgError("dimension mismatch between matrix and right-hand side")
    x = np.zeros(A.n) if x0 is None else np.array(x0, dtype=float)
    iteration_cap = max(1000, 10 * A.n)

    M = A.ssor()

    lmin, lmax = A.eig_bounds()
    if lmax <= 0:
        raise LinalgError("non-SPD matrix detected in PCG (nonpositive spectrum)")
    lmax_up = lmax * _LMAX_INFLATE
    lmin_dn = lmin * _LMIN_DEFLATE

    r = rhs - A.csr @ x
    r0_norm = np.linalg.norm(r)
    init_err = r0_norm / np.sqrt(lmax_up)
    if r0_norm == 0.0:
        return x, SolveReport(0, 0.0)

    # ||r_k|| <= target ensures the A-norm contraction <= theta.
    target = theta * r0_norm * np.sqrt(lmin_dn / lmax_up)

    z = M.apply(r)
    p = z.copy()
    rz = r @ z
    k = 0
    while k < iteration_cap:
        Ap = A.csr @ p
        pAp = p @ Ap
        if pAp <= 0:
            raise LinalgError("non-SPD matrix detected in PCG (p^T A p <= 0)")
        alpha = rz / pAp
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
    final_err = rk_norm / np.sqrt(lmin_dn)
    contraction = final_err / init_err
    breakdown = rk_norm > target
    return x, SolveReport(k, contraction, breakdown)


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


def a_normalize(A: SparseMatrix, v):
    """Scale v to v^T A v = 1 with the largest-magnitude entry positive."""
    nrm = np.sqrt(v @ (A.csr @ v))
    if nrm == 0:
        raise LinalgError("cannot a-normalize the zero vector")
    v = v / nrm
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def reference_eigensolve(A: SparseMatrix, B: SparseMatrix, nev, tol,
                         seed=0, max_sweeps=500, inner_theta=0.05):
    """Smallest nev eigenpairs of A u = lambda B u.

    Block inverse-subspace iteration (block size nev + 5) with inner PCG
    solves and a Rayleigh-Ritz projection per sweep. Converged when every
    tracked eigenvalue changes by less than tol and the scaled residual
    ||A u - lambda B u|| / ||B u|| drops below tol (both relative to
    max(1, lambda)). Eigenvectors are a-normalized with the
    largest-magnitude component positive.
    """
    n = A.n
    if nev > n // 4:
        raise LinalgError(f"nev={nev} exceeds n/4={n // 4}")
    p = min(nev + 5, n)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    lam = np.ones(p)
    prev = np.full(nev, np.inf)

    for sweep in range(max_sweeps):
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
            vecs = [a_normalize(A, X[:, i]) for i in range(nev)]
            return np.array(lam[:nev]), np.column_stack(vecs)

        # Inverse iteration sweep: X <- A^{-1} B X, warm-started at X/lam.
        Y = np.empty_like(X)
        for i in range(p):
            li = lam[i] if lam[i] > 0 else 1.0
            if i < nev and res_rel[i] < tol / 10:
                Y[:, i] = X[:, i] / li  # effectively converged, skip the solve
                continue
            y, _ = pcg_solve(A, BX[:, i], x0=X[:, i] / li, theta=inner_theta)
            Y[:, i] = y
        X = Y

    raise ConvergenceError(
        f"reference eigensolver did not converge in {max_sweeps} sweeps",
        payload=(np.array(lam[:nev]), X[:, :nev]),
    )

