"""Correctness gate, independent of augeig's solvers.

The reference eigenvalues of the finest level come from ARPACK
shift-invert (``scipy.sparse.linalg.eigsh(A, M=B, sigma=0)``) on the
finest stiffness and mass matrices, so the check shares no solver code
with the program it checks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class Gate:
    """Largest accepted relative eigenvalue error and relative residual
    ``||A u - lambda B u|| / ||B u||`` per tracked pair on the finest
    level. ``residual_tol=None`` reports the residual without gating it."""

    lambda_rel_tol: float
    residual_tol: float = None


def reference_eigenvalues(A, B, k, seed):
    """The k smallest eigenvalues of A u = lambda B u, ascending."""
    v0 = np.random.default_rng(seed).standard_normal(A.shape[0])
    w = spla.eigsh(A, k=k, M=B, sigma=0, which="LM", v0=v0,
                   return_eigenvectors=False)
    return np.sort(w)


def residuals(A, B, lambdas, vectors):
    BV = B @ vectors
    R = A @ vectors - BV * lambdas
    return np.linalg.norm(R, axis=0) / np.linalg.norm(BV, axis=0)


def evaluate(gate, lambdas, ref, A, B, vectors):
    """Returns (ok, lambda_relerr_max, residual_max, message)."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != ref.shape or not np.all(np.isfinite(lambdas)):
        return False, float("inf"), float("inf"), f"eigenvalues {lambdas} vs {ref}"
    relerr = float(np.max(np.abs(lambdas - ref) / np.abs(ref)))
    res = float(np.max(residuals(A, B, lambdas, vectors)))
    problems = []
    if not relerr <= gate.lambda_rel_tol:
        problems.append(f"relative eigenvalue error {relerr:.3g} > {gate.lambda_rel_tol:g}")
    if gate.residual_tol is not None and not res <= gate.residual_tol:
        problems.append(f"residual {res:.3g} > {gate.residual_tol:g}")
    return not problems, relerr, res, "; ".join(problems)
