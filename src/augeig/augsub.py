"""One augmented subspace iteration.

Fine-mesh linear correction with a contraction-controlled PCG solve, the
small bordered eigenproblem on the coarse space plus the corrected fine
functions, whose m lowest Ritz pairs are kept, and reassembly of the
fine-space iterates. The Ritz pairs depend only on the span of the
corrections, so they enter the bordered problem as PCG returns them; the
border assembly rejects a block whose columns are not independent. The
bordered problem is shift-inverted on the level's one coarse factor, of
A_H, by block elimination.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator, eigsh

# dense_sym_gen_eig is not called here; perfbench/spans.py hooks it by this name.
from .linalg import SparseMatrix, a_normalize, dense_sym_gen_eig, pcg_solve  # noqa: F401


@dataclass
class EigenState:
    """Tracked eigenpair approximations on the fine mesh."""

    lambdas: np.ndarray   # (m,), ascending
    vectors: np.ndarray   # (n_dof, m), each a-normalized
    iteration: int = 0
    reports: list = None  # per-slot SolveReport of the step that made this state
    records: list = field(default_factory=list)  # StepRecord per multilevel_solve step


def correction_solve(A_h: SparseMatrix, B_h: SparseMatrix, state: EigenState,
                     theta, M):
    """Solve A u~ = lambda B u for each tracked pair.

    One block PCG over the m slots, preconditioned by M (built for A_h);
    each slot starts from its current iterate and must contract its
    A-norm error by at least theta. Returns pcg_solve's (U_tilde, reports).
    """
    return pcg_solve(A_h, (B_h.csr @ state.vectors) * state.lambdas,
                     state.vectors, theta, M)


def _bordered_operator(C, c, gamma):
    """[[C, c], [c^T, gamma]] as an operator, never formed."""
    n_H = C.shape[0]

    def matvec(x):
        f, g = x[:n_H], x[n_H:]
        return np.concatenate([C @ f + c @ g, c.T @ f + gamma @ g])

    n = n_H + gamma.shape[0]
    return LinearOperator((n, n), matvec=matvec, dtype=float)


def solve_bordered(sys):
    """The lowest sys.m bordered eigenpairs, ascending.

    These are the Ritz pairs that the augmented subspace step keeps.
    Shift-invert Lanczos at shift 0 (eigsh orders the pairs ascending); a
    fixed start vector makes repeated calls bit-identical. K^-1 is block
    elimination on the system's A_H factor: z = A_H^-1 f, then
    y = S_K^-1 (g - a_h^T z) by Cholesky, and x = z - Y y. M x comes from
    the blocks, so no bordered matrix is formed or factored. Returns
    (lambdas, coarse parts (N_H, m), border parts (m, m)), B-orthonormal.
    """
    n_H, m = sys.A_H.shape[0], sys.m
    S_K_chol = cho_factor(sys.S_K)

    def k_inv(x):
        z = sys.A_H_lu.solve(x[:n_H])
        y = cho_solve(S_K_chol, x[n_H:] - sys.a_h.T @ z)
        return np.concatenate([z - sys.Y @ y, y])

    n = n_H + m
    w, V = eigsh(_bordered_operator(sys.A_H, sys.a_h, sys.alpha), k=m,
                 M=_bordered_operator(sys.B_H, sys.b_h, sys.beta), sigma=0.0, which="LM",
                 OPinv=LinearOperator((n, n), matvec=k_inv, dtype=float), tol=0,
                 v0=np.ones(n))
    return w, V[:n_H], V[n_H:]


def reassemble_fine(u_H, xi, P, U, A_h):
    """Fine block P u_H + U xi, each column a-normalized with the sign convention."""
    return a_normalize(A_h, P @ u_H + U @ xi)


def aug_subspace_step(level, state: EigenState, theta) -> EigenState:
    """One full augmented subspace iteration on a fine level.

    correction solve -> border assembly -> bordered eigenproblem -> fine
    reassembly: a Rayleigh-Ritz step on V_H + span{u~_1 ... u~_m} that
    keeps its m lowest Ritz pairs, in ascending order. ``level`` is the
    level's LevelData: its matrices, PCG preconditioner and cross
    assembler (which holds the transfer), none of them mutated. The new
    state carries the correction solves' reports, one per slot of the
    input state.
    """
    A_h, assembler = level.A_h, level.assembler
    U, reports = correction_solve(A_h, level.B_h, state, theta, level.precond)
    lambdas, u_H, xi = solve_bordered(assembler.assemble(U))
    return EigenState(
        lambdas=lambdas,
        vectors=reassemble_fine(u_H, xi, assembler.P, U, A_h),
        iteration=state.iteration + 1,
        reports=reports,
    )
