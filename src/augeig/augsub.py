"""One augmented subspace iteration.

Fine-mesh linear correction with a contraction-controlled PCG solve, the
small bordered eigenproblem on the coarse space plus the corrected fine
functions, whose m lowest Ritz pairs are kept, and reassembly of the
fine-space iterates. The Ritz pairs depend only on the span of the
corrections, so they enter the bordered problem as PCG returns them; the
border assembly rejects a block whose columns are not independent.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import eigsh

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


def solve_bordered(sys):
    """The lowest sys.m bordered eigenpairs, ascending.

    These are the Ritz pairs that the augmented subspace step keeps.
    Shift-invert Lanczos at shift 0 on the sparse pencil, so SuperLU
    factors K (eigsh orders the pairs ascending); a fixed start vector
    makes repeated calls bit-identical. Returns (lambdas, coarse parts
    (N_H, m), border parts (m, m)), B-orthonormal.
    """
    K, n_H = sys.full_stiffness(), sys.A_H.shape[0]
    w, V = eigsh(K, k=sys.m, M=sys.full_mass(), sigma=0.0, which="LM", tol=0,
                 v0=np.ones(K.shape[0]))
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
