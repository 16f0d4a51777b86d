"""One augmented subspace iteration.

Fine-mesh linear correction with a contraction-controlled PCG solve, the
small bordered eigenproblem on the coarse space plus the corrected fine
functions, eigenpair selection by border-component score, and reassembly
of the fine-space iterates.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import eigsh

from .errors import LinalgError
from .fem import a_norm
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

    @property
    def m(self):
        return len(self.lambdas)


def correction_solve(A_h: SparseMatrix, B_h: SparseMatrix, state: EigenState,
                     theta):
    """Solve A u~ = lambda B u for each tracked pair, then a-orthonormalize.

    Each solve starts from the current iterate and must contract the
    A-norm error by at least theta. Returns (U_tilde, reports).
    """
    n = A_h.n
    m = state.m
    U = np.empty((n, m))
    reports = []
    for j in range(m):
        rhs = state.lambdas[j] * (B_h.csr @ state.vectors[:, j])
        x, report = pcg_solve(A_h, rhs, x0=state.vectors[:, j].copy(), theta=theta)
        U[:, j] = x
        reports.append(report)

    # Modified Gram-Schmidt in the A inner product.
    for j in range(m):
        v = U[:, j]
        for i in range(j):
            v = v - (U[:, i] @ (A_h.csr @ v)) * U[:, i]
        nrm = a_norm(A_h, v)
        if nrm < 1e-12:
            raise LinalgError(f"degenerate correction: vector {j} vanished")
        U[:, j] = v / nrm
    return U, reports


def solve_bordered(sys):
    """The lowest k = min(2m, N_H + m - 1) bordered eigenpairs, ascending.

    Shift-invert Lanczos at shift 0 (eigsh orders the pairs ascending); a
    fixed start vector makes repeated calls bit-identical. Returns (lambdas,
    coarse parts (N_H, k), border parts (m, k)), B-orthonormal.
    """
    K, n_H = sys.full_stiffness(), sys.A_H.shape[0]
    w, V = eigsh(K, k=min(2 * sys.m, len(K) - 1), M=sys.full_mass(), sigma=0.0,
                 which="LM", tol=0, v0=np.ones(len(K)))
    return w, V[:n_H], V[n_H:]


def select_eigenpairs(lambdas, u_H, xi, sys, m):
    """Pick one bordered eigenpair per tracked slot.

    Slot j scores candidate i by the normalized a-projection of the
    candidate onto u~_j, evaluated in bordered coordinates:
    |a(v_i, u~_j)| / (||v_i||_a ||u~_j||_a). Greedy maximum over slots in
    order, candidates without replacement, ties broken by the smaller
    eigenvalue index.
    """
    n_cand = len(lambdas)
    if n_cand < m:
        raise LinalgError(f"need at least {m} bordered eigenpairs, got {n_cand}")
    # a(v_i, u~_j) in bordered coordinates; B-orthonormal candidates have
    # ||v_i||_a^2 = lambda_i.
    inner = sys.a_h.T @ u_H + sys.alpha.T @ xi      # (m, n_cand)
    v_norms = np.sqrt(np.maximum(np.abs(lambdas), 1e-300))
    u_norms = np.sqrt(np.maximum(np.diag(sys.alpha), 1e-300))
    scores = np.abs(inner) / (u_norms[:, None] * v_norms[None, :])

    selected = []
    used = np.zeros(n_cand, dtype=bool)
    for j in range(m):
        s = np.where(used, -np.inf, scores[j])
        best = int(np.argmax(s))  # argmax takes the first (smallest index) on ties
        if s[best] < 1e-12:
            raise LinalgError(f"lost eigenvector for slot {j}: all border scores vanish")
        selected.append(best)
        used[best] = True
    return selected


def reassemble_fine(u_H, xi, P, u_tilde, A_h):
    """Fine vector P u_H + U~ xi, a-normalized with the sign convention."""
    v = P @ u_H + u_tilde @ xi
    return a_normalize(A_h, v)


def aug_subspace_step(assembler, state: EigenState, theta) -> EigenState:
    """One full augmented subspace iteration.

    correction solve -> border assembly -> bordered eigenproblem ->
    selection -> fine reassembly. Level data (matrices, transfer) live in
    the assembler and are never mutated. The new state carries the
    correction solves' reports, one per slot of the input state.
    """
    A_h = assembler.A_h
    U, reports = correction_solve(A_h, assembler.B_h, state, theta)
    sys = assembler.assemble(U)
    lambdas, u_H, xi = solve_bordered(sys)
    selected = select_eigenpairs(lambdas, u_H, xi, sys, state.m)

    order = sorted(selected, key=lambda i: lambdas[i])
    vectors = [reassemble_fine(u_H[:, i], xi[:, i], assembler.P, U, A_h) for i in order]
    return EigenState(
        lambdas=lambdas[order],
        vectors=np.column_stack(vectors),
        iteration=state.iteration + 1,
        reports=reports,
    )
