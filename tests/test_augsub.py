"""One augmented subspace iteration: correction, selection, reassembly."""

import numpy as np
import pytest
import scipy.sparse as sp

import augeig.augsub as augsub
import augeig.linalg as linalg
from augeig.augsub import (
    EigenState,
    aug_subspace_step,
    correction_solve,
    select_eigenpairs,
    solve_bordered,
)
from augeig.errors import ConvergenceError, LinalgError
from augeig.fem import (
    BorderedSystem,
    CrossAssembler,
    assemble_mass,
    assemble_stiffness,
    build_space,
    build_transfer,
)
from augeig.harness import measure_errors
from augeig.linalg import a_normalize, dense_sym_gen_eig, pcg_solve, reference_eigensolve

from conftest import fitted_mesh, sgs


def _block_error(vectors, ref, clusters, A_h):
    return float(np.linalg.norm(measure_errors(vectors, ref[1], clusters, A_h)))


def test_first_step_contracts(square_pair, square_reference, square_initial_state):
    A_h = square_pair["A_h"]
    clusters = [[1, 2]]
    e0 = _block_error(square_initial_state.vectors, square_reference, clusters, A_h)
    state = aug_subspace_step(square_pair["level"], square_initial_state, theta=0.1)
    e1 = _block_error(state.vectors, square_reference, clusters, A_h)
    assert e0 > 0
    assert e1 < 0.5 * e0
    assert state.iteration == 1
    assert len(state.reports) == 3  # one correction solve per slot


def test_eigenvalues_decrease_toward_reference(square_pair, square_reference,
                                               square_initial_state):
    state = square_initial_state
    for _ in range(3):
        state = aug_subspace_step(square_pair["level"], state, theta=0.1)
        # Galerkin sandwich: iterates stay above the fine-space eigenvalues.
        assert (state.lambdas >= square_reference[0] - 1e-10).all()
    assert np.abs(state.lambdas - square_reference[0]).max() < 1e-6


def test_step_is_idempotent_at_convergence(square_pair, square_reference):
    lams, vecs = square_reference
    state = EigenState(lambdas=lams.copy(), vectors=vecs.copy(), iteration=0)
    new = aug_subspace_step(square_pair["level"], state, theta=0.1)
    assert np.abs(new.lambdas - lams).max() < 1e-9
    for j in range(3):
        diff = min(
            np.linalg.norm(new.vectors[:, j] - vecs[:, j]),
            np.linalg.norm(new.vectors[:, j] + vecs[:, j]),
        )
        assert diff < 1e-4


def test_step_does_not_mutate_inputs(square_pair, square_initial_state):
    asm = square_pair["assembler"]
    assert sp.issparse(asm.A_H) and sp.issparse(asm.B_H)
    A_H_before = asm.A_H.toarray()
    vecs_before = square_initial_state.vectors.copy()
    lams_before = square_initial_state.lambdas.copy()
    aug_subspace_step(square_pair["level"], square_initial_state, theta=0.1)
    assert np.array_equal(asm.A_H.toarray(), A_H_before)
    assert np.array_equal(square_initial_state.vectors, vecs_before)
    assert np.array_equal(square_initial_state.lambdas, lams_before)


def test_correction_solve_orthonormalizes(square_pair, square_initial_state):
    A_h = square_pair["A_h"]
    U, _ = correction_solve(A_h, square_pair["B_h"], square_initial_state,
                            theta=0.1, M=square_pair["level"].precond)
    G = U.T @ (A_h.csr @ U)
    assert np.allclose(G, np.eye(3), atol=1e-10)


def test_correction_degenerate_guard(square_pair, square_initial_state):
    st = square_initial_state
    dup = EigenState(
        lambdas=np.array([st.lambdas[0], st.lambdas[0]]),
        vectors=np.column_stack([st.vectors[:, 0], st.vectors[:, 0]]),
    )
    with pytest.raises(LinalgError, match="degenerate"):
        correction_solve(square_pair["A_h"], square_pair["B_h"], dup, theta=0.1,
                         M=square_pair["level"].precond)


def test_correction_breakdown_raises(square_pair, square_initial_state, monkeypatch):
    # A slot that cannot reach its contraction within the PCG iteration
    # cap stops the step with ConvergenceError; the m slots go to PCG as
    # one block solve.
    calls = []

    def pcg_recording(A, RHS, X0, theta, M):
        calls.append(RHS.shape)
        return pcg_solve(A, RHS, X0, theta, M)

    monkeypatch.setattr(linalg, "_iteration_cap", lambda n: 1)
    monkeypatch.setattr(augsub, "pcg_solve", pcg_recording)
    with pytest.raises(ConvergenceError, match=r"PCG column \d+ stopped at its cap of 1 "):
        correction_solve(square_pair["A_h"], square_pair["B_h"], square_initial_state,
                         theta=0.1, M=square_pair["level"].precond)
    assert calls == [(square_pair["A_h"].n, square_initial_state.m)]


def _decoupled_system():
    # Coarse block diag(10, 20); border functions are exact eigenvectors
    # with eigenvalues 2 and 5 and no coupling to the coarse space.
    return BorderedSystem(
        A_H=sp.diags([10.0, 20.0], format="csr"), a_h=np.zeros((2, 2)), alpha=np.eye(2),
        B_H=sp.identity(2, format="csr"), b_h=np.zeros((2, 2)), beta=np.diag([1 / 2, 1 / 5]),
    )


def test_select_on_decoupled_system():
    sys = _decoupled_system()
    lambdas, u_H, xi = solve_bordered(sys)
    # The spectrum is [2, 5, 10, 20]; solve_bordered returns the lowest
    # min(2m, N - 1) = 3 pairs.
    assert np.allclose(lambdas, [2.0, 5.0, 10.0], atol=1e-12)
    selected = select_eigenpairs(lambdas, u_H, xi, sys, 2)
    # Slot 0 tracks the border function with eigenvalue 2, slot 1 the one with 5.
    assert selected == [0, 1]
    assert abs(abs(xi[0, selected[0]]) - np.sqrt(2.0)) < 1e-12
    assert abs(abs(xi[1, selected[1]]) - np.sqrt(5.0)) < 1e-12


def test_select_needs_enough_candidates():
    sys = _decoupled_system()
    lambdas, u_H, xi = solve_bordered(sys)
    with pytest.raises(LinalgError):
        select_eigenpairs(lambdas, u_H, xi, sys, 5)


def test_select_vanishing_scores_raise():
    sys = _decoupled_system()
    lambdas, u_H, xi = solve_bordered(sys)
    with pytest.raises(LinalgError, match="slot"):
        select_eigenpairs(lambdas, u_H, np.zeros_like(xi), sys, 2)


@pytest.fixture(scope="module", params=["galerkin", "exact"])
def ex1_bordered(request, ex1):
    """The bordered system of a first step on the nonnested pair 2/17 -> 2/19.

    The augmenting block is one correction of the interpolated coarse
    eigenvectors, as aug_subspace_step builds it.
    """
    coeff = ex1.coefficient()
    coarse = build_space(fitted_mesh(ex1, 2 / 17))
    fine = build_space(fitted_mesh(ex1, 2 / 19))
    A_h, B_h = assemble_stiffness(fine, coeff), assemble_mass(fine)
    P = build_transfer(coarse, fine)
    A_H = assemble_stiffness(coarse, coeff)
    lams, vecs = reference_eigensolve(A_H, assemble_mass(coarse), 4, 1e-11, sgs(A_H))
    state = EigenState(lambdas=lams,
                       vectors=np.column_stack([a_normalize(A_h, v) for v in (P @ vecs).T]))
    U, _ = correction_solve(A_h, B_h, state, theta=0.1, M=sgs(A_h))
    return CrossAssembler(coarse, fine, coeff, A_h, B_h, P, request.param).assemble(U)


def test_solve_bordered_matches_dense_oracle(ex1_bordered):
    sys = ex1_bordered
    lambdas, u_H, xi = solve_bordered(sys)
    k = len(lambdas)
    assert k == 2 * sys.m
    M = sys.full_mass().toarray()
    w, V = dense_sym_gen_eig(sys.full_stiffness().toarray(), M)
    assert (np.abs(lambdas - w[:k]) <= 1e-12 * np.abs(w[:k])).all()
    X = np.vstack([u_H, xi])
    assert np.abs(X.T @ M @ X - np.eye(k)).max() <= 1e-12
    # Selection over the whole dense spectrum picks the same candidates,
    # so the lowest k hold every pair selection reaches.
    n_H = sys.A_H.shape[0]
    selected = select_eigenpairs(lambdas, u_H, xi, sys, sys.m)
    assert selected == select_eigenpairs(w, V[:n_H], V[n_H:], sys, sys.m)
    assert k - 1 not in selected


def test_solve_bordered_is_repeatable(ex1_bordered):
    first = solve_bordered(ex1_bordered)
    second = solve_bordered(ex1_bordered)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
